//! The tiny CLI convention shared by every experiment binary:
//! `key=value` arguments plus bare `--flag`s. Anything else, and a
//! value that does not parse as the type its key asks for, panics:
//! a silently substituted default would run a different experiment
//! under the requested label.

use std::collections::HashMap;

/// Parsed command-line arguments: `key=value` pairs and `--flag`s.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse from the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    ///
    /// # Panics
    ///
    /// Panics on an argument that is neither `--flag` nor `key=value`.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Args::default();
        for arg in args {
            if let Some(flag) = arg.strip_prefix("--") {
                out.flags.push(flag.to_string());
            } else if let Some((k, v)) = arg.split_once('=') {
                out.values.insert(k.to_string(), v.to_string());
            } else {
                panic!("argument {arg:?} is neither key=value nor --flag");
            }
        }
        out
    }

    /// `key=value` lookup with a default for an absent key.
    ///
    /// # Panics
    ///
    /// Panics if the key is present but its value does not parse as `T`.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.values.get(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                panic!(
                    "{key}={v}: expected a value of type {}",
                    std::any::type_name::<T>()
                )
            }),
        }
    }

    /// `key=value` lookup returning the raw string, if present.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Is `--flag` present?
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Every `key=value` pair, sorted by key — stable input for run
    /// manifests.
    pub fn entries(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .values
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        out.sort();
        out
    }

    /// Every bare `--flag`, in the order given.
    pub fn flags(&self) -> &[String] {
        &self.flags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_key_values_and_flags() {
        let a = Args::parse(["n=128", "--full", "sims=25"].iter().map(|s| s.to_string()));
        assert_eq!(a.get("n", 0usize), 128);
        assert_eq!(a.get("sims", 0usize), 25);
        assert_eq!(a.get("missing", 7u64), 7);
        assert!(a.flag("full"));
        assert!(!a.flag("csv"));
    }

    #[test]
    #[should_panic(expected = "n=1e3: expected a value of type usize")]
    fn malformed_values_panic() {
        let a = Args::parse(["n=1e3".to_string()]);
        a.get("n", 42usize);
    }

    #[test]
    #[should_panic(expected = "\"ck\" is neither key=value nor --flag")]
    fn positional_arguments_panic() {
        Args::parse(["n=8".to_string(), "ck".to_string()]);
    }

    #[test]
    fn raw_string_lookup() {
        let a = Args::parse(["out=results.json".to_string()]);
        assert_eq!(a.get_str("out"), Some("results.json"));
        assert_eq!(a.get_str("missing"), None);
    }
}
