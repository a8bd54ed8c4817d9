//! Run provenance: the [`RunManifest`] block the bench harness embeds in
//! every `BENCH_*.json` artifact (and traces can carry in their
//! `manifest` line).
//!
//! The repo's benchmark caveats — "measured on a 1-core
//! frequency-unstable host", "regenerated at commit X" — used to live as
//! prose in `docs/BENCHMARKS.md`. A manifest records the same facts
//! per-artifact at write time instead: which binary, which arguments,
//! which git revision and rustc, how many host cores, and when. Capture
//! is best-effort — a missing `git` or `rustc` binary degrades the
//! field to `"unknown"` rather than failing the run.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::schema::SCHEMA_VERSION;

/// Provenance of one experiment run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// The experiment (binary) name.
    pub experiment: String,
    /// `key=value` CLI arguments, sorted by key.
    pub args: Vec<(String, String)>,
    /// Bare `--flag` CLI arguments, in the order given.
    pub flags: Vec<String>,
    /// `git rev-parse --short=12 HEAD` of the source checkout this build
    /// came from (whatever the working directory), or `"unknown"`.
    pub git_rev: String,
    /// `rustc --version` of the toolchain on `PATH`, or `"unknown"`.
    pub rustc: String,
    /// `std::thread::available_parallelism` at run time (0 if unknown).
    pub host_cores: u64,
    /// Seconds since the Unix epoch at capture time.
    pub unix_time_s: u64,
    /// The trace/artifact schema version this build writes.
    pub schema_version: u64,
}

/// A directory inside the source checkout this build came from.
const CHECKOUT: &str = env!("CARGO_MANIFEST_DIR");

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

impl RunManifest {
    /// Capture the environment for experiment `experiment`: git
    /// revision, rustc version, host cores, and wall-clock, each
    /// degrading gracefully when unavailable. CLI arguments are attached
    /// afterwards with [`with_args`](RunManifest::with_args) /
    /// [`with_flags`](RunManifest::with_flags) (the harness knows them;
    /// this module does not parse a command line).
    pub fn capture(experiment: &str) -> Self {
        Self {
            experiment: experiment.to_string(),
            args: Vec::new(),
            flags: Vec::new(),
            git_rev: command_line("git", &["-C", CHECKOUT, "rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            host_cores: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(0),
            unix_time_s: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            schema_version: SCHEMA_VERSION,
        }
    }

    /// Attach `key=value` arguments (sorted by key for stable output).
    pub fn with_args<I, K, V>(mut self, args: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        self.args = args
            .into_iter()
            .map(|(k, v)| (k.into(), v.into()))
            .collect();
        self.args.sort();
        self
    }

    /// Attach bare `--flag` arguments.
    pub fn with_flags<I: IntoIterator<Item = S>, S: Into<String>>(mut self, flags: I) -> Self {
        self.flags = flags.into_iter().map(Into::into).collect();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_fills_every_field() {
        let m = RunManifest::capture("unit_test")
            .with_args([("seed0", "7"), ("n", "100")])
            .with_flags(["full"]);
        assert_eq!(m.experiment, "unit_test");
        assert_eq!(m.schema_version, SCHEMA_VERSION);
        // Sorted by key.
        assert_eq!(m.args[0].0, "n");
        assert_eq!(m.flags, ["full"]);
        assert!(!m.git_rev.is_empty());
        assert!(!m.rustc.is_empty());
        assert!(m.unix_time_s > 0);
    }

    #[test]
    fn missing_tools_degrade_to_unknown() {
        assert_eq!(command_line("definitely-not-a-real-binary-xyz", &[]), None);
    }
}
