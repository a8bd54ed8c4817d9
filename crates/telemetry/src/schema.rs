//! The versioned JSONL trace format: renderer, a minimal parser for the
//! subset the format uses, and a strict validator (field presence +
//! monotone event timestamps) shared by the CI trace smoke and the
//! `ssr-trace` summarizer.
//!
//! A trace is a sequence of one-line JSON objects, every line carrying a
//! `kind` field:
//!
//! 1. exactly one `header` line first (`schema`, `version`, `events`,
//!    `dropped`);
//! 2. at most one `manifest` line (flattened [`RunManifest`] fields);
//! 3. event lines (`reset`, `elected`, `phase_enter`, `rank_claim`,
//!    `rank_release`, `fault`, `checkpoint`, and the lifecycle kinds
//!    `join`, `leave`, `hibernate`, `revive`) whose `t` fields are
//!    monotone nondecreasing;
//! 4. `metric` and `histogram` lines snapshotting the run's registries.
//!
//! The format is hand-rendered and hand-parsed — the workspace
//! deliberately has no JSON dependency, and the bench harness's `Json`
//! emitter is write-only — so the subset grammar lives here, unit-tested
//! against the renderer (every rendered trace must validate).

use std::collections::BTreeMap;

use crate::event::{Event, EventKind, NO_AGENT};
use crate::manifest::RunManifest;
use crate::metrics::Snapshot;

/// Version of the trace schema emitted and accepted by this build.
/// Bump on any change to line kinds or required fields, and record the
/// change in `docs/OBSERVABILITY.md`.
///
/// v2 added the four dynamic-population lifecycle kinds (`join`,
/// `leave`, `hibernate`, `revive`). v3 dropped the event lines' `shard`
/// field (every engine runs one lane) and the `exchange` kind (no engine
/// emits it).
pub const SCHEMA_VERSION: u64 = 3;

// ----------------------------------------------------------------------
// Rendering
// ----------------------------------------------------------------------

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn push_event(out: &mut String, e: &Event) {
    out.push_str(&format!("{{\"kind\":\"{}\",\"t\":{}", e.kind.name(), e.t));
    if e.agent != NO_AGENT {
        out.push_str(&format!(",\"agent\":{}", e.agent));
    }
    match e.kind {
        EventKind::PhaseEnter { phase } => out.push_str(&format!(",\"phase\":{phase}")),
        EventKind::RankClaim { rank } | EventKind::RankRelease { rank } => {
            out.push_str(&format!(",\"rank\":{rank}"));
        }
        EventKind::Fault { hit, name } => {
            out.push_str(&format!(",\"hit\":{hit}"));
            match name {
                Some(n) => out.push_str(&format!(",\"name\":\"{}\"", esc(n))),
                None => out.push_str(",\"name\":null"),
            }
        }
        EventKind::Checkpoint { stopping } => out.push_str(&format!(",\"stopping\":{stopping}")),
        EventKind::Reset
        | EventKind::Elected
        | EventKind::Join
        | EventKind::Leave
        | EventKind::Hibernate
        | EventKind::Revive => {}
    }
    out.push_str("}\n");
}

/// Render a complete trace: header, optional manifest, `events` (must
/// already be in nondecreasing `t` order, as [`Recorder::events`]
/// returns them), then one `metric`/`histogram` line per entry of each
/// snapshot in `snapshots`.
///
/// [`Recorder::events`]: crate::Recorder::events
pub fn render_trace(
    events: &[Event],
    snapshots: &[Snapshot],
    manifest: Option<&RunManifest>,
    dropped: u64,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"kind\":\"header\",\"schema\":\"ssr-trace\",\"version\":{},\"events\":{},\"dropped\":{}}}\n",
        SCHEMA_VERSION,
        events.len(),
        dropped
    ));
    if let Some(m) = manifest {
        let args = m
            .args
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .chain(m.flags.iter().map(|f| format!("--{f}")))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "{{\"kind\":\"manifest\",\"experiment\":\"{}\",\"git_rev\":\"{}\",\"rustc\":\"{}\",\"host_cores\":{},\"unix_time_s\":{},\"args\":\"{}\"}}\n",
            esc(&m.experiment),
            esc(&m.git_rev),
            esc(&m.rustc),
            m.host_cores,
            m.unix_time_s,
            esc(&args)
        ));
    }
    for e in events {
        push_event(&mut out, e);
    }
    for snap in snapshots {
        for &(name, value) in &snap.counters {
            out.push_str(&format!(
                "{{\"kind\":\"metric\",\"name\":\"{}\",\"value\":{}}}\n",
                esc(name),
                value
            ));
        }
        for h in &snap.histograms {
            let buckets = h
                .buckets
                .iter()
                .map(|&(k, c)| format!("[{k},{c}]"))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "{{\"kind\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[{}]}}\n",
                esc(h.name),
                h.count,
                h.sum,
                buckets
            ));
        }
    }
    out
}

// ----------------------------------------------------------------------
// Parsing (the subset the renderer emits)
// ----------------------------------------------------------------------

/// A parsed JSON value of the trace subset: strings, numbers, booleans,
/// null, and (possibly nested) arrays of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// A number (integral values round-trip exactly up to 2⁵³).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A null.
    Null,
    /// An array.
    Arr(Vec<Value>),
}

impl Value {
    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through untouched.
                    let s =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.expect(b'[')?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.pos)),
                    }
                }
            }
            Some(b't') | Some(b'f') | Some(b'n') => {
                for (lit, v) in [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ] {
                    if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                        self.pos += lit.len();
                        return Ok(v);
                    }
                }
                Err(format!("bad literal at byte {}", self.pos))
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => {
                let start = self.pos;
                self.pos += 1;
                while self.bytes.get(self.pos).is_some_and(|&b| {
                    b.is_ascii_digit()
                        || b == b'.'
                        || b == b'e'
                        || b == b'E'
                        || b == b'-'
                        || b == b'+'
                }) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }
}

/// Parse one trace line as a flat JSON object. Nested arrays are
/// supported (histogram buckets); nested objects are not part of the
/// schema and are rejected.
pub fn parse_line(line: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    if p.peek() == Some(b'}') {
        return Ok(map);
    }
    loop {
        p.ws();
        let key = p.string()?;
        p.expect(b':')?;
        let value = p.value()?;
        map.insert(key, value);
        match p.peek() {
            Some(b',') => p.pos += 1,
            Some(b'}') => {
                p.pos += 1;
                p.ws();
                if p.pos != p.bytes.len() {
                    return Err("trailing bytes after object".into());
                }
                return Ok(map);
            }
            _ => return Err(format!("bad object at byte {}", p.pos)),
        }
    }
}

// ----------------------------------------------------------------------
// Validation
// ----------------------------------------------------------------------

/// A schema violation: which line (1-based) and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// What a validated trace contains — the summary `ssr-trace` prints.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Schema version from the header.
    pub version: u64,
    /// Event count claimed by the header.
    pub header_events: u64,
    /// Ring-buffer overwrites claimed by the header.
    pub dropped: u64,
    /// Event lines actually present.
    pub events: usize,
    /// Event count per kind.
    pub by_kind: BTreeMap<String, usize>,
    /// First and last event timestamps, if any events are present.
    pub t_range: Option<(u64, u64)>,
    /// `(t, injector name)` of every fault event.
    pub faults: Vec<(u64, Option<String>)>,
}

const EVENT_KINDS: [&str; 11] = [
    "reset",
    "elected",
    "phase_enter",
    "rank_claim",
    "rank_release",
    "fault",
    "checkpoint",
    "join",
    "leave",
    "hibernate",
    "revive",
];

fn require_u64(
    map: &BTreeMap<String, Value>,
    field: &str,
    line: usize,
) -> Result<u64, SchemaError> {
    map.get(field).and_then(Value::as_u64).ok_or(SchemaError {
        line,
        message: format!("missing or non-integer field \"{field}\""),
    })
}

/// Validate a rendered trace against the schema: one `version`-matching
/// header first, known kinds only, per-kind required fields present and
/// well-typed, and event timestamps monotone nondecreasing. Returns the
/// trace summary on success.
pub fn validate(text: &str) -> Result<TraceSummary, SchemaError> {
    let mut summary = TraceSummary::default();
    let mut last_t: Option<u64> = None;
    let mut seen_header = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let map = parse_line(raw).map_err(|message| SchemaError { line, message })?;
        let kind = map
            .get("kind")
            .and_then(Value::as_str)
            .ok_or(SchemaError {
                line,
                message: "missing \"kind\"".into(),
            })?
            .to_string();
        if !seen_header {
            if kind != "header" {
                return Err(SchemaError {
                    line,
                    message: format!("first line must be the header, got \"{kind}\""),
                });
            }
            let version = require_u64(&map, "version", line)?;
            if version != SCHEMA_VERSION {
                return Err(SchemaError {
                    line,
                    message: format!(
                        "schema version {version} (this build reads {SCHEMA_VERSION})"
                    ),
                });
            }
            summary.version = version;
            summary.header_events = require_u64(&map, "events", line)?;
            summary.dropped = require_u64(&map, "dropped", line)?;
            seen_header = true;
            continue;
        }
        match kind.as_str() {
            "header" => {
                return Err(SchemaError {
                    line,
                    message: "duplicate header".into(),
                })
            }
            "manifest" => {
                for field in ["experiment", "git_rev", "rustc"] {
                    if map.get(field).and_then(Value::as_str).is_none() {
                        return Err(SchemaError {
                            line,
                            message: format!("manifest missing string field \"{field}\""),
                        });
                    }
                }
                require_u64(&map, "host_cores", line)?;
                require_u64(&map, "unix_time_s", line)?;
            }
            "metric" => {
                if map.get("name").and_then(Value::as_str).is_none() {
                    return Err(SchemaError {
                        line,
                        message: "metric missing \"name\"".into(),
                    });
                }
                require_u64(&map, "value", line)?;
            }
            "histogram" => {
                if map.get("name").and_then(Value::as_str).is_none() {
                    return Err(SchemaError {
                        line,
                        message: "histogram missing \"name\"".into(),
                    });
                }
                require_u64(&map, "count", line)?;
                require_u64(&map, "sum", line)?;
                match map.get("buckets") {
                    Some(Value::Arr(items))
                        if items.iter().all(|i| {
                            matches!(i, Value::Arr(pair)
                                if pair.len() == 2
                                && pair.iter().all(|v| v.as_u64().is_some()))
                        }) => {}
                    _ => {
                        return Err(SchemaError {
                            line,
                            message: "histogram \"buckets\" must be [[bucket,count],…]".into(),
                        })
                    }
                }
            }
            k if EVENT_KINDS.contains(&k) => {
                let t = require_u64(&map, "t", line)?;
                if last_t.is_some_and(|last| t < last) {
                    return Err(SchemaError {
                        line,
                        message: format!(
                            "event timestamp {t} goes backwards (previous {})",
                            last_t.unwrap()
                        ),
                    });
                }
                last_t = Some(t);
                match k {
                    "reset" | "elected" | "join" | "leave" | "hibernate" | "revive" => {
                        require_u64(&map, "agent", line)?;
                    }
                    "phase_enter" => {
                        require_u64(&map, "agent", line)?;
                        require_u64(&map, "phase", line)?;
                    }
                    "rank_claim" | "rank_release" => {
                        require_u64(&map, "agent", line)?;
                        require_u64(&map, "rank", line)?;
                    }
                    "fault" => {
                        let hit = require_u64(&map, "hit", line)?;
                        let name = match map.get("name") {
                            Some(Value::Str(s)) => Some(s.clone()),
                            Some(Value::Null) | None => None,
                            _ => {
                                return Err(SchemaError {
                                    line,
                                    message: "fault \"name\" must be a string or null".into(),
                                })
                            }
                        };
                        let _ = hit;
                        summary.faults.push((t, name));
                    }
                    "checkpoint" => {
                        if !matches!(map.get("stopping"), Some(Value::Bool(_))) {
                            return Err(SchemaError {
                                line,
                                message: "checkpoint missing boolean \"stopping\"".into(),
                            });
                        }
                    }
                    _ => unreachable!(),
                }
                summary.events += 1;
                *summary.by_kind.entry(kind).or_insert(0) += 1;
                summary.t_range = Some(match summary.t_range {
                    None => (t, t),
                    Some((lo, _)) => (lo, t),
                });
            }
            other => {
                return Err(SchemaError {
                    line,
                    message: format!("unknown kind \"{other}\""),
                })
            }
        }
    }
    if !seen_header {
        return Err(SchemaError {
            line: 1,
            message: "empty trace (no header)".into(),
        });
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                t: 10,
                agent: 3,
                kind: EventKind::Reset,
            },
            Event {
                t: 10,
                agent: 9,
                kind: EventKind::RankClaim { rank: 4 },
            },
            Event {
                t: 25,
                agent: NO_AGENT,
                kind: EventKind::Fault {
                    hit: 7,
                    name: Some("corrupt"),
                },
            },
            Event {
                t: 40,
                agent: NO_AGENT,
                kind: EventKind::Checkpoint { stopping: true },
            },
            Event {
                t: 41,
                agent: 17,
                kind: EventKind::Join,
            },
            Event {
                t: 55,
                agent: 17,
                kind: EventKind::Leave,
            },
            Event {
                t: 55,
                agent: 2,
                kind: EventKind::Hibernate,
            },
            Event {
                t: 60,
                agent: 2,
                kind: EventKind::Revive,
            },
        ]
    }

    #[test]
    fn rendered_traces_validate() {
        let mut reg = Registry::new();
        reg.counter("resets_triggered").add(5);
        reg.histogram("reset_interval").record(100);
        let text = render_trace(&sample_events(), &[reg.snapshot()], None, 2);
        let summary = validate(&text).expect("must validate");
        assert_eq!(summary.version, SCHEMA_VERSION);
        assert_eq!(summary.events, 8);
        assert_eq!(summary.dropped, 2);
        assert_eq!(summary.t_range, Some((10, 60)));
        assert_eq!(summary.by_kind["reset"], 1);
        assert_eq!(summary.by_kind["join"], 1);
        assert_eq!(summary.by_kind["leave"], 1);
        assert_eq!(summary.by_kind["hibernate"], 1);
        assert_eq!(summary.by_kind["revive"], 1);
        assert_eq!(summary.faults, vec![(25, Some("corrupt".to_string()))]);
    }

    #[test]
    fn manifest_line_renders_and_validates() {
        let m = RunManifest {
            experiment: "engine_throughput".into(),
            args: vec![("sizes".into(), "10000".into())],
            flags: vec!["smoke".into()],
            git_rev: "abc123".into(),
            rustc: "rustc 1.0".into(),
            host_cores: 8,
            unix_time_s: 1_700_000_000,
            schema_version: SCHEMA_VERSION,
        };
        let text = render_trace(&[], &[], Some(&m), 0);
        validate(&text).expect("must validate");
        assert!(text.contains("\"args\":\"sizes=10000 --smoke\""), "{text}");
    }

    #[test]
    fn backwards_timestamps_are_rejected() {
        let mut events = sample_events();
        events.swap(2, 4);
        let text = render_trace(&events, &[], None, 0);
        let err = validate(&text).unwrap_err();
        assert!(err.message.contains("backwards"), "{err}");
    }

    #[test]
    fn missing_fields_are_rejected() {
        let text = format!(
            "{}\n{}\n",
            "{\"kind\":\"header\",\"schema\":\"ssr-trace\",\"version\":3,\"events\":1,\"dropped\":0}",
            "{\"kind\":\"rank_claim\",\"t\":5,\"agent\":1}"
        );
        let err = validate(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("rank"), "{err}");
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = "{\"kind\":\"header\",\"schema\":\"ssr-trace\",\"version\":99,\"events\":0,\"dropped\":0}\n";
        let err = validate(text).unwrap_err();
        assert!(err.message.contains("version 99"), "{err}");
    }

    #[test]
    fn v3_event_lines_carry_no_shard_key_and_v2_is_refused() {
        assert_eq!(SCHEMA_VERSION, 3);
        let text = render_trace(&sample_events(), &[], None, 0);
        for line in text.lines().skip(1) {
            assert!(!parse_line(line).unwrap().contains_key("shard"), "{line}");
        }
        assert_eq!(validate(&text).expect("must validate").version, 3);
        let v2 = "{\"kind\":\"header\",\"schema\":\"ssr-trace\",\"version\":2,\"events\":1,\"dropped\":0}\n{\"kind\":\"reset\",\"t\":5,\"shard\":0,\"agent\":1}\n";
        let err = validate(v2).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(
            err.message
                .contains("schema version 2 (this build reads 3)"),
            "{err}"
        );
    }

    #[test]
    fn unknown_kinds_and_headerless_traces_are_rejected() {
        assert!(validate("").is_err());
        let text = "{\"kind\":\"header\",\"schema\":\"ssr-trace\",\"version\":3,\"events\":0,\"dropped\":0}\n{\"kind\":\"mystery\"}\n";
        let err = validate(text).unwrap_err();
        assert!(err.message.contains("unknown kind"), "{err}");
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let map = parse_line(
            "{\"kind\":\"metric\",\"name\":\"a\\\"b\\\\c\",\"value\":3,\"arr\":[[1,2],[3,4]],\"on\":true,\"x\":null}",
        )
        .unwrap();
        assert_eq!(map["name"].as_str(), Some("a\"b\\c"));
        assert_eq!(map["value"].as_u64(), Some(3));
        assert!(matches!(&map["arr"], Value::Arr(v) if v.len() == 2));
        assert_eq!(map["on"], Value::Bool(true));
        assert_eq!(map["x"], Value::Null);
        assert!(parse_line("{\"a\":1} junk").is_err());
        assert!(parse_line("not json").is_err());
    }
}
