//! The versioned, checksummed snapshot file format.
//!
//! ```text
//! file    := magic(8) version(u32) n_sections(u32) section*
//! section := id(u16) flags(u16) len(u64) crc64(u64) payload(len bytes)
//! ```
//!
//! All integers little-endian. The per-section CRC-64/XZ covers the
//! section header (`id flags len`) *and* the payload, so each section is
//! independently verifiable — a loader can report *which* section a bit
//! flip hit, and no header byte is outside a checksum. Section ids:
//!
//! | id | section  | contents                                         |
//! |----|----------|--------------------------------------------------|
//! | 1  | META     | label, seed, run-provenance key/value pairs      |
//! | 2  | STATES   | interaction count, cursor count, block size, words|
//! | 3  | CURSORS  | scheduler cursors (RNG, pending pairs, topo spec)|
//! | 4  | FAULT    | fault-plan RNG, next-fire times, fired log       |
//! | 5  | OBSERVER | opaque driver bytes (no driver here writes them) |
//! | 6  | DYNPOP   | dynamic-population engine state (roster, leases) |
//!
//! META, STATES, and CURSORS are mandatory; FAULT, OBSERVER, and DYNPOP
//! appear only when the run carries them. No driver in this workspace
//! writes OBSERVER; a file that carries it still decodes, and the bytes
//! are kept in [`SimSnapshot::observer`]. Every engine writes one
//! cursor. STATES still records the cursor count (an older build's
//! sharded engine wrote one cursor per shard) and the block size
//! ([`BLOCK_PAIRS`]); the block size is read and ignored, since no
//! trajectory depends on it. Unknown section ids are *skipped*
//! (CRC still checked), so older readers degrade gracefully on newer
//! writers within a version.
//!
//! **Decoding never panics.** Every defect a file can have — wrong
//! magic, stale version, truncation anywhere, a CRC mismatch in any
//! section, a length prefix overrunning its section — surfaces as a
//! [`SnapshotError`], which is what lets the rotation loader fall back
//! to an older snapshot instead of dying.

use population::schedule::BLOCK_PAIRS;
use population::{FaultState, Frame, ScheduleCursor};
use telemetry::RunManifest;

use crate::bytes::{Reader, Writer};
use crate::crc::Crc64;

/// File magic: `SSRSNAP\0`.
pub const MAGIC: [u8; 8] = *b"SSRSNAP\0";

/// Current format version. Bump on any incompatible layout change; the
/// loader rejects other versions with
/// [`StaleVersion`](SnapshotError::StaleVersion).
///
/// History: v1 — the PR 8 original; v2 — each CURSORS entry gained a
/// trailing topology-spec word list (empty for uniform schedulers), so
/// graph-restricted pair sources can resume without serializing edges.
pub const SNAPSHOT_VERSION: u32 = 2;

const SECTION_META: u16 = 1;
const SECTION_STATES: u16 = 2;
const SECTION_CURSORS: u16 = 3;
const SECTION_FAULT: u16 = 4;
const SECTION_OBSERVER: u16 = 5;
const SECTION_DYNPOP: u16 = 6;

/// Everything that can be wrong with a snapshot file. The loader
/// reports, never panics: corrupt input is an expected condition here.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// A snapshot, but from an incompatible format version.
    StaleVersion {
        /// Version the file claims.
        found: u32,
    },
    /// Fewer bytes than a field needs — a torn write or truncation.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes the field needs.
        want: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A section's payload does not hash to its recorded CRC.
    CrcMismatch {
        /// The section that failed (name, or `"id <n>"` for unknown ids).
        section: String,
    },
    /// Structurally invalid content inside a CRC-clean section (bad
    /// length prefix, non-UTF-8 string, inconsistent counts, a state
    /// word outside the protocol's state space, …).
    Malformed(String),
    /// The underlying file could not be read.
    Io(std::io::Error),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            Self::StaleVersion { found } => write!(
                f,
                "snapshot version {found} is incompatible with this build (expects {SNAPSHOT_VERSION})"
            ),
            Self::Truncated { what, want, have } => {
                write!(f, "truncated {what}: need {want} bytes, have {have}")
            }
            Self::CrcMismatch { section } => write!(f, "CRC mismatch in {section} section"),
            Self::Malformed(why) => write!(f, "malformed snapshot: {why}"),
            Self::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Run identity and provenance, embedded in every snapshot so a file
/// found on disk is self-describing: which experiment wrote it, under
/// which seed, from which revision and toolchain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Meta {
    /// The writing experiment/driver name.
    pub label: String,
    /// The run seed (the trajectory key, together with shard count).
    pub seed: u64,
    /// Flattened [`RunManifest`] key/value pairs (git revision, rustc,
    /// arguments, …).
    pub provenance: Vec<(String, String)>,
}

impl Meta {
    /// A meta block for `label`/`seed` carrying `manifest`'s provenance.
    pub fn new(label: &str, seed: u64, manifest: &RunManifest) -> Self {
        let mut provenance = vec![
            ("experiment".to_string(), manifest.experiment.clone()),
            ("git_rev".to_string(), manifest.git_rev.clone()),
            ("rustc".to_string(), manifest.rustc.clone()),
            ("host_cores".to_string(), manifest.host_cores.to_string()),
            ("unix_time_s".to_string(), manifest.unix_time_s.to_string()),
            (
                "schema_version".to_string(),
                manifest.schema_version.to_string(),
            ),
        ];
        provenance.extend(manifest.args.iter().cloned());
        Self {
            label: label.to_string(),
            seed,
            provenance,
        }
    }

    /// A bare meta block without environment capture (tests, tools).
    pub fn bare(label: &str, seed: u64) -> Self {
        Self {
            label: label.to_string(),
            seed,
            provenance: Vec::new(),
        }
    }
}

/// One decoded snapshot: run identity, engine frame, and the optional
/// fault-hook and driver payloads.
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    /// Run identity and provenance.
    pub meta: Meta,
    /// The engine's position (interactions, words, cursors).
    pub frame: Frame,
    /// Fault-hook state, for runs under a fault plan.
    pub fault: Option<FaultState>,
    /// Opaque driver bytes from the OBSERVER section. No driver here
    /// writes them; a file that carries them keeps them on decode.
    pub observer: Vec<u8>,
    /// Dynamic-population engine state (epoch, lifecycle roster, rank
    /// free-list, churn RNG cursor), encoded by `crates/dynamic`. Empty
    /// for fixed-n runs; the section is written only when non-empty.
    pub dynpop: Vec<u8>,
}

fn section(out: &mut Writer, id: u16, payload: &[u8]) {
    let mut head = Writer::new();
    head.u16(id);
    head.u16(0); // flags, reserved
    head.u64(payload.len() as u64);
    let head = head.into_bytes();
    let mut crc = Crc64::new();
    crc.update(&head);
    crc.update(payload);
    out.bytes(&head);
    out.u64(crc.finish());
    out.bytes(payload);
}

fn encode_meta(meta: &Meta) -> Vec<u8> {
    let mut w = Writer::new();
    w.string(&meta.label);
    w.u64(meta.seed);
    w.u32(meta.provenance.len() as u32);
    for (k, v) in &meta.provenance {
        w.string(k);
        w.string(v);
    }
    w.into_bytes()
}

fn decode_meta(payload: &[u8]) -> Result<Meta, SnapshotError> {
    let mut r = Reader::new(payload, "META section");
    let label = r.string()?;
    let seed = r.u64()?;
    let pairs = r.count(8)?;
    let mut provenance = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        provenance.push((r.string()?, r.string()?));
    }
    Ok(Meta {
        label,
        seed,
        provenance,
    })
}

fn encode_states(frame: &Frame) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(frame.interactions);
    w.u32(frame.cursors.len() as u32);
    w.u64(BLOCK_PAIRS as u64);
    w.u64(frame.words.len() as u64);
    for &word in &frame.words {
        w.u64(word);
    }
    w.into_bytes()
}

fn encode_cursors(cursors: &[ScheduleCursor]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(cursors.len() as u32);
    for c in cursors {
        for &s in &c.rng {
            w.u64(s);
        }
        w.u64(c.n);
        w.u64(c.start);
        w.u64(c.len);
        w.u32(c.pending.len() as u32);
        for &(i, j) in &c.pending {
            w.u32(i);
            w.u32(j);
        }
        w.u32(c.topo.len() as u32);
        for &word in &c.topo {
            w.u64(word);
        }
    }
    w.into_bytes()
}

fn decode_cursors(payload: &[u8]) -> Result<Vec<ScheduleCursor>, SnapshotError> {
    let mut r = Reader::new(payload, "CURSORS section");
    let count = r.count(4 * 8 + 3 * 8 + 4)?;
    let mut cursors = Vec::with_capacity(count);
    for _ in 0..count {
        let rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        if rng.iter().all(|&w| w == 0) {
            return Err(SnapshotError::Malformed(
                "cursor holds an all-zero RNG state".into(),
            ));
        }
        let (n, start, len) = (r.u64()?, r.u64()?, r.u64()?);
        let pending_len = r.count(8)?;
        let mut pending = Vec::with_capacity(pending_len);
        for _ in 0..pending_len {
            let (i, j) = (r.u32()?, r.u32()?);
            if i == j || u64::from(i.max(j)) >= n {
                return Err(SnapshotError::Malformed(format!(
                    "cursor holds pending pair ({i}, {j}) for {n} agents"
                )));
            }
            pending.push((i, j));
        }
        let topo_len = r.count(8)?;
        let mut topo = Vec::with_capacity(topo_len);
        for _ in 0..topo_len {
            topo.push(r.u64()?);
        }
        cursors.push(ScheduleCursor {
            rng,
            n,
            start,
            len,
            pending,
            topo,
        });
    }
    Ok(cursors)
}

fn encode_fault(fault: &FaultState) -> Vec<u8> {
    let mut w = Writer::new();
    for &s in &fault.rng {
        w.u64(s);
    }
    w.u32(fault.next.len() as u32);
    for next in &fault.next {
        match next {
            Some(t) => {
                w.u16(1);
                w.u64(*t);
            }
            None => w.u16(0),
        }
    }
    w.u32(fault.fired.len() as u32);
    for (at, name) in &fault.fired {
        w.u64(*at);
        w.string(name);
    }
    w.into_bytes()
}

fn decode_fault(payload: &[u8]) -> Result<FaultState, SnapshotError> {
    let mut r = Reader::new(payload, "FAULT section");
    let rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    let entries = r.count(2)?;
    let mut next = Vec::with_capacity(entries);
    for _ in 0..entries {
        next.push(match r.u16()? {
            0 => None,
            1 => Some(r.u64()?),
            tag => {
                return Err(SnapshotError::Malformed(format!(
                    "FAULT section: bad next-fire tag {tag}"
                )))
            }
        });
    }
    let fired_len = r.count(12)?;
    let mut fired = Vec::with_capacity(fired_len);
    for _ in 0..fired_len {
        let at = r.u64()?;
        fired.push((at, r.string()?));
    }
    Ok(FaultState { rng, next, fired })
}

impl SimSnapshot {
    /// Encode to the on-disk byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut sections = vec![
            (SECTION_META, encode_meta(&self.meta)),
            (SECTION_STATES, encode_states(&self.frame)),
            (SECTION_CURSORS, encode_cursors(&self.frame.cursors)),
        ];
        if let Some(fault) = &self.fault {
            sections.push((SECTION_FAULT, encode_fault(fault)));
        }
        if !self.observer.is_empty() {
            sections.push((SECTION_OBSERVER, self.observer.clone()));
        }
        if !self.dynpop.is_empty() {
            sections.push((SECTION_DYNPOP, self.dynpop.clone()));
        }
        let mut out = Writer::new();
        out.bytes(&MAGIC);
        out.u32(SNAPSHOT_VERSION);
        // The section count makes truncation at a section boundary
        // detectable — without it, losing a trailing optional section
        // would decode cleanly.
        out.u32(sections.len() as u32);
        for (id, payload) in &sections {
            section(&mut out, *id, payload);
        }
        out.into_bytes()
    }

    /// Decode and fully verify a snapshot from raw bytes: magic,
    /// version, every section's CRC, and structural consistency.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes, "snapshot file");
        if r.take(8)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::StaleVersion { found: version });
        }
        let n_sections = r.u32()?;
        let mut meta = None;
        let mut states: Option<(u64, u32, Vec<u64>)> = None;
        let mut cursors = None;
        let mut fault = None;
        let mut observer = Vec::new();
        let mut dynpop = Vec::new();
        for _ in 0..n_sections {
            let head = r.take(12)?;
            let mut h = Reader::new(head, "section header");
            let id = h.u16()?;
            let _flags = h.u16()?;
            let len = h.u64()? as usize;
            let crc = r.u64()?;
            let payload = r.take(len)?;
            let mut hasher = Crc64::new();
            hasher.update(head);
            hasher.update(payload);
            if hasher.finish() != crc {
                return Err(SnapshotError::CrcMismatch {
                    section: section_name(id),
                });
            }
            match id {
                SECTION_META => meta = Some(decode_meta(payload)?),
                SECTION_STATES => {
                    let mut s = Reader::new(payload, "STATES section");
                    let interactions = s.u64()?;
                    let shards = s.u32()?;
                    let _block_pairs = s.u64()?;
                    let count = s.u64()? as usize;
                    if count.saturating_mul(8) > s.remaining() {
                        return Err(SnapshotError::Malformed(format!(
                            "STATES section: word count {count} overruns the section"
                        )));
                    }
                    let mut words = Vec::with_capacity(count);
                    for _ in 0..count {
                        words.push(s.u64()?);
                    }
                    states = Some((interactions, shards, words));
                }
                SECTION_CURSORS => cursors = Some(decode_cursors(payload)?),
                SECTION_FAULT => fault = Some(decode_fault(payload)?),
                SECTION_OBSERVER => observer = payload.to_vec(),
                SECTION_DYNPOP => dynpop = payload.to_vec(),
                // Unknown sections: CRC already verified, content skipped.
                _ => {}
            }
        }
        if r.remaining() > 0 {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes after the last section",
                r.remaining()
            )));
        }
        let meta = meta.ok_or_else(|| SnapshotError::Malformed("missing META section".into()))?;
        let (interactions, shards, words) =
            states.ok_or_else(|| SnapshotError::Malformed("missing STATES section".into()))?;
        let cursors =
            cursors.ok_or_else(|| SnapshotError::Malformed("missing CURSORS section".into()))?;
        if cursors.len() != shards as usize {
            return Err(SnapshotError::Malformed(format!(
                "{} cursors, STATES records {shards}",
                cursors.len()
            )));
        }
        Ok(Self {
            meta,
            frame: Frame {
                interactions,
                words,
                cursors,
            },
            fault,
            observer,
            dynpop,
        })
    }

    /// Read and verify a snapshot file.
    pub fn read(path: &std::path::Path) -> Result<Self, SnapshotError> {
        Self::decode(&std::fs::read(path)?)
    }
}

fn section_name(id: u16) -> String {
    match id {
        SECTION_META => "META".into(),
        SECTION_STATES => "STATES".into(),
        SECTION_CURSORS => "CURSORS".into(),
        SECTION_FAULT => "FAULT".into(),
        SECTION_OBSERVER => "OBSERVER".into(),
        SECTION_DYNPOP => "DYNPOP".into(),
        other => format!("id {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimSnapshot {
        SimSnapshot {
            meta: Meta {
                label: "unit".into(),
                seed: 42,
                provenance: vec![("git_rev".into(), "abc123".into())],
            },
            frame: Frame {
                interactions: 123_456,
                words: vec![0, 1 << 5, 7 << 5, u64::from(u32::MAX)],
                cursors: vec![
                    ScheduleCursor {
                        rng: [1, 2, 3, 4],
                        n: 4,
                        start: 0,
                        len: 2,
                        pending: vec![(0, 3)],
                        topo: vec![9, 10],
                    },
                    ScheduleCursor {
                        rng: [5, 6, 7, 8],
                        n: 4,
                        start: 2,
                        len: 2,
                        pending: Vec::new(),
                        topo: Vec::new(),
                    },
                ],
            },
            fault: Some(FaultState {
                rng: [9, 10, 11, 12],
                next: vec![Some(500), None],
                fired: vec![(100, "corrupt".into())],
            }),
            observer: vec![0xDE, 0xAD],
            dynpop: vec![0xBE, 0xEF, 0x01],
        }
    }

    #[test]
    fn encode_decode_round_trips_every_section() {
        let snap = sample();
        let decoded = SimSnapshot::decode(&snap.encode()).expect("round trip");
        assert_eq!(decoded.meta, snap.meta);
        assert_eq!(decoded.frame, snap.frame);
        assert_eq!(decoded.fault, snap.fault);
        assert_eq!(decoded.observer, snap.observer);
        assert_eq!(decoded.dynpop, snap.dynpop);
    }

    #[test]
    fn optional_sections_are_optional() {
        let mut snap = sample();
        snap.fault = None;
        snap.observer = Vec::new();
        snap.dynpop = Vec::new();
        let decoded = SimSnapshot::decode(&snap.encode()).expect("round trip");
        assert!(decoded.fault.is_none());
        assert!(decoded.observer.is_empty());
        assert!(decoded.dynpop.is_empty());
    }

    #[test]
    fn bad_magic_and_stale_version_are_distinct_errors() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            SimSnapshot::decode(&bytes),
            Err(SnapshotError::BadMagic)
        ));
        let mut bytes = sample().encode();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            SimSnapshot::decode(&bytes),
            Err(SnapshotError::StaleVersion { found: 99 })
        ));
    }

    #[test]
    fn every_truncation_point_errors_cleanly() {
        let bytes = sample().encode();
        // Chop the file at every length from empty to full-minus-one:
        // none may panic, all must error (decode at full length is Ok).
        for cut in 0..bytes.len() {
            assert!(
                SimSnapshot::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must error"
            );
        }
    }

    #[test]
    fn any_flipped_bit_is_caught() {
        let bytes = sample().encode();
        // Flip one bit in every byte of the file; decode must fail
        // (header bytes via magic/version/structure checks, payload
        // bytes via section CRCs).
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            assert!(
                SimSnapshot::decode(&corrupt).is_err(),
                "flip at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn cursor_count_must_match_the_states_section() {
        // STATES records two cursors, CURSORS holds one.
        let snap = sample();
        let mut out = Writer::new();
        out.bytes(&MAGIC);
        out.u32(SNAPSHOT_VERSION);
        out.u32(3);
        section(&mut out, SECTION_META, &encode_meta(&snap.meta));
        section(&mut out, SECTION_STATES, &encode_states(&snap.frame));
        section(
            &mut out,
            SECTION_CURSORS,
            &encode_cursors(&snap.frame.cursors[..1]),
        );
        assert!(matches!(
            SimSnapshot::decode(&out.into_bytes()),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn all_zero_cursor_rng_is_rejected() {
        let mut snap = sample();
        snap.frame.cursors[0].rng = [0; 4];
        assert!(matches!(
            SimSnapshot::decode(&snap.encode()),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn out_of_range_or_self_pending_pairs_are_rejected() {
        // The sample's cursors draw for 4 agents.
        for pair in [(3, 4), (4, 0), (2, 2)] {
            let mut snap = sample();
            snap.frame.cursors[1].pending = vec![(0, 1), pair];
            assert!(
                matches!(
                    SimSnapshot::decode(&snap.encode()),
                    Err(SnapshotError::Malformed(_))
                ),
                "pending pair {pair:?}"
            );
        }
    }
}
