//! Snapshot-targeted fault injection: deliberately damage a snapshot
//! file the way real failures do, so the loader's detection and
//! fallback paths are exercised by tests and the CI corruption smoke
//! rather than trusted on faith.
//!
//! Four kinds, mirroring the failure taxonomy the format defends
//! against:
//!
//! * `torn` — truncate the file mid-section (a torn write that somehow
//!   reached the final name, or a crash during a non-atomic copy);
//! * `bitflip` — flip one payload bit (storage bit rot);
//! * `crc_flip` — flip a bit *inside the first section's CRC field*
//!   (metadata corruption: the payload is fine, the checksum lies);
//! * `stale_version` — overwrite the version field (a file from an
//!   incompatible build).
//!
//! Every kind produces a file [`SimSnapshot::decode`] must reject —
//! property-checked in this module and leaned on by
//! `tests/snapshot_resume.rs`.
//!
//! [`SimSnapshot::decode`]: crate::SimSnapshot::decode

use std::io;
use std::path::Path;

/// The injector kinds, in documentation order.
pub const KINDS: [&str; 4] = ["torn", "bitflip", "crc_flip", "stale_version"];

/// Offset of the version field (after the 8-byte magic).
const VERSION_OFF: usize = 8;
/// Offset of the first section's CRC field: magic + version +
/// n_sections + id + flags + len.
const FIRST_CRC_OFF: usize = 8 + 4 + 4 + 2 + 2 + 8;

/// Damage the snapshot file at `path` with injector `kind`. Returns a
/// human-readable description of what was done.
///
/// # Errors
///
/// I/O errors reading or writing the file, or a file too small to host
/// the requested corruption.
///
/// # Panics
///
/// Panics on a `kind` outside [`KINDS`].
pub fn inject(path: &Path, kind: &str) -> io::Result<String> {
    let mut bytes = std::fs::read(path)?;
    let small = |need: usize| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("file too small to inject (need > {need} bytes)"),
        )
    };
    let what = match kind {
        "torn" => {
            let keep = bytes.len() / 2;
            if keep == 0 {
                return Err(small(1));
            }
            bytes.truncate(keep);
            format!("truncated to {keep} bytes (torn write)")
        }
        "bitflip" => {
            // Flip a bit two thirds in: deep inside a payload, past the
            // header fields with their own dedicated kinds.
            let at = bytes.len() * 2 / 3;
            if at >= bytes.len() {
                return Err(small(2));
            }
            bytes[at] ^= 0x08;
            format!("flipped bit 3 of byte {at}")
        }
        "crc_flip" => {
            if bytes.len() <= FIRST_CRC_OFF {
                return Err(small(FIRST_CRC_OFF));
            }
            bytes[FIRST_CRC_OFF] ^= 0x01;
            format!("flipped bit 0 of the first section CRC (byte {FIRST_CRC_OFF})")
        }
        "stale_version" => {
            if bytes.len() < VERSION_OFF + 4 {
                return Err(small(VERSION_OFF + 4));
            }
            bytes[VERSION_OFF..VERSION_OFF + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            "overwrote the version field with 0xFFFFFFFF".to_string()
        }
        other => panic!("unknown injector kind {other} (see snapshot::inject::KINDS)"),
    };
    std::fs::write(path, &bytes)?;
    Ok(what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{Meta, SimSnapshot};
    use population::{Frame, ScheduleCursor};

    fn sample_file(name: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("ssr-inject-{}-{name}.ssr", std::process::id()));
        let snap = SimSnapshot {
            meta: Meta::bare("inject-test", 3),
            frame: Frame {
                interactions: 777,
                words: (0..64).collect(),
                cursors: vec![ScheduleCursor {
                    rng: [1, 2, 3, 4],
                    n: 64,
                    start: 0,
                    len: 64,
                    pending: Vec::new(),
                    topo: Vec::new(),
                }],
            },
            fault: None,
            observer: Vec::new(),
            dynpop: Vec::new(),
        };
        std::fs::write(&path, snap.encode()).unwrap();
        path
    }

    #[test]
    fn every_kind_produces_a_rejected_file() {
        for kind in KINDS {
            let path = sample_file(kind);
            assert!(SimSnapshot::read(&path).is_ok(), "pristine file loads");
            let what = inject(&path, kind).expect("inject");
            let err = SimSnapshot::read(&path)
                .err()
                .unwrap_or_else(|| panic!("{kind} ({what}) must be detected"));
            // Each kind lands in its intended error class.
            use crate::SnapshotError as E;
            match kind {
                // A cut can land mid-field (Truncated), mid-payload
                // (CrcMismatch), or exactly on a section boundary
                // (Malformed: a mandatory section is missing).
                "torn" => assert!(matches!(
                    err,
                    E::Truncated { .. } | E::CrcMismatch { .. } | E::Malformed(_)
                )),
                "bitflip" | "crc_flip" => assert!(matches!(err, E::CrcMismatch { .. })),
                "stale_version" => assert!(matches!(err, E::StaleVersion { .. })),
                _ => unreachable!(),
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    #[should_panic(expected = "unknown injector kind")]
    fn unknown_kind_panics() {
        let path = sample_file("unknown");
        let _ = inject(&path, "melt");
    }
}
