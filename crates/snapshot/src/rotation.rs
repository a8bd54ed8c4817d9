//! The snapshot rotation directory: `snap-<t>.ssr` files named by
//! interaction count, pruned to the newest K, loaded newest-valid-first.
//!
//! Keeping several generations is the second half of crash consistency:
//! the atomic writer guarantees each *file* is whole or absent, and the
//! rotation guarantees a *corrupted* file (bit rot, a torn write that
//! somehow survived rename, an injected fault in testing) degrades the
//! run to the previous snapshot instead of killing it —
//! [`Rotation::latest_valid`] walks newest to oldest, skipping anything
//! [`SimSnapshot::decode`] rejects, and reports what it skipped.

use std::io;
use std::path::{Path, PathBuf};

use crate::format::SimSnapshot;
use crate::writer::write_durable;
use crate::SnapshotError;

/// Snapshot file prefix.
const PREFIX: &str = "snap-";
/// Snapshot file extension.
const EXT: &str = "ssr";

/// Default number of snapshot generations kept on disk.
pub const DEFAULT_KEEP: usize = 4;

/// A directory of rotating snapshots.
#[derive(Debug, Clone)]
pub struct Rotation {
    dir: PathBuf,
    keep: usize,
}

/// The outcome of a [`Rotation::latest_valid`] scan.
#[derive(Debug)]
pub struct Loaded {
    /// The file the snapshot came from.
    pub path: PathBuf,
    /// The decoded snapshot.
    pub snapshot: SimSnapshot,
    /// Newer files that failed verification and were skipped, newest
    /// first, with the reason each was rejected.
    pub skipped: Vec<(PathBuf, SnapshotError)>,
}

impl Rotation {
    /// Open (creating if needed) a rotation directory keeping
    /// [`DEFAULT_KEEP`] generations.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::with_keep(dir, DEFAULT_KEEP)
    }

    /// Open a rotation directory keeping `keep` generations.
    ///
    /// # Panics
    ///
    /// Panics if `keep == 0` (a rotation that deletes everything it
    /// writes is a misconfiguration, not a policy).
    pub fn with_keep(dir: impl Into<PathBuf>, keep: usize) -> io::Result<Self> {
        assert!(keep >= 1, "rotation must keep at least one snapshot");
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir, keep })
    }

    /// The rotation directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path for a snapshot at interaction count `t`
    /// (zero-padded so lexicographic order is numeric order).
    pub fn path_for(&self, t: u64) -> PathBuf {
        self.dir.join(format!("{PREFIX}{t:020}.{EXT}"))
    }

    /// Write `snapshot` durably under its interaction count's name and
    /// prune old generations. Returns the written path.
    pub fn save(&self, snapshot: &SimSnapshot) -> io::Result<PathBuf> {
        let path = self.path_for(snapshot.frame.interactions);
        write_durable(&path, &snapshot.encode())?;
        self.prune();
        Ok(path)
    }

    /// Every snapshot file in the directory, oldest first. Non-snapshot
    /// names (including `.tmp` orphans of interrupted writes) are
    /// ignored.
    pub fn files(&self) -> Vec<PathBuf> {
        let mut out: Vec<PathBuf> = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|f| f.to_str())
                        .is_some_and(|f| f.starts_with(PREFIX) && f.ends_with(&format!(".{EXT}")))
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        out.sort();
        out
    }

    /// Load the newest snapshot that verifies, skipping (and reporting)
    /// corrupt ones. `None` if the directory holds no valid snapshot.
    pub fn latest_valid(&self) -> Option<Loaded> {
        let mut skipped = Vec::new();
        for path in self.files().into_iter().rev() {
            match SimSnapshot::read(&path) {
                Ok(snapshot) => {
                    return Some(Loaded {
                        path,
                        snapshot,
                        skipped,
                    })
                }
                Err(e) => skipped.push((path, e)),
            }
        }
        None
    }

    /// Delete all but the newest `keep` snapshots. Best-effort: an
    /// unremovable file is left for the next prune rather than failing
    /// the save that triggered it.
    fn prune(&self) {
        let files = self.files();
        if files.len() > self.keep {
            for old in &files[..files.len() - self.keep] {
                let _ = std::fs::remove_file(old);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Meta;
    use population::{Frame, ScheduleCursor};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ssr-rot-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn snap_at(t: u64) -> SimSnapshot {
        SimSnapshot {
            meta: Meta::bare("rotation-test", 7),
            frame: Frame {
                interactions: t,
                words: vec![t, t + 1],
                cursors: vec![ScheduleCursor {
                    rng: [t + 1, 0, 0, 0],
                    n: 2,
                    start: 0,
                    len: 2,
                    pending: Vec::new(),
                    topo: Vec::new(),
                }],
            },
            fault: None,
            observer: Vec::new(),
            dynpop: Vec::new(),
        }
    }

    #[test]
    fn saves_rotate_and_prune_to_keep() {
        let rot = Rotation::with_keep(scratch("prune"), 3).unwrap();
        for t in [100, 200, 300, 400, 500] {
            rot.save(&snap_at(t)).unwrap();
        }
        let names: Vec<_> = rot
            .files()
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(
            names,
            vec![
                "snap-00000000000000000300.ssr",
                "snap-00000000000000000400.ssr",
                "snap-00000000000000000500.ssr"
            ]
        );
        let _ = std::fs::remove_dir_all(rot.dir());
    }

    #[test]
    fn latest_valid_falls_back_past_corruption() {
        let rot = Rotation::open(scratch("fallback")).unwrap();
        for t in [100, 200, 300] {
            rot.save(&snap_at(t)).unwrap();
        }
        // Corrupt the newest two: truncate one, flip a payload bit in
        // the other.
        std::fs::write(rot.path_for(300), b"SSRSNAP\0trunc").unwrap();
        let mut bytes = std::fs::read(rot.path_for(200)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(rot.path_for(200), bytes).unwrap();

        let loaded = rot.latest_valid().expect("oldest snapshot still valid");
        assert_eq!(loaded.snapshot.frame.interactions, 100);
        assert_eq!(loaded.skipped.len(), 2);
        let _ = std::fs::remove_dir_all(rot.dir());
    }

    #[test]
    fn empty_or_fully_corrupt_directory_yields_none() {
        let rot = Rotation::open(scratch("empty")).unwrap();
        assert!(rot.latest_valid().is_none());
        rot.save(&snap_at(10)).unwrap();
        std::fs::write(rot.path_for(10), b"garbage").unwrap();
        assert!(rot.latest_valid().is_none());
        let _ = std::fs::remove_dir_all(rot.dir());
    }

    #[test]
    fn tmp_orphans_are_invisible_to_the_scan() {
        let rot = Rotation::open(scratch("orphan")).unwrap();
        rot.save(&snap_at(50)).unwrap();
        std::fs::write(rot.dir().join("snap-99.tmp"), b"half-written").unwrap();
        assert_eq!(rot.files().len(), 1);
        assert_eq!(rot.latest_valid().unwrap().snapshot.frame.interactions, 50);
        let _ = std::fs::remove_dir_all(rot.dir());
    }
}
