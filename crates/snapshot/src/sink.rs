//! [`SnapshotSink`]: the canonical [`Checkpointer`] — every save becomes
//! a durable snapshot file in a [`Rotation`] directory.
//!
//! Error policy: a save that still fails after the writer's bounded
//! retries is **counted and reported, never fatal** — losing one
//! checkpoint generation degrades durability (the next successful save
//! restores it), while panicking would lose the run itself, inverting
//! the crate's purpose. The cadence advances regardless, so a sick
//! filesystem cannot wedge the engine in a save loop.

use population::{Cadence, Checkpointer, FaultState, Frame};

use crate::format::{Meta, SimSnapshot};
use crate::rotation::Rotation;

/// A [`Checkpointer`] writing rotation files on an interaction-count
/// cadence.
#[derive(Debug)]
pub struct SnapshotSink {
    rotation: Rotation,
    cadence: Cadence,
    meta: Meta,
    /// Successful saves so far.
    pub saves: u64,
    /// Saves that failed even after retries (reported to stderr).
    pub failures: u64,
    last_saved: Option<u64>,
}

impl SnapshotSink {
    /// Save into `rotation` every `every` interactions, stamping each
    /// snapshot with `meta`.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn every(rotation: Rotation, every: u64, meta: Meta) -> Self {
        Self::with_cadence(rotation, Cadence::every(every), meta)
    }

    /// A sink for a run resumed at interaction count `now`: saves
    /// re-align to the same `every` grid the uninterrupted run used
    /// (first save strictly after `now`).
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn resumed(rotation: Rotation, every: u64, now: u64, meta: Meta) -> Self {
        Self::with_cadence(rotation, Cadence::resumed(every, now), meta)
    }

    fn with_cadence(rotation: Rotation, cadence: Cadence, meta: Meta) -> Self {
        Self {
            rotation,
            cadence,
            meta,
            saves: 0,
            failures: 0,
            last_saved: None,
        }
    }

    /// The rotation directory this sink writes into.
    pub fn rotation(&self) -> &Rotation {
        &self.rotation
    }

    /// The interaction count of the newest successful save, if any.
    pub fn last_saved(&self) -> Option<u64> {
        self.last_saved
    }
}

impl Checkpointer for SnapshotSink {
    const ACTIVE: bool = true;

    fn next_due(&mut self, now: u64) -> Option<u64> {
        Some(self.cadence.next_due(now))
    }

    fn save(&mut self, frame: &Frame, fault: Option<&FaultState>) {
        self.save_section(frame, fault, &[]);
    }

    /// The engine's section becomes the snapshot's DYNPOP section.
    fn save_section(&mut self, frame: &Frame, fault: Option<&FaultState>, section: &[u8]) {
        self.cadence.advance(frame.interactions);
        let snapshot = SimSnapshot {
            meta: self.meta.clone(),
            frame: frame.clone(),
            fault: fault.cloned(),
            observer: Vec::new(),
            dynpop: section.to_vec(),
        };
        match self.rotation.save(&snapshot) {
            Ok(_) => {
                self.saves += 1;
                self.last_saved = Some(frame.interactions);
            }
            Err(e) => {
                self.failures += 1;
                eprintln!(
                    "snapshot save at t={} failed after retries: {e}",
                    frame.interactions
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::{MemoryCheckpointer, Simulator, WordState};

    /// A protocol whose state is its own word.
    struct Ident(usize);
    impl population::Protocol for Ident {
        type State = u64;
        fn n(&self) -> usize {
            self.0
        }
        fn transition(&self, u: &mut u64, v: &mut u64) -> bool {
            *u = u.wrapping_add(*v).rotate_left(7);
            true
        }
    }
    impl WordState for Ident {
        fn state_to_word(&self, s: &u64) -> u64 {
            *s
        }
        fn state_from_word(&self, w: u64) -> Result<u64, String> {
            Ok(w)
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ssr-sink-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sink_writes_frames_identical_to_memory_checkpointer() {
        let dir = scratch("frames");
        let rot = Rotation::open(&dir).unwrap();
        let mut sink = SnapshotSink::every(rot, 5_000, Meta::bare("sink-test", 7));
        let mut sim = Simulator::new(Ident(16), (0..16).collect(), 7);
        sim.run_checkpointed(12_000, &mut sink);
        assert_eq!(sink.saves, 2);
        assert_eq!(sink.failures, 0);
        assert_eq!(sink.last_saved(), Some(10_000));

        let mut reference = Simulator::new(Ident(16), (0..16).collect(), 7);
        let mut memory = MemoryCheckpointer::every(5_000);
        reference.run_checkpointed(12_000, &mut memory);

        let loaded = sink.rotation().latest_valid().expect("snapshots on disk");
        assert_eq!(loaded.snapshot.frame, memory.saved.last().unwrap().0);
        assert_eq!(loaded.snapshot.meta.label, "sink-test");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_directory_counts_failures_without_panicking() {
        let dir = scratch("broken");
        let rot = Rotation::open(&dir).unwrap();
        // Remove the directory out from under the sink: every save now
        // fails, the run must still complete.
        std::fs::remove_dir_all(&dir).unwrap();
        let mut sink = SnapshotSink::every(rot, 4_000, Meta::bare("sink-test", 7));
        let mut sim = Simulator::new(Ident(16), (0..16).collect(), 7);
        sim.run_checkpointed(9_000, &mut sink);
        assert_eq!(sim.interactions(), 9_000, "the run survives");
        assert_eq!(sink.saves, 0);
        assert_eq!(sink.failures, 2);
        assert_eq!(sink.last_saved(), None);
    }
}
