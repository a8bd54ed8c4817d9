//! Restore: turn a verified [`SimSnapshot`] back into a live engine.
//!
//! Decoding a file ([`SimSnapshot::decode`]) verifies *integrity* —
//! magic, version, CRCs, structure. This module adds the *semantic*
//! layer: every state word must decode through the protocol's
//! validating [`WordState`] codec (a CRC-clean snapshot of the wrong
//! experiment, or a maliciously crafted one, is still rejected), the
//! configuration size must match the protocol, and cursor geometry must
//! match the engine shape. Errors, never panics: a snapshot that cannot
//! be restored is a [`SnapshotError::Malformed`] the caller can degrade
//! on, exactly like a corrupt file.
//!
//! Fault-plan state rides along: [`restore_hook`] re-imports a
//! [`FaultState`] into a plan reconstructed from the same experiment
//! parameters.

use population::{
    CursorSource, FaultState, HookState, Schedule, ScheduleCursor, Simulator, WordState,
};
use shard::partition::bounds;
use shard::ShardedSimulator;

use crate::format::{SimSnapshot, SnapshotError};

/// Decode every state word through the protocol's validating codec.
pub fn decode_states<P: WordState>(
    protocol: &P,
    words: &[u64],
) -> Result<Vec<P::State>, SnapshotError> {
    if words.len() != protocol.n() {
        return Err(SnapshotError::Malformed(format!(
            "snapshot holds {} agents, protocol expects {}",
            words.len(),
            protocol.n()
        )));
    }
    words
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            protocol
                .state_from_word(w)
                .map_err(|why| SnapshotError::Malformed(format!("agent {i}: {why}")))
        })
        .collect()
}

fn check_cursor(
    cursor: &ScheduleCursor,
    n: usize,
    start: usize,
    end: usize,
) -> Result<(), SnapshotError> {
    if cursor.n != n as u64 || cursor.start != start as u64 || cursor.len != (end - start) as u64 {
        return Err(SnapshotError::Malformed(format!(
            "cursor covers {}..{} of n = {}, engine lane is {start}..{end} of n = {n}",
            cursor.start,
            cursor.start + cursor.len,
            cursor.n,
        )));
    }
    Ok(())
}

/// Restore a sequential [`Simulator`] from `snapshot`. Requires a
/// 1-shard frame (the sequential engine has exactly one pair stream).
pub fn resume_simulator<P: WordState>(
    protocol: P,
    snapshot: &SimSnapshot,
) -> Result<Simulator<P, Schedule>, SnapshotError> {
    resume_simulator_with::<P, Schedule>(protocol, snapshot)
}

/// [`resume_simulator`] generalized over the pair source: restore a
/// sequential [`Simulator`] whose source is any [`CursorSource`] — the
/// seam through which graph-restricted schedulers (the `topology`
/// crate's `GraphSchedule`, whose cursor carries its generator spec in
/// [`ScheduleCursor::topo`]) resume from the same `SSRSNAP` files as
/// the uniform scheduler.
///
/// The word-level semantic validation (codec, size, cursor geometry) is
/// identical to [`resume_simulator`]; source-specific cursor validation
/// lives in the source's own `from_cursor` (which panics on a cursor
/// its type cannot represent — e.g. restoring a graph cursor as a
/// uniform [`Schedule`] or vice versa — so cross-source confusion is
/// loud, never silent).
pub fn resume_simulator_with<P: WordState, S: CursorSource>(
    protocol: P,
    snapshot: &SimSnapshot,
) -> Result<Simulator<P, S>, SnapshotError> {
    let frame = &snapshot.frame;
    if frame.shards != 1 {
        return Err(SnapshotError::Malformed(format!(
            "cannot resume a {}-shard frame on the sequential engine",
            frame.shards
        )));
    }
    let n = protocol.n();
    check_cursor(&frame.cursors[0], n, 0, n)?;
    let states = decode_states(&protocol, &frame.words)?;
    let source = S::from_cursor(frame.cursors[0].clone());
    Ok(Simulator::resume(
        protocol,
        states,
        source,
        frame.interactions,
    ))
}

/// Restore a [`ShardedSimulator`] from `snapshot`: the frame's cursor
/// count is the shard count, each cursor validated against the balanced
/// lane bounds before the engine sees it, and the captured block size
/// re-applied (the sharded trajectory depends on it).
pub fn resume_sharded<P>(
    protocol: P,
    snapshot: &SimSnapshot,
) -> Result<ShardedSimulator<P>, SnapshotError>
where
    P: WordState + Sync,
    P::State: Send,
{
    let frame = &snapshot.frame;
    let n = protocol.n();
    let shards = frame.cursors.len();
    if shards == 0 || shards > n {
        return Err(SnapshotError::Malformed(format!(
            "frame has {shards} cursors for a population of {n}"
        )));
    }
    for (s, cursor) in frame.cursors.iter().enumerate() {
        let (start, end) = bounds(n, shards, s);
        check_cursor(cursor, n, start, end)?;
    }
    let states = decode_states(&protocol, &frame.words)?;
    let block_pairs = usize::try_from(frame.block_pairs)
        .ok()
        .filter(|&b| b >= 1)
        .ok_or_else(|| {
            SnapshotError::Malformed(format!("illegal block size {}", frame.block_pairs))
        })?;
    Ok(
        ShardedSimulator::resume(protocol, states, frame.cursors.clone(), frame.interactions)
            .with_block_pairs(block_pairs),
    )
}

/// Import `state` into a fault hook reconstructed from the same
/// experiment parameters, surfacing structural mismatch as a snapshot
/// error.
pub fn restore_hook<H: HookState>(hook: &mut H, state: &FaultState) -> Result<(), SnapshotError> {
    hook.import_state(state)
        .map_err(|why| SnapshotError::Malformed(format!("fault state: {why}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Meta;
    use population::Protocol;

    /// Identity-word protocol (any u64 is a legal state).
    #[derive(Debug)]
    struct Ident(usize);
    impl Protocol for Ident {
        type State = u64;
        fn n(&self) -> usize {
            self.0
        }
        fn transition(&self, u: &mut u64, v: &mut u64) -> bool {
            *u = u.wrapping_add(*v | 1);
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

    /// A protocol accepting only even words — for rejection tests.
    #[derive(Debug)]
    struct Even(usize);
    impl Protocol for Even {
        type State = u64;
        fn n(&self) -> usize {
            self.0
        }
        fn transition(&self, _u: &mut u64, _v: &mut u64) -> bool {
            false
        }
    }
    impl WordState for Even {
        fn state_to_word(&self, s: &u64) -> u64 {
            *s
        }
        fn state_from_word(&self, w: u64) -> Result<u64, String> {
            if w.is_multiple_of(2) {
                Ok(w)
            } else {
                Err(format!("odd word {w}"))
            }
        }
    }

    fn snapshot_of(sim: &Simulator<Ident, Schedule>) -> SimSnapshot {
        SimSnapshot {
            meta: Meta::bare("capture-test", 1),
            frame: sim.frame(),
            fault: None,
            observer: Vec::new(),
            dynpop: Vec::new(),
        }
    }

    #[test]
    fn simulator_round_trips_through_a_snapshot_file_image() {
        let mut reference = Simulator::new(Ident(32), (0..32).collect(), 9);
        reference.run_batched(10_000);
        let snap = snapshot_of(&reference);
        // Through the full byte codec, as if from disk.
        let decoded = SimSnapshot::decode(&snap.encode()).unwrap();
        let mut resumed = resume_simulator(Ident(32), &decoded).unwrap();
        reference.run_batched(10_000);
        resumed.run_batched(10_000);
        assert_eq!(resumed.states(), reference.states());
        assert_eq!(resumed.interactions(), reference.interactions());
    }

    #[test]
    fn semantic_validation_rejects_foreign_words() {
        let mut sim = Simulator::new(Ident(8), vec![2; 8], 3);
        sim.run_batched(1); // introduces odd words
        let snap = snapshot_of(&sim);
        let err = resume_simulator(Even(8), &snap).expect_err("odd words must be rejected");
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
    }

    #[test]
    fn wrong_population_size_is_rejected_not_panicked() {
        let mut sim = Simulator::new(Ident(8), vec![0; 8], 3);
        sim.run_batched(100);
        let snap = snapshot_of(&sim);
        assert!(matches!(
            resume_simulator(Ident(16), &snap),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn sharded_frames_refuse_the_sequential_engine_and_vice_versa() {
        let mut sharded = ShardedSimulator::new(Ident(16), (0..16).collect(), 5, 4);
        sharded.run(5_000);
        let snap = SimSnapshot {
            meta: Meta::bare("capture-test", 5),
            frame: sharded.frame(),
            fault: None,
            observer: Vec::new(),
            dynpop: Vec::new(),
        };
        assert!(matches!(
            resume_simulator(Ident(16), &snap),
            Err(SnapshotError::Malformed(_))
        ));
        // Nor does a single-cursor frame whose cursor covers only one
        // lane of the population.
        let mut lane = snap.clone();
        lane.frame.shards = 1;
        lane.frame.cursors.truncate(1);
        assert!(matches!(
            resume_simulator(Ident(16), &lane),
            Err(SnapshotError::Malformed(_))
        ));
        // And a frame whose cursors disagree with the balanced lanes is
        // caught before the engine's assertions could panic.
        let mut bad = snap.clone();
        bad.frame.cursors.swap(0, 1);
        assert!(matches!(
            resume_sharded(Ident(16), &bad),
            Err(SnapshotError::Malformed(_))
        ));
        // The pristine frame restores fine.
        let mut resumed = resume_sharded(Ident(16), &snap).unwrap();
        sharded.run(5_000);
        resumed.run(5_000);
        assert_eq!(resumed.states(), sharded.states());
    }
}
