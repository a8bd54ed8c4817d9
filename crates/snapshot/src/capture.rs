//! Restore: turn a verified [`SimSnapshot`] back into a live engine.
//!
//! Decoding a file ([`SimSnapshot::decode`]) verifies *integrity* —
//! magic, version, CRCs, structure. This module adds the *semantic*
//! layer: every state word must decode through the protocol's
//! validating [`WordState`] codec (a CRC-clean snapshot of the wrong
//! experiment, or a maliciously crafted one, is still rejected), the
//! configuration size must match the protocol, and the frame must hold
//! one cursor covering the whole population. Errors, never panics: a
//! snapshot that cannot be restored is a [`SnapshotError::Malformed`]
//! the caller can degrade on, exactly like a corrupt file.
//!
//! Fault-plan state rides along: [`restore_hook`] re-imports a
//! [`FaultState`] into a plan reconstructed from the same experiment
//! parameters.

use population::{CursorSource, FaultState, HookState, Schedule, Simulator, WordState};

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

/// Restore a sequential [`Simulator`] from `snapshot`. Requires a frame
/// with one cursor over the whole population: the engine has exactly
/// one pair stream. A frame of an older build's sharded engine holds one
/// cursor per lane, and no engine of this build continues its
/// trajectory.
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
/// [`ScheduleCursor::topo`](population::ScheduleCursor::topo)) resume
/// from the same `SSRSNAP` files as the uniform scheduler.
///
/// The word-level semantic validation (codec, size, cursor count and
/// range) is identical to [`resume_simulator`]; source-specific cursor
/// validation lives in the source's own `from_cursor` (which panics on a cursor
/// its type cannot represent — e.g. restoring a graph cursor as a
/// uniform [`Schedule`] or vice versa — so cross-source confusion is
/// loud, never silent).
pub fn resume_simulator_with<P: WordState, S: CursorSource>(
    protocol: P,
    snapshot: &SimSnapshot,
) -> Result<Simulator<P, S>, SnapshotError> {
    let frame = &snapshot.frame;
    let [cursor] = frame.cursors.as_slice() else {
        return Err(SnapshotError::Malformed(format!(
            "frame holds {} scheduler cursors, the engine resumes exactly one",
            frame.cursors.len()
        )));
    };
    let n = protocol.n() as u64;
    if (cursor.n, cursor.start, cursor.len) != (n, 0, n) {
        return Err(SnapshotError::Malformed(format!(
            "cursor covers {}..{} of n = {}, the engine draws from 0..{n} of n = {n}",
            cursor.start,
            cursor.start.saturating_add(cursor.len),
            cursor.n,
        )));
    }
    let states = decode_states(&protocol, &frame.words)?;
    let source = S::from_cursor(cursor.clone());
    Ok(Simulator::resume(
        protocol,
        states,
        source,
        frame.interactions,
    ))
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

    /// The two lane cursors an older build's 2-shard engine wrote for
    /// `sim`'s population, as a decoded snapshot holds them.
    fn two_lane_frame(sim: &Simulator<Ident, Schedule>) -> SimSnapshot {
        let mut snap = snapshot_of(sim);
        let n = snap.frame.words.len() as u64;
        let mut lanes = vec![snap.frame.cursors[0].clone(); 2];
        (lanes[0].start, lanes[0].len) = (0, n / 2);
        (lanes[1].start, lanes[1].len) = (n / 2, n - n / 2);
        lanes[1].rng[0] ^= 1;
        snap.frame.cursors = lanes;
        SimSnapshot::decode(&snap.encode()).expect("multi-cursor files decode")
    }

    #[test]
    fn malformed_frames_are_rejected_not_panicked() {
        let mut sim = Simulator::new(Ident(8), vec![0; 8], 3);
        sim.run_batched(100);
        let snap = snapshot_of(&sim);
        let malformed = |protocol: Ident, snap: &SimSnapshot| match resume_simulator(protocol, snap)
        {
            Err(SnapshotError::Malformed(why)) => why,
            other => panic!("expected a malformed-frame error, got {other:?}"),
        };
        // A frame of another population size.
        malformed(Ident(16), &snap);
        // A frame of an older build's 2-shard engine: the error names
        // the cursor count.
        let why = malformed(Ident(8), &two_lane_frame(&sim));
        assert!(why.contains("holds 2 scheduler cursors"), "{why}");
        // One cursor that covers only one lane of the population.
        let mut lane = two_lane_frame(&sim);
        lane.frame.cursors.truncate(1);
        let why = malformed(Ident(8), &lane);
        assert!(why.contains("covers 0..4 of n = 8"), "{why}");
    }
}
