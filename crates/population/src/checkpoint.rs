//! The checkpoint/restore seam: word-level state serialization
//! ([`WordState`]), portable run position capture ([`Frame`]), fault-hook
//! state export ([`HookState`]), and the [`Checkpointer`] driver hook.
//!
//! Like the [`Probe`](crate::Probe) seam, checkpointing is **zero-cost
//! when off**: the run driver ([`drive`](fn@crate::drive)) gates on
//! [`Saves::ACTIVE`](crate::Saves::ACTIVE), so for
//! [`NoSaves`](crate::NoSaves) the save calls compile away and the hot
//! path is not a loop of no-op saves.
//!
//! The seam deliberately knows nothing about files, formats, or
//! checksums — a [`Checkpointer`] receives a [`Frame`] (interaction
//! count, packed state words, scheduler cursors), an optional
//! [`FaultState`] and the engine's opaque section (non-empty only on the
//! dynamic engine) and does whatever durability means to it. The
//! `snapshot` crate's sink is the canonical implementation: versioned
//! CRC-checked files in a rotation directory. Keeping the seam here (the
//! bottom of the crate graph) is what lets `Simulator`,
//! the `dynamic` engine, and the `scenarios` drivers all thread through it
//! without a dependency cycle.
//!
//! The keystone property the seam exists to uphold: **a run restored
//! from a frame at interaction count `t` continues bit-for-bit
//! identically to the run that produced the frame.** Every piece of
//! trajectory-determining state is in the frame (configuration
//! words, scheduler RNG + pending pairs), in the engine's section, or in
//! the fault state (plan RNG, per-entry next-fire times); nothing is
//! hidden.

use crate::protocol::Protocol;
use crate::schedule::ScheduleCursor;

/// Protocols whose per-agent state round-trips through a `u64` word —
/// the state-serialization half of the checkpoint seam.
///
/// Encoding is infallible (every in-memory state has a word form);
/// decoding is **fallible and validating**, because snapshot words come
/// from disk: [`state_from_word`](WordState::state_from_word) must
/// reject any word that is not the exact encoding of a state in the
/// protocol's state space for its parameters, rather than panic or
/// silently accept garbage. This is the paper's *silence* dividend made
/// concrete — the state space is a closed, locally checkable predicate,
/// so restored state can be validated, not just trusted.
///
/// Both StableRanking execution shapes (enum, packed kernel) implement
/// this against the same packed codec, which is what makes their
/// snapshots interchangeable: a snapshot written by a kernel run
/// restores into an enum run and vice versa.
pub trait WordState: Protocol {
    /// Encode one agent state as a word.
    fn state_to_word(&self, state: &Self::State) -> u64;

    /// Decode and validate one word. Returns a description of the
    /// defect (for error reporting) if the word is not the exact
    /// encoding of a valid state for this protocol's parameters.
    fn state_from_word(&self, word: u64) -> Result<Self::State, String>;
}

/// Packed runs serialize through the inner protocol's codec: encoding
/// unpacks the word to the structured state and re-encodes it (a no-op
/// composition for a lossless codec, paid only at checkpoint
/// boundaries), and decoding validates through the inner protocol
/// before re-packing — so the packed path gets the same
/// reject-garbage-words guarantee as the structured one.
impl<P> WordState for crate::Packed<P>
where
    P: crate::PackedProtocol + WordState,
{
    fn state_to_word(&self, state: &P::Packed) -> u64 {
        self.inner().state_to_word(&self.inner().unpack(*state))
    }

    fn state_from_word(&self, word: u64) -> Result<P::Packed, String> {
        self.inner()
            .state_from_word(word)
            .map(|s| self.inner().pack(&s))
    }
}

/// A portable capture of a run's position: everything the engine itself
/// contributes to the trajectory.
///
/// Every engine writes exactly one cursor. Frames decoded from an older
/// build's sharded engine hold one per lane, and no engine resumes them.
/// Fault-plan state travels separately (see [`FaultState`]) because the
/// hook is owned by the caller, not the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Interactions executed when the frame was captured.
    pub interactions: u64,
    /// The configuration, one encoded word per agent.
    pub words: Vec<u64>,
    /// Scheduler position.
    pub cursors: Vec<ScheduleCursor>,
}

/// Serialized fault-hook state: the plan RNG, per-entry next-fire
/// times, and the fired log — everything a `FaultPlan` needs to resume
/// mid-plan without replaying its draw history.
///
/// Fired-fault names are owned `String`s here (the plan's log holds
/// `&'static str`); import re-interns them against the reconstructed
/// plan's entry names.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultState {
    /// Raw xoshiro256++ state words of the plan's RNG.
    pub rng: [u64; 4],
    /// Per-entry next-fire time, in entry order; `None` for exhausted
    /// entries.
    pub next: Vec<Option<u64>>,
    /// The fired log: `(interaction count, fault name)` per firing.
    pub fired: Vec<(u64, String)>,
}

/// Fault hooks whose trajectory-determining state can be exported into
/// a [`FaultState`] and restored — the fault half of the checkpoint
/// seam. [`NoFaults`](crate::NoFaults) exports nothing;
/// `scenarios::FaultPlan` is the canonical stateful implementation, and
/// [`UnpackedHook`](crate::UnpackedHook) delegates to its inner hook.
pub trait HookState {
    /// Capture the hook's state, or `None` if the hook is stateless.
    fn export_state(&self) -> Option<FaultState>;

    /// Restore a previously exported state into this hook. The hook
    /// must already be *structurally* identical to the one that
    /// exported (same entries in the same order — reconstructed from
    /// the same experiment parameters); this call restores only the
    /// dynamic position. Returns a description of the mismatch on
    /// structural disagreement.
    fn import_state(&mut self, state: &FaultState) -> Result<(), String>;
}

impl HookState for crate::NoFaults {
    fn export_state(&self) -> Option<FaultState> {
        None
    }

    fn import_state(&mut self, state: &FaultState) -> Result<(), String> {
        if state.next.is_empty() && state.fired.is_empty() {
            Ok(())
        } else {
            Err("cannot import fault state into NoFaults".into())
        }
    }
}

impl<H: HookState> HookState for crate::UnpackedHook<H> {
    fn export_state(&self) -> Option<FaultState> {
        self.inner().export_state()
    }

    fn import_state(&mut self, state: &FaultState) -> Result<(), String> {
        self.inner_mut().import_state(state)
    }
}

/// The driver hook of the checkpoint seam: decides *when* to save
/// (interaction-count cadence, like [`FaultHook`](crate::FaultHook)'s
/// `next_fire`) and *what saving means* (the `snapshot` crate writes
/// rotation files; tests capture frames in memory).
///
/// Like `FaultHook::fire`, [`save`](Checkpointer::save) **must
/// advance**: after a save at `t`, `next_due(t)` must return a time
/// strictly greater than `t` (or `None`), or the engine would loop
/// forever. Saves never mutate the run, and checkpointed execution is
/// trajectory-inert: the pair stream is FIFO, so splitting bursts at
/// save points changes nothing.
pub trait Checkpointer {
    /// `false` makes the driver skip the saves slot, as it does for
    /// [`NoSaves`](crate::NoSaves): it then never asks for a due time, so
    /// the disabled seam costs nothing.
    const ACTIVE: bool;

    /// The earliest interaction count at (or after) `now` where the
    /// checkpointer wants a save, or `None` if it never will again.
    fn next_due(&mut self, now: u64) -> Option<u64>;

    /// Persist a frame (and the fault-hook state, if the run has one).
    fn save(&mut self, frame: &Frame, fault: Option<&FaultState>);

    /// Persist a frame with the engine's [section](crate::Capture::section)
    /// (the driver's save call). The default panics on a non-empty
    /// section rather than write a frame that cannot rebuild the run.
    fn save_section(&mut self, frame: &Frame, fault: Option<&FaultState>, section: &[u8]) {
        assert!(
            section.is_empty(),
            "this checkpointer cannot keep the engine's section; implement save_section"
        );
        self.save(frame, fault);
    }
}

/// An interaction-count save cadence: due at every positive multiple of
/// `every`. The standard [`Checkpointer`] scheduling policy — the
/// `snapshot` crate's sink embeds one; tests use it directly.
///
/// After a resume at interaction count `t`, [`Cadence::resumed`] aligns
/// the next due time to the first multiple of `every` strictly after
/// `t`, so a resumed run saves at the same grid points the uninterrupted
/// run would have.
#[derive(Debug, Clone, Copy)]
pub struct Cadence {
    every: u64,
    next: u64,
}

impl Cadence {
    /// A cadence due at `every`, `2·every`, `3·every`, ….
    ///
    /// # Panics
    ///
    /// Panics if `every == 0` (the save loop could never advance).
    pub fn every(every: u64) -> Self {
        assert!(every > 0, "checkpoint cadence must be positive");
        Self { every, next: every }
    }

    /// A cadence resuming at interaction count `now`: next due at the
    /// first multiple of `every` strictly after `now`.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn resumed(every: u64, now: u64) -> Self {
        assert!(every > 0, "checkpoint cadence must be positive");
        Self {
            every,
            next: (now / every + 1) * every,
        }
    }

    /// The next due time at (or after) `now`.
    pub fn next_due(&self, now: u64) -> u64 {
        self.next.max(now)
    }

    /// Record a completed save at `at`, advancing past it.
    pub fn advance(&mut self, at: u64) {
        self.next = (at / self.every + 1) * self.every;
    }
}

/// An in-memory [`Checkpointer`] that captures every frame it is handed
/// — the reference implementation used by the resume property tests
/// (and a worked example of the seam's contract).
#[derive(Debug)]
pub struct MemoryCheckpointer {
    cadence: Cadence,
    /// Every captured frame with its fault state, in save order.
    pub saved: Vec<(Frame, Option<FaultState>)>,
    /// The engine's section of each save, parallel to `saved`.
    pub sections: Vec<Vec<u8>>,
}

impl MemoryCheckpointer {
    /// Capture a frame every `every` interactions.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn every(every: u64) -> Self {
        Self {
            cadence: Cadence::every(every),
            saved: Vec::new(),
            sections: Vec::new(),
        }
    }
}

impl Checkpointer for MemoryCheckpointer {
    const ACTIVE: bool = true;

    fn next_due(&mut self, now: u64) -> Option<u64> {
        Some(self.cadence.next_due(now))
    }

    fn save(&mut self, frame: &Frame, fault: Option<&FaultState>) {
        self.save_section(frame, fault, &[]);
    }

    fn save_section(&mut self, frame: &Frame, fault: Option<&FaultState>, section: &[u8]) {
        self.cadence.advance(frame.interactions);
        self.saved.push((frame.clone(), fault.cloned()));
        self.sections.push(section.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_fires_on_the_grid() {
        let mut c = Cadence::every(100);
        assert_eq!(c.next_due(0), 100);
        assert_eq!(c.next_due(100), 100);
        c.advance(100);
        assert_eq!(c.next_due(100), 200);
        // A save past several grid points advances beyond all of them.
        c.advance(450);
        assert_eq!(c.next_due(450), 500);
    }

    #[test]
    fn resumed_cadence_realigns_to_the_grid() {
        // Resume at t = 250 with every = 100: next save at 300, exactly
        // where the uninterrupted run would have saved.
        let c = Cadence::resumed(100, 250);
        assert_eq!(c.next_due(250), 300);
        // Resume exactly on a grid point: next is the *following* one.
        let c = Cadence::resumed(100, 300);
        assert_eq!(c.next_due(300), 400);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_cadence_rejected() {
        let _ = Cadence::every(0);
    }

    #[test]
    fn no_faults_exports_nothing_and_rejects_foreign_state() {
        let mut hook = crate::NoFaults;
        assert_eq!(hook.export_state(), None);
        assert!(hook.import_state(&FaultState::default()).is_ok());
        let foreign = FaultState {
            rng: [1, 2, 3, 4],
            next: vec![Some(10)],
            fired: Vec::new(),
        };
        assert!(hook.import_state(&foreign).is_err());
    }
}
