//! Population-protocol simulation engine.
//!
//! This crate is the substrate on which the ranking protocols of the paper
//! *Silent Self-Stabilizing Ranking: Time Optimal and Space Efficient*
//! (ICDCS 2025) are executed. It implements the standard population-protocol
//! model: a population of `n` anonymous agents, each holding a state from a
//! protocol-defined state space; in every discrete time step an ordered pair
//! of distinct agents `(initiator, responder)` is drawn uniformly at random
//! and both update their states through a common transition function.
//!
//! # Architecture
//!
//! The engine is split into three orthogonal layers:
//!
//! * **Scheduling** — the [`schedule::PairSource`] trait produces the
//!   ordered pairs; [`schedule::Schedule`] is the canonical
//!   implementation (the paper's uniform scheduler), and adversarial
//!   sources (biased, clustered, round-robin — see the `scenarios`
//!   crate) plug into the same engine via
//!   [`Simulator::with_source`]. Every source serves the same pair
//!   stream one pair at a time (scalar stepping) or in cache-sized
//!   blocks (the batched hot path). A block is pre-sampled into a
//!   buffer, except where the uniform [`Schedule`] feeds a kernel that
//!   opts in to its pair feed ([`PairSource::pairs`], pulled through
//!   [`Protocol::transition_from`]): there each pair is drawn as the
//!   kernel consumes it. All styles consume the stream in FIFO order,
//!   so *every execution mode yields the identical trajectory for a
//!   given seed*.
//! * **Execution** — [`Simulator`] applies the protocol's transition
//!   function to scheduled pairs. [`Simulator::step`] executes one
//!   interaction; [`Simulator::run_batched`] is the hot path, executing
//!   interactions in blocks with no per-interaction bookkeeping. The two
//!   are bit-for-bit trajectory-equivalent under the same seed. The
//!   block loop is one function, [`advance_blocks`], which the `dynamic`
//!   crate's engine runs too, and the `shard` crate's API wraps a
//!   [`Simulator`].
//! * **Driving** — every `run*` method of every engine is one call into
//!   [`drive`](fn@drive), which splits a run wherever a fault, save,
//!   observer poll or engine event is due and lets each engine advance
//!   between those counts ([`Engine::advance`]); see [`drive`](mod@drive)
//!   for the hook order at a shared count.
//! * **Observation** — the [`observe::Observer`] pipeline. The engine
//!   polls observers at checkpoints (every `check_every` interactions);
//!   observers decide when to stop and what to record. Convergence
//!   predicates ([`observe::Convergence`]), time-series sampling
//!   ([`observe::Series`], [`observe::Sampler`]), and threshold crossings
//!   ([`observe::Thresholds`]) are all observers, and tuples of
//!   observers compose. The entry point is
//!   [`Simulator::run_observed`]; [`Simulator::run_until`] is sugar for
//!   the most common case.
//!   Orthogonal to observers, the [`Probe`] seam lets a flight recorder
//!   watch runs at block, checkpoint, fault and membership boundaries
//!   — read-only by construction, and compiled out entirely for
//!   [`NullProbe`] (the `telemetry` crate's `Recorder` is the canonical
//!   recording probe). At a block boundary the probe sees only the
//!   agents the block kernel marked as changed
//!   ([`Protocol::transition_from`] with `MARK`), after the whole
//!   configuration at the first boundary of each run segment.
//!
//! * **State representation** — protocols whose state space fits in a
//!   machine word implement [`PackedProtocol`]: a lossless codec, a
//!   transition over packed words, and an in-order *block kernel* over
//!   the flat word array. Wrapping such a protocol in [`Packed`] runs
//!   the whole simulation over a flat `Vec` of words
//!   (structure-of-arrays layout), hands every block to the kernel, and
//!   unpacks only at observation ([`observe::Unpacked`]) and fault
//!   ([`UnpackedHook`]) boundaries. The packed path is bit-for-bit
//!   trajectory-equivalent to the structured one — a pure optimization,
//!   exactly like batching — and the structured
//!   [`Protocol::transition`] stays the readable reference every
//!   equivalence test compares against.
//!
//! * **Silent fast-forward** — a silent protocol spends all its time on
//!   null interactions once it converges. When a protocol certifies
//!   that every pair of its configuration is null
//!   ([`Protocol::silent`]), [`Simulator`] and the `dynamic` crate's
//!   engine (both through [`advance_blocks`]) skip the rest of each run
//!   segment ([`Engine::advance`])
//!   instead of executing it. The pair source advances exactly as far
//!   as the segment would have drawn ([`PairSource::skip`]), and the
//!   protocol credits the skipped pairs to its instrumentation
//!   ([`Protocol::count_null`]). The uniform scheduler skips in O(1):
//!   it owes its xoshiro256++ generator the skipped draws and pays
//!   them with one O(log k) jump when the pair stream is next read, so
//!   a silent stretch run as many short segments costs one jump. Other
//!   sources draw and discard. A null pair changes no state, and the
//!   generator lands on the state `k` draws would reach (a cursor
//!   reports it settled, jumped on a copy), so states, cursors,
//!   snapshots and counters stay bit-for-bit those of the executing run
//!   (`tests/fast_forward.rs`). It applies only without
//!   an active [`Probe`], which must see every block boundary, and only to
//!   protocols with a certificate (`StableRanking` certifies a valid
//!   ranking); the engine retries a failed certificate after
//!   [`silence::RETRY_PER_AGENT`]`·n` interactions and drops it when a
//!   fault edits the configuration.
//!
//! # Components
//!
//! * [`Protocol`] — the transition function and population size.
//! * [`Simulator`] — the seeded, deterministic executor described above.
//! * [`drive`](mod@drive) — the run driver and its hook slots.
//! * [`schedule`] — the uniform scheduler with block pre-sampling and
//!   a lazily drawn pair feed.
//! * [`checkpoint`] — the checkpoint/restore seam: [`WordState`] state
//!   serialization, [`schedule::ScheduleCursor`] position capture, and
//!   the [`Checkpointer`] hook the driver calls at save points
//!   (zero-cost when off, like the [`Probe`] seam; the `snapshot` crate
//!   provides the durable implementation).
//! * [`observe`] — the composable observer pipeline.
//! * [`silence`] — an exhaustive checker for the *silent* property: a
//!   configuration is silent iff no ordered pair of agents would change
//!   state when interacting.
//! * [`runner`] — a scoped-thread fan-out for running many seeded
//!   simulations in parallel.
//! * [`modelcheck`] — exhaustive reachability exploration for tiny
//!   populations.
//! * [`primitives`] — self-contained reference protocols (one-way epidemic,
//!   synthetic coin) used to validate the substrate against the paper's
//!   Lemmas 14 and 28.
//!
//! # Example
//!
//! ```
//! use population::{Protocol, Simulator, StopReason};
//!
//! /// A one-way epidemic: state `true` means "infected".
//! struct Epidemic {
//!     n: usize,
//! }
//!
//! impl Protocol for Epidemic {
//!     type State = bool;
//!     fn n(&self) -> usize {
//!         self.n
//!     }
//!     fn transition(&self, u: &mut bool, v: &mut bool) -> bool {
//!         if *u && !*v {
//!             *v = true;
//!             return true;
//!         }
//!         false
//!     }
//! }
//!
//! let protocol = Epidemic { n: 50 };
//! let mut states = vec![false; 50];
//! states[0] = true;
//! let mut sim = Simulator::new(protocol, states, 7);
//! let stop = sim.run_until(|s| s.iter().all(|&i| i), 1_000_000, 50);
//! assert!(matches!(stop, StopReason::Converged(_)));
//! ```
//!
//! Observers compose where a closure-based API would force a bespoke
//! polling loop — e.g. sampling a time series *while* waiting for
//! convergence:
//!
//! ```
//! use population::observe::{Convergence, Series};
//! use population::primitives::epidemic::Epidemic;
//! use population::Simulator;
//!
//! let protocol = Epidemic::new(50);
//! let init = protocol.initial(50);
//! let mut sim = Simulator::new(protocol, init, 7);
//! let mut done = Convergence::new(Epidemic::complete);
//! let mut curve = Series::new(|s: &[_]| Epidemic::infected_count(s) as u64);
//! sim.run_observed(1_000_000, 50, &mut (&mut done, &mut curve));
//! assert!(done.converged_at().is_some());
//! assert!(curve.rows().len() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pairs;
mod probe;
mod protocol;
mod sim;

pub mod checkpoint;
pub mod drive;
pub mod modelcheck;
pub mod observe;
pub mod primitives;
pub mod runner;
pub mod schedule;
pub mod silence;

pub use checkpoint::{
    Cadence, Checkpointer, FaultState, Frame, HookState, MemoryCheckpointer, WordState,
};
pub use drive::{drive, Capture, Engine, Every, NoPoll, NoSaves, Poll, Saves};
pub use observe::{Control, HonestRanking, Observer};
pub use pairs::pair_mut;
pub use probe::{Membership, NullProbe, Probe};
pub use protocol::{HonestOutput, Packed, PackedProtocol, Protocol, RankOutput};
pub use schedule::{CursorSource, PairSource, Schedule, ScheduleCursor};
pub use sim::{advance_blocks, FaultHook, NoFaults, Simulator, StopReason, UnpackedHook};

/// Returns `true` iff the ranks output by `states` form a permutation of
/// `1..=n`, i.e. the configuration is a *valid ranking* (the paper's legal
/// set `C_L`).
///
/// Agents whose output is `None` (unranked) immediately disqualify the
/// configuration, as do duplicate or out-of-range ranks.
///
/// ```
/// use population::is_valid_ranking;
/// # struct R(u64);
/// # impl population::RankOutput for R {
/// #     fn rank(&self) -> Option<u64> { Some(self.0) }
/// # }
/// assert!(is_valid_ranking(&[R(2), R(1), R(3)]));
/// assert!(!is_valid_ranking(&[R(2), R(2), R(3)]));
/// ```
pub fn is_valid_ranking<S: RankOutput>(states: &[S]) -> bool {
    let n = states.len();
    let mut seen = vec![false; n];
    for s in states {
        match s.rank() {
            Some(r) if r >= 1 && (r as usize) <= n && !seen[r as usize - 1] => {
                seen[r as usize - 1] = true;
            }
            _ => return false,
        }
    }
    true
}

/// Number of agents currently holding a rank.
pub fn ranked_count<S: RankOutput>(states: &[S]) -> usize {
    states.iter().filter(|s| s.rank().is_some()).count()
}

/// Returns `true` iff every *honest* agent outputs a rank in `1..=n`
/// and no two honest agents share one — the stabilization target of a
/// population containing `k` persistent (Byzantine) adversaries.
///
/// `n` is the *total* population size (`states.len()`, adversaries
/// included): the honest agents must fit their ranks into the full rank
/// space, but nothing is demanded of the ranks adversaries *claim* —
/// an adversary squatting on a rank an honest agent also holds does not
/// disqualify the configuration here (the honest agents cannot tell,
/// and the protocol's duplicate detection will keep fighting it; that
/// ongoing fight is measured, not defined away). With `k = 0` this
/// predicate is exactly [`is_valid_ranking`] minus the permutation
/// completeness — and since `n` distinct in-range ranks over `n` agents
/// force a permutation, it *equals* [`is_valid_ranking`] then.
pub fn is_valid_honest_ranking<S: HonestOutput>(states: &[S]) -> bool {
    let n = states.len();
    let mut seen = vec![false; n];
    for s in states.iter().filter(|s| s.is_honest()) {
        match s.rank() {
            Some(r) if r >= 1 && (r as usize) <= n && !seen[r as usize - 1] => {
                seen[r as usize - 1] = true;
            }
            _ => return false,
        }
    }
    true
}

/// Returns `true` iff at least two agents output the same rank.
///
/// Ranks outside `1..=n` are compared by value, not lumped together: two
/// agents holding the *distinct* out-of-range ranks `n+1` and `n+2` are
/// not duplicates, while two agents both holding `n+5` are.
pub fn has_duplicate_rank<S: RankOutput>(states: &[S]) -> bool {
    let n = states.len();
    let mut seen = vec![false; n + 1];
    let mut out_of_range = Vec::new();
    for s in states {
        if let Some(r) = s.rank() {
            if r >= 1 && (r as usize) <= n {
                if seen[r as usize] {
                    return true;
                }
                seen[r as usize] = true;
            } else {
                out_of_range.push(r);
            }
        }
    }
    out_of_range.sort_unstable();
    out_of_range.windows(2).any(|w| w[0] == w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    struct R(Option<u64>);
    impl RankOutput for R {
        fn rank(&self) -> Option<u64> {
            self.0
        }
    }

    #[test]
    fn valid_ranking_accepts_permutation() {
        let states: Vec<R> = [3, 1, 2, 4].iter().map(|&r| R(Some(r))).collect();
        assert!(is_valid_ranking(&states));
    }

    #[test]
    fn valid_ranking_rejects_duplicate() {
        let states: Vec<R> = [1, 1, 2, 4].iter().map(|&r| R(Some(r))).collect();
        assert!(!is_valid_ranking(&states));
    }

    #[test]
    fn valid_ranking_rejects_out_of_range() {
        let states: Vec<R> = [1, 2, 5].iter().map(|&r| R(Some(r))).collect();
        assert!(!is_valid_ranking(&states));
        let zero: Vec<R> = [0, 1, 2].iter().map(|&r| R(Some(r))).collect();
        assert!(!is_valid_ranking(&zero));
    }

    #[test]
    fn valid_ranking_rejects_unranked() {
        let states = vec![R(Some(1)), R(None), R(Some(2))];
        assert!(!is_valid_ranking(&states));
        assert_eq!(ranked_count(&states), 2);
    }

    #[test]
    fn duplicate_rank_detection() {
        let dup = vec![R(Some(2)), R(None), R(Some(2))];
        assert!(has_duplicate_rank(&dup));
        let ok = vec![R(Some(2)), R(None), R(Some(1))];
        assert!(!has_duplicate_rank(&ok));
    }

    #[test]
    fn distinct_out_of_range_ranks_are_not_duplicates() {
        // Regression: the old implementation clamped every out-of-range
        // rank into the same bucket, reporting n+1 and n+2 as a
        // duplicate pair.
        let n_plus = vec![R(Some(4)), R(Some(5)), R(Some(1))];
        assert!(!has_duplicate_rank(&n_plus));
        let zero_and_high = vec![R(Some(0)), R(Some(9)), R(Some(1))];
        assert!(!has_duplicate_rank(&zero_and_high));
    }

    #[test]
    fn equal_out_of_range_ranks_are_duplicates() {
        let states = vec![R(Some(8)), R(Some(8)), R(Some(1))];
        assert!(has_duplicate_rank(&states));
        let zeros = vec![R(Some(0)), R(Some(0)), R(Some(1))];
        assert!(has_duplicate_rank(&zeros));
    }

    #[test]
    fn boundary_rank_n_is_in_range() {
        let states = vec![R(Some(3)), R(Some(3)), R(Some(1))];
        assert!(has_duplicate_rank(&states));
        let ok = vec![R(Some(3)), R(Some(2)), R(Some(1))];
        assert!(!has_duplicate_rank(&ok));
    }

    #[test]
    fn empty_population_is_trivially_valid() {
        let states: Vec<R> = Vec::new();
        assert!(is_valid_ranking(&states));
        assert!(!has_duplicate_rank(&states));
    }
}
