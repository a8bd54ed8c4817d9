//! Sharded parallel simulation: a multi-threaded **single-run** engine
//! over partitioned state lanes.
//!
//! The `population` engine executes one run on one core; its `runner`
//! parallelizes across *seeds*. This crate parallelizes *within* a run:
//! the configuration stays one vector in agent-index order, and each run
//! call cuts it into per-shard lanes (contiguous slices; for packed
//! protocols, stretches of the flat word vector). Each shard
//! draws pairs from its own lane of the uniform scheduler
//! ([`Schedule::lane`](population::Schedule::lane), split by
//! [`partition::split`]), and cross-shard interactions
//! are resolved through a boundary-pair exchange protocol — see
//! [`ShardedSimulator`] for the full execution model, determinism
//! contract, and the `shards = 1 ≡ run_batched` equivalence.
//!
//! # Block lifecycle (phase / exchange)
//!
//! Time advances in blocks; every block runs two phases:
//!
//! 1. **Intra phase** — each shard draws its quota of pairs from its
//!    sub-stream and executes the pairs whose responder is local,
//!    lock-free and in draw order (lanes are disjoint). Pairs whose
//!    responder lives in another lane are deferred into a per-peer
//!    outbox.
//! 2. **Exchange phase** — deferred boundary pairs execute in a fixed
//!    round-robin tournament over shard pairs: each round is a set of
//!    disjoint matches, each match executed by one worker holding
//!    *both* lanes (first `a`'s deferred pairs into `b`, then `b`'s
//!    into `a`, each in draw order). Every interaction stays an atomic
//!    pairwise update; only the interleaving differs from a
//!    sequential run.
//!
//! Every worker runs the same block loop, the first on the calling
//! thread. Barriers separate the phases; within a phase every worker
//! touches only lanes it exclusively owns, which is why the trajectory is a
//! pure function of `(seed, shards, block size)` and never of the
//! worker count. `run_faulted` splits blocks at exact fault
//! interaction counts, and `run_observed` polls land between blocks at
//! exact interaction counts, so the `scenarios` fault plans and the
//! observer pipeline behave identically to the sequential engine.
//!
//! The engine plugs into every existing seam:
//!
//! * **state** — any [`Protocol`](population::Protocol) whose value is
//!   `Sync` (wrap a [`PackedProtocol`](population::PackedProtocol) in
//!   [`Packed`](population::Packed) to run over flat words);
//! * **observation** — whole-configuration
//!   [`Observer`](population::Observer)s read the configuration in
//!   place ([`ShardedSimulator::run_observed`]);
//! * **faults** — [`FaultHook`](population::FaultHook)s edit it in
//!   place at exact interaction counts
//!   ([`ShardedSimulator::run_faulted`]), so the `scenarios` crate's
//!   fault plans drive sharded runs unchanged.
//!
//! # Example
//!
//! ```
//! use population::Protocol;
//! use shard::ShardedSimulator;
//!
//! struct Max;
//! impl Protocol for Max {
//!     type State = u32;
//!     fn n(&self) -> usize {
//!         64
//!     }
//!     fn transition(&self, u: &mut u32, v: &mut u32) -> bool {
//!         let m = (*u).max(*v);
//!         let changed = *u != m || *v != m;
//!         *u = m;
//!         *v = m;
//!         changed
//!     }
//! }
//!
//! let mut sim = ShardedSimulator::new(Max, (0..64).collect(), 1, 4);
//! sim.run(100_000);
//! assert!(sim.states().iter().all(|&s| s == 63));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod partition;

pub use engine::ShardedSimulator;
