//! The sharded simulator's API, run on the sequential engine.
//!
//! [`ShardedSimulator`] keeps the constructor of the sharded engine this
//! crate used to hold, over one [`Simulator`](population::Simulator): a
//! run with any shard and worker count follows the sequential engine's
//! trajectory for the same seed, through its block kernel and its silent
//! fast-forward. It implements [`Engine`](population::Engine) and
//! [`Capture`](population::Capture), so [`drive`](population::drive())
//! runs it under any hook set. The shard count only sets how often an
//! active [`Probe`](population::Probe) gets a block boundary; see
//! [`ShardedSimulator`].
//!
//! The lane-partitioned engine that followed a trajectory of its own
//! (per-shard scheduler lanes, boundary-pair exchange rounds) is gone:
//! on a 2-core host it was slower than the sequential engine in most
//! measured cells, and it was the only engine whose trajectory depended
//! on where runs split. Experiments spend cores across seeds instead
//! ([`population::runner::run_seeds`]).
//!
//! # Example
//!
//! ```
//! use population::{drive, NoFaults, NoPoll, NoSaves, NullProbe, Protocol, Simulator};
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
//! drive(&mut sim, 100_000, &mut NoFaults, &mut NoSaves, &mut NoPoll, &mut NullProbe);
//! assert!(sim.states().iter().all(|&s| s == 63));
//! let mut sequential = Simulator::new(Max, (0..64).collect(), 1);
//! sequential.run_batched(100_000);
//! assert_eq!(sim.states(), sequential.states());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;

pub use engine::ShardedSimulator;
