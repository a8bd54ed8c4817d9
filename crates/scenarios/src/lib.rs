//! Fault injection, adversarial scheduling, and recovery-time
//! measurement for the ranking protocols.
//!
//! The paper's headline claim (Theorem 2) is *self-stabilization*:
//! `StableRanking` reaches a silent, valid ranking from **any**
//! configuration. The rest of this repository exercises adversarial
//! *initial* states; this crate makes the adversary persistent —
//! corrupting state mid-run, replacing agents, biasing coins, and bending
//! the scheduler away from the uniform assumption — and measures how
//! long the protocol takes to climb back.
//!
//! # The four layers
//!
//! The three adversary axes escalate from transient to persistent, and
//! the fourth layer measures the climb back:
//!
//! * **Fault injection** ([`fault`]) — *transient* state adversity:
//!   composable [`fault::Fault`] injectors bound to firing schedules by
//!   a [`fault::FaultPlan`] (exact interaction counts, fixed periods,
//!   or stochastic rates). The plan implements
//!   [`population::FaultHook`], so the run driver
//!   ([`population::drive`](fn@population::drive)) splits its batched
//!   loop at exactly the scheduled counts. An empty plan is bit-for-bit
//!   trajectory-equivalent to
//!   [`run_batched`](population::Simulator::run_batched).
//!   Ready-made injectors for `StableRanking` (corruption, churn, rank
//!   duplication/erasure, coin bias, full randomization) live in
//!   [`ranking_faults`]. The plan lifecycle is: build fluently (`once` /
//!   `periodic` / `poisson`) → the engine asks
//!   [`peek_next`](fault::FaultPlan::peek_next) where to split → each
//!   firing corrupts the configuration and appends to the
//!   [`fired`](fault::FaultPlan::fired) log that recovery measurement
//!   consumes.
//! * **Adversarial schedulers** ([`sched`]) — *scheduler* adversity:
//!   [`sched::BiasedSchedule`], [`sched::ClusteredSchedule`], and
//!   [`sched::RoundRobinSchedule`] implement
//!   [`population::PairSource`], plugging into the engine via
//!   [`Simulator::with_source`](population::Simulator::with_source).
//! * **Byzantine agents** ([`byzantine`]) — *persistent* agent
//!   adversity: the [`byzantine::Byzantine`] wrapper designates `k`
//!   agents as adversaries following a pluggable
//!   [`byzantine::Strategy`] (ready-made `StableRanking` strategies in
//!   [`ranking_byz`]); honest-subset stabilization is observed with
//!   [`population::HonestRanking`] and classified exhaustively at tiny
//!   `n` by [`byzantine::classify`].
//! * **Recovery measurement** ([`recovery`]) — [`recovery::Recovery`]
//!   pairs each fired fault with the first checkpoint at which legality
//!   holds again; [`recovery::run_recovery`] is the driver the `recovery`
//!   bench binary (and `BENCH_recovery.json`) is built on — over any
//!   engine, sequential, sharded or dynamic (fault plans fire at the
//!   same exact interaction counts on each) — and
//!   [`traced::run_recovery_traced`] is the same driver with a
//!   [`telemetry::Recorder`] riding the engine's probe seam — a
//!   structured event trace and metrics alongside the recovery log.
//!
//! # Example: inject, recover, measure
//!
//! ```
//! use population::{is_valid_ranking, Simulator};
//! use ranking::stable::StableRanking;
//! use ranking::Params;
//! use scenarios::{ranking_faults, FaultPlan, Recovery, run_recovery};
//!
//! let n = 16;
//! let protocol = StableRanking::new(Params::new(n));
//! let plan_protocol = protocol.clone();
//! // Start silent and legal, then corrupt 4 agents after 100 interactions.
//! let mut sim = Simulator::new(protocol, plan_protocol.legal(), 7);
//! let mut plan = FaultPlan::new(1).once(100, ranking_faults::corrupt(&plan_protocol, 4));
//! let mut recovery = Recovery::new(|_: &StableRanking, s: &[_]| is_valid_ranking(s));
//! run_recovery(&mut sim, &mut plan, &mut recovery, 50_000_000, n as u64);
//!
//! let event = &recovery.events()[0];
//! assert_eq!(event.injected_at, 100);
//! assert!(event.recovery_interactions().is_some(), "Theorem 2 in action");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
pub mod fault;
pub mod ranking_byz;
pub mod ranking_faults;
pub mod recovery;
pub mod sched;
pub mod traced;
mod util;

pub use byzantine::{
    classify, run_honest, ByzState, Byzantine, Classification, Strategy, Tolerance,
};
pub use fault::{DuplicateRank, EraseRank, Fault, FaultPlan, FiredFault, MapStates, StateRewrite};
pub use recovery::{run_recovery, Recovery, RecoveryEvent};
pub use sched::{BiasedSchedule, ClusteredSchedule, RoundRobinSchedule};
pub use traced::run_recovery_traced;
