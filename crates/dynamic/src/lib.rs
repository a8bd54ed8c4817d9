//! Dynamic populations: ranking while `n` changes over time.
//!
//! The fixed-n engines in `population` assume the agent set is frozen
//! for the whole run. This crate lifts that assumption:
//!
//! * [`lifecycle`] — the per-agent phase machine
//!   (`Spawning → Active → Hibernating → Dormant → revived`) and the
//!   roster record that tracks agents across lane compaction;
//! * [`churn`] — the M/M/∞-style arrival/departure process: Poisson
//!   arrivals, exponential lifetimes, its own seeded RNG stream so the
//!   whole churn trajectory is a pure function of the seed;
//! * [`engine`] — [`DynamicPopulation`]: the dense-lane engine that
//!   composes churn with the existing seams (schedule cursors, probes,
//!   fault hooks, and the `Capture` checkpoint seam, whose section
//!   carries the DYNPOP bytes) and
//!   handles epoch-based re-parameterization plus rank leasing.
//!
//! The design invariant, property-tested in
//! `tests/dynamic_equivalence.rs`: **a zero-churn dynamic run is
//! bit-for-bit a fixed-n run** on both execution shapes. Churn is
//! purely additive machinery at block boundaries, never a perturbation
//! of the hot loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod engine;
pub mod lifecycle;

pub use churn::{ChurnConfig, ChurnProcess};
pub use engine::{DynRanking, DynamicPopulation, MIN_LIVE};
pub use lifecycle::{AgentRecord, Lifecycle};
