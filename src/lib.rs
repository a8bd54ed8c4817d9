//! # silent-ranking
//!
//! A from-scratch Rust reproduction of *Silent Self-Stabilizing Ranking:
//! Time Optimal and Space Efficient* (Berenbrink, Elsässer, Götte, Hintze,
//! Kaaser; ICDCS 2025).
//!
//! This facade crate re-exports the whole workspace so downstream users and
//! the examples can depend on a single crate:
//!
//! * [`population`] — the population-protocol simulation engine.
//! * [`leader_election`] — leader-election substrates (the Protocol 5
//!   lottery and the tournament substitute for the paper's black box).
//! * [`ranking`] — the paper's protocols: `SpaceEfficientRanking`
//!   (Theorem 1) and `StableRanking` (Theorem 2).
//! * [`baselines`] — comparison protocols from the related-work section.
//! * [`scenarios`] — fault injection, adversarial schedulers, and
//!   recovery-time measurement (sustained-fault workloads on top of the
//!   engine).
//! * [`shard`] — the sharded simulator API, a wrapper that runs the
//!   sequential engine's trajectory for every shard count.
//! * [`dynamic`] — dynamic populations: agent lifecycle
//!   (`Spawning → Active → Hibernating → Dormant → revived`), M/M/∞
//!   churn, epoch-based re-parameterization, and rank leasing, with a
//!   zero-churn path bit-identical to the fixed-n engine. See
//!   `docs/DYNAMICS.md`.
//! * [`snapshot`] — crash-consistent checkpoint/restore: versioned
//!   CRC-checked snapshot files, rotation directories with graceful
//!   fallback past corruption, corruption injection for testing, and
//!   bit-for-bit resume on every execution path. See
//!   `docs/DURABILITY.md`.
//! * [`telemetry`] — the flight-recorder observability layer: the
//!   [`Recorder`](telemetry::Recorder) probe (structured event traces in
//!   bounded ring buffers), the unified metrics registry
//!   (counters + log₂ histograms), JSONL trace schema, and run-provenance
//!   manifests. See `docs/OBSERVABILITY.md`.
//! * [`topology`] — interaction topologies: graph generators (ring,
//!   torus, geometric, regular/expander, preferential attachment),
//!   CSR adjacency with spectral-gap estimation, and the edge-restricted
//!   [`GraphSchedule`](topology::GraphSchedule) pair source. See
//!   `docs/TOPOLOGY.md`.
//! * [`analysis`] — statistics and tail-bound helpers used by experiments.
//!
//! # Quickstart
//!
//! ```
//! use silent_ranking::population::{is_valid_ranking, Simulator};
//! use silent_ranking::ranking::stable::StableRanking;
//! use silent_ranking::ranking::Params;
//!
//! // 32 agents, arbitrary garbage initial configuration (self-stabilizing!)
//! let protocol = StableRanking::new(Params::new(32));
//! let init = protocol.adversarial_uniform(12345);
//! let mut sim = Simulator::new(protocol, init, 1);
//! let stop = sim.run_until(|s| is_valid_ranking(s), 50_000_000, 32);
//! assert!(stop.converged_at().is_some());
//! ```

pub use analysis;
pub use baselines;
pub use dynamic;
pub use leader_election;
pub use population;
pub use ranking;
pub use scenarios;
pub use shard;
pub use snapshot;
pub use telemetry;
pub use topology;
