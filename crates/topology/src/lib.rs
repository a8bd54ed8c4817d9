//! Interaction topologies: ranking beyond the clique.
//!
//! The paper — and every engine path in this workspace before this
//! crate — assumes the *uniform clique scheduler*: any ordered pair of
//! distinct agents may interact, uniformly at random. The silent
//! self-stabilization literature the paper sits in (BFS trees, MST,
//! spanning forests) instead lives on *graphs*, where only adjacent
//! agents ever communicate. This crate makes that restriction a
//! first-class scheduling choice:
//!
//! * [`Topology`] — an undirected simple graph in CSR (compressed
//!   sparse row) adjacency form, with degree/connectivity queries and a
//!   normalized-spectral-gap estimate (the quantity the stabilization
//!   time is expected to track);
//! * [`TopologySpec`] — the seeded, deterministic generator menu
//!   (ring, 2-D torus, random geometric, random regular ≈ expander,
//!   preferential attachment, complete-as-baseline). A spec is a pure
//!   value: `spec.build()` always returns the identical graph, which is
//!   what lets a scheduler cursor carry the *spec* instead of the edge
//!   list (see [`GraphSchedule`]'s checkpoint story);
//! * [`GraphSchedule`] — a [`population::PairSource`] drawing ordered
//!   interaction pairs **uniformly from the directed edges** of a
//!   topology, in O(1) per draw via an alias table ([`AliasTable`])
//!   over the degree distribution. On the complete graph this is
//!   statistically the uniform scheduler (property-tested by
//!   chi-square in `tests/topology_equivalence.rs`), so the clique
//!   baseline threads through the same code path as every restricted
//!   topology.
//!
//! Everything composes through the existing engine seams: plug a
//! [`GraphSchedule`] into
//! [`Simulator::with_source`](population::Simulator::with_source) and
//! every run mode — scalar, batched, observed, faulted, probed — works
//! unchanged; the [`population::CursorSource`] implementation threads
//! it through checkpoint/restore (`snapshot::resume_simulator_with`).
//! The sharded API (`shard::ShardedSimulator`) is the one seam that
//! takes no graph: it always builds its engine on the uniform
//! `Schedule`, so graph runs go through `Simulator::with_source`.
//!
//! See `docs/TOPOLOGY.md` for the abstraction guide and
//! `BENCH_topo.json` (the `topology` bench binary) for the measured
//! stabilization-vs-spectral-gap curve.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod graph;
pub mod schedule;

pub use alias::AliasTable;
pub use graph::{Topology, TopologySpec};
pub use schedule::GraphSchedule;
