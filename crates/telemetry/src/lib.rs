//! Flight-recorder telemetry for the simulation engine: structured event
//! tracing, a unified metrics registry, and run-provenance manifests.
//!
//! The ROADMAP's long-lived workloads (churn, durability runs) are
//! exactly the ones you cannot re-run with printfs: the answer to "why
//! did the population reset at interaction 3.1e9" has to already be on
//! disk. This crate is the recording side of the engine's
//! [`Probe`](population::Probe) seam:
//!
//! * [`Recorder`] — the canonical recording probe. Derives structured
//!   events (resets, elections, rank claims/releases, phase entries,
//!   fault firings, observer checkpoints) by diffing per-agent
//!   [`AgentClass`]es at block boundaries, and stores them in one
//!   fixed-capacity *ring buffer* with a drop counter — flight-recorder
//!   semantics: bounded memory, newest events win, never an unbounded
//!   allocation in the hot loop.
//! * [`metrics`] — the unified registry of named [`Counter`]s and
//!   log₂-bucketed [`Histogram`]s. `StableRanking`'s reset counter and
//!   the kernel's dispatch mix live here (one source of truth), as do
//!   the recorder's derived statistics (time-between-reset-waves,
//!   per-rank occupancy dwell).
//! * [`schema`] — the versioned JSONL trace format
//!   ([`schema::SCHEMA_VERSION`]), its renderer, and a strict validator
//!   (field presence + monotone event timestamps) shared by the CI
//!   trace smoke and the `ssr-trace` summarizer binary in `bench`.
//! * [`manifest`] — [`RunManifest`]: the provenance block (git revision,
//!   rustc version, host cores, wall-clock, CLI args) the bench harness
//!   embeds in every `BENCH_*.json` artifact, replacing "measured on a
//!   1-core frequency-unstable host" prose caveats with recorded facts.
//!
//! Probing is *read-only and trajectory-inert* by construction (probes
//! see `&`-references only), and zero-cost when disabled: the unprobed
//! run is the run driver with `NullProbe` in the probe slot, whose
//! `ACTIVE = false` compiles every probe call away. Inertness is tested
//! bit-for-bit in `tests/telemetry_inert.rs`. See
//! `docs/OBSERVABILITY.md` for the event taxonomy and schema reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod manifest;
pub mod metrics;
pub mod recorder;
pub mod ring;
pub mod schema;

pub use event::{AgentClass, Event, EventKind, TraceState, NO_AGENT};
pub use manifest::RunManifest;
pub use metrics::{Counter, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use recorder::Recorder;
pub use ring::RingBuffer;
pub use schema::SCHEMA_VERSION;
