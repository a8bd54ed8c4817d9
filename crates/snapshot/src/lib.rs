//! Crash-consistent checkpoint/restore for long self-stabilization runs.
//!
//! The paper's experiments live at scales (`n²·log n` interaction
//! budgets, adversarial sweeps over fault kinds) where a run can take
//! hours — and a preempted machine, an OOM kill, or a power cut used to
//! cost the whole trajectory. This crate makes runs **durable**: the
//! engine's checkpoint seam ([`population::Checkpointer`]) periodically
//! captures a [`Frame`](population::Frame) (state words + scheduler
//! cursors + interaction count), and this crate turns frames into
//! versioned, CRC-checked snapshot files written crash-consistently into
//! a rotation directory. The keystone property, enforced by
//! `tests/snapshot_resume.rs`: **a run resumed from a snapshot at
//! interaction count `t` is bit-for-bit identical to the run that never
//! crashed** — on the enum, kernel, sharded and dynamic execution
//! paths, under every fault injector.
//!
//! Components, bottom up:
//!
//! * [`crc`] — CRC-64/XZ, the per-section checksum (pinned to the
//!   published check value);
//! * [`bytes`] — the bounds-checked little-endian codec (reads from
//!   disk are fallible, never panicking);
//! * [`mod@format`] — the `SSRSNAP` file format: magic + version + CRC'd
//!   sections (META / STATES / CURSORS / FAULT / OBSERVER / DYNPOP), with
//!   [`SimSnapshot::decode`] detecting truncation, bit flips, and stale
//!   versions per section;
//! * [`writer`] — write-to-temp + fsync + atomic rename + directory
//!   fsync, with bounded retry;
//! * [`rotation`] — `snap-<t>.ssr` generations, pruned to the newest K,
//!   loaded newest-valid-first so corruption degrades instead of kills;
//! * [`sink`] — [`SnapshotSink`], the [`Checkpointer`] gluing cadence to
//!   rotation (save failures are counted, never fatal);
//! * [`capture`] — restore: snapshot → live [`Simulator`], every word
//!   re-validated through the protocol's
//!   [`WordState`](population::WordState) codec (the paper's
//!   silence dividend: the legal state space is checkable, so restored
//!   state is *verified*, not trusted);
//! * [`mod@inject`] — deliberate snapshot corruption (torn / bitflip /
//!   crc_flip / stale_version) for testing the loader's fallback ladder;
//! * [`sweep`] — [`SweepLog`], the append-only torn-tail-tolerant
//!   completion log for kill-and-resume sweeps.
//!
//! The `bench` crate's `run-forever` driver and `ssr-snap`
//! inspect/verify/inject tool sit on top; `docs/DURABILITY.md` walks the
//! whole design.
//!
//! [`Simulator`]: population::Simulator
//! [`Checkpointer`]: population::Checkpointer

pub mod bytes;
pub mod capture;
pub mod crc;
pub mod format;
pub mod inject;
pub mod rotation;
pub mod sink;
pub mod sweep;
pub mod writer;

pub use capture::{decode_states, restore_hook, resume_simulator, resume_simulator_with};
pub use crc::{crc64, Crc64};
pub use format::{Meta, SimSnapshot, SnapshotError, MAGIC, SNAPSHOT_VERSION};
pub use inject::inject;
pub use rotation::{Loaded, Rotation, DEFAULT_KEEP};
pub use sink::SnapshotSink;
pub use sweep::{SweepLog, UNRECOVERED};
pub use writer::write_durable;
