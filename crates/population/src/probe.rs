//! The instrumentation seam: a read-only [`Probe`] the run driver
//! ([`drive`](fn@crate::drive)) and the engines' block loops invoke at
//! block, checkpoint, fault and membership boundaries. At block
//! boundaries a probe sees only the agents whose traced class may have
//! changed (see [`Probe::block`]), so a recorder's cost follows the
//! protocol's activity, not the population size.
//!
//! # Zero cost when disabled
//!
//! Probes are a compile-time seam, not a runtime one: the driver and
//! every engine's block loop are generic over the probe type and guard
//! each call with the associated constant [`Probe::ACTIVE`]. For
//! [`NullProbe`] (`ACTIVE = false`) the guards are constant-false, so a
//! `NullProbe` run is the unprobed block loop — the same machine code,
//! not a loop of no-op calls. The CI throughput smoke guards this
//! contract with a paired A/B measurement (`probe_floor`, default
//! `0.95×`).
//!
//! # Read-only by contract
//!
//! Probes receive `&`-references to the protocol and configuration and
//! can therefore never perturb a trajectory: a probed run is bit-for-bit
//! identical to its unprobed twin under the same seed, whatever the
//! probe records (property-tested in `tests/telemetry_inert.rs` at the
//! workspace root). The canonical recording implementation is the
//! `telemetry` crate's `Recorder`; this module deliberately contains no
//! recording machinery so the engine keeps zero telemetry dependencies.

use crate::protocol::Protocol;

/// A lifecycle change of one agent in a *dynamic* population — the
/// payload of [`Probe::membership`]. The fixed-n engines never emit
/// these; the `crates/dynamic` engine emits one per join, leave,
/// hibernation, and revival, and the `telemetry` crate's `Recorder`
/// maps them onto its structured event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Membership {
    /// A fresh agent entered the active lane.
    Join,
    /// An agent left the population for good (its rank, if any, was
    /// released by the engine).
    Leave,
    /// An agent left the active lane but may return (rank reserved).
    Hibernate,
    /// A dormant agent re-entered the active lane.
    Revive,
}

/// Observation hooks invoked by the probed run paths at the engine's
/// natural boundaries. All hooks are read-only: a probe can never change
/// what the engine computes, only record it.
///
/// Every method has a default empty body, so an implementation only
/// overrides the boundaries it cares about. Implementations that record
/// nothing at all should set [`ACTIVE`](Probe::ACTIVE) to `false` (as
/// [`NullProbe`] does) so the engine can statically skip probed
/// bookkeeping and run the unprobed hot path.
pub trait Probe<P: Protocol> {
    /// Whether this probe observes anything. When `false`, none of the
    /// methods below are ever called. This is an associated *constant*
    /// so the check monomorphizes away.
    const ACTIVE: bool = true;

    /// A block boundary: the engine's block loop
    /// ([`advance_blocks`](crate::advance_blocks)) stopped at
    /// interaction count `t`, after every block on [`Simulator`](crate::Simulator) and
    /// the dynamic engine, after every `shards` blocks on the sharded
    /// API, and at the end of every run segment. A boundary makes one or
    /// more calls, all with the same `t`:
    ///
    /// * the **first boundary of every run segment** (every call of the
    ///   block loop, so after any fault, lifecycle event, restore, or a
    ///   fresh probe) makes one call with `start = 0` and the whole
    ///   configuration as `lane`;
    /// * every **later boundary** makes one call per run of adjacent
    ///   agents the protocol marked since the previous boundary
    ///   ([`Protocol::transition_marked`]), in ascending index order,
    ///   with `start` the index of `lane[0]` and `lane` the marked
    ///   agents' states; with no agent marked it makes one call with an
    ///   empty lane. A protocol that does not mark marks every agent, so
    ///   its probe sees the whole configuration at every boundary.
    ///
    /// An agent outside every lane of a boundary kept its traced class
    /// since the previous boundary, so a probe that diffs per-agent
    /// classes sees every change by diffing only the lanes. `changed`
    /// is the number of state-changing interactions since the previous
    /// boundary (0 where the execution path does not track it), carried
    /// by the boundary's first call; the later calls carry 0. `shard`
    /// is 0 on every engine of this build. Event granularity is the
    /// boundary, mirroring the observer pipeline's `check_every`
    /// overshoot convention.
    fn block(
        &mut self,
        protocol: &P,
        t: u64,
        changed: u64,
        shard: usize,
        start: usize,
        lane: &[P::State],
    ) {
        let _ = (protocol, t, changed, shard, start, lane);
    }

    /// A sharded block's exchange rounds executed `pairs` cross-shard
    /// boundary pairs at interaction count `t`. No engine of this build
    /// calls it: the sharded engine that exchanged boundary pairs is
    /// retired, and its `shard` API runs the sequential engine.
    fn exchange(&mut self, protocol: &P, t: u64, pairs: u64) {
        let _ = (protocol, t, pairs);
    }

    /// An observer was polled at interaction count `t`. Fires exactly
    /// once per poll; `stopping` is true on the run's final poll,
    /// whether an observer stop or the end of the budget ends it.
    fn checkpoint(&mut self, protocol: &P, t: u64, stopping: bool) {
        let _ = (protocol, t, stopping);
    }

    /// A [`FaultHook`](crate::FaultHook) fired at interaction count `t`;
    /// `states` is the full configuration *after* the mutation. Probes
    /// that diff configurations should re-baseline here so fault damage
    /// is attributed to the fault, not misread as protocol activity.
    fn fault(&mut self, protocol: &P, t: u64, states: &[P::State]) {
        let _ = (protocol, t, states);
    }

    /// A dynamic-population engine changed agent `agent`'s membership at
    /// interaction count `t` (see [`Membership`]). `agent` is the
    /// engine's stable agent id, not a lane index — ids outlive lane
    /// compaction, so a probe can track one agent across hibernation
    /// and revival. Never called by the fixed-n engines.
    fn membership(&mut self, protocol: &P, t: u64, agent: u32, change: Membership) {
        let _ = (protocol, t, agent, change);
    }
}

/// The disabled probe: observes nothing, costs nothing.
///
/// `ACTIVE = false` compiles every probe call away, so
/// [`drive`](fn@crate::drive) with `&mut NullProbe` in the probe slot
/// *is* the unprobed run — the identical code path, not an instrumented
/// loop with no-op calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl<P: Protocol> Probe<P> for NullProbe {
    const ACTIVE: bool = false;
}

/// Forwarding impl so engines can be handed `&mut probe` through
/// arbitrarily many call layers.
impl<P: Protocol, B: Probe<P>> Probe<P> for &mut B {
    const ACTIVE: bool = B::ACTIVE;

    fn block(
        &mut self,
        protocol: &P,
        t: u64,
        changed: u64,
        shard: usize,
        start: usize,
        lane: &[P::State],
    ) {
        (**self).block(protocol, t, changed, shard, start, lane);
    }

    fn exchange(&mut self, protocol: &P, t: u64, pairs: u64) {
        (**self).exchange(protocol, t, pairs);
    }

    fn checkpoint(&mut self, protocol: &P, t: u64, stopping: bool) {
        (**self).checkpoint(protocol, t, stopping);
    }

    fn fault(&mut self, protocol: &P, t: u64, states: &[P::State]) {
        (**self).fault(protocol, t, states);
    }

    fn membership(&mut self, protocol: &P, t: u64, agent: u32, change: Membership) {
        (**self).membership(protocol, t, agent, change);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Noop;
    impl Protocol for Noop {
        type State = u8;
        fn n(&self) -> usize {
            4
        }
        fn transition(&self, _: &mut u8, _: &mut u8) -> bool {
            false
        }
    }

    /// A probe that logs which hooks ran, for testing the forwarding impl.
    #[derive(Default)]
    struct Log(Vec<&'static str>);
    impl Probe<Noop> for Log {
        fn block(&mut self, _: &Noop, _: u64, _: u64, _: usize, _: usize, _: &[u8]) {
            self.0.push("block");
        }
        fn fault(&mut self, _: &Noop, _: u64, _: &[u8]) {
            self.0.push("fault");
        }
        fn membership(&mut self, _: &Noop, _: u64, _: u32, _: Membership) {
            self.0.push("membership");
        }
    }

    #[test]
    fn null_probe_is_inactive() {
        const { assert!(!<NullProbe as Probe<Noop>>::ACTIVE) };
        // Calling the hooks anyway must be harmless.
        let mut p = NullProbe;
        Probe::<Noop>::block(&mut p, &Noop, 0, 0, 0, 0, &[]);
        Probe::<Noop>::checkpoint(&mut p, &Noop, 0, true);
    }

    #[test]
    fn mut_ref_forwards_activity_and_calls() {
        const { assert!(<&mut Log as Probe<Noop>>::ACTIVE) };
        let mut log = Log::default();
        let mut fwd = &mut log;
        Probe::<Noop>::block(&mut fwd, &Noop, 1, 0, 0, 0, &[]);
        Probe::<Noop>::exchange(&mut fwd, &Noop, 1, 0); // default body
        Probe::<Noop>::fault(&mut fwd, &Noop, 2, &[]);
        Probe::<Noop>::membership(&mut fwd, &Noop, 3, 7, Membership::Join);
        assert_eq!(log.0, ["block", "fault", "membership"]);
    }
}
