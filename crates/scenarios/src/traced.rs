//! Flight-recorded recovery runs: the [`recovery`](crate::recovery)
//! driver with a [`telemetry::Recorder`] riding the engine's
//! [`Probe`](population::Probe) seam.
//!
//! [`run_recovery_traced`] drives a **packed** simulation (so the block
//! kernel — the production hot path — is what gets traced) under a
//! fault plan, producing three artifacts at once:
//!
//! * the usual [`Recovery`] event log (fault → re-stabilization
//!   intervals, exactly as [`run_recovery`](crate::run_recovery)
//!   computes them);
//! * the recorder's structured event trace (resets, elections, rank
//!   claims/releases, fault firings, checkpoints) with injector names
//!   joined onto the fault events from the plan's firing log;
//! * the recorder's metric registry (reset-interval and rank-dwell
//!   histograms, event counters).
//!
//! The probe seam is read-only, so a traced run follows the **bit-for-bit
//! identical trajectory** of the equivalent untraced run —
//! property-tested in `tests/telemetry_inert.rs` at the workspace root.

use population::{Packed, PackedProtocol, PairSource, Simulator, UnpackedHook};
use telemetry::{Recorder, TraceState};

use crate::fault::FaultPlan;
use crate::recovery::{recover, PlanOf, Recovery};

/// Drive a packed simulation for up to `max_interactions` under `plan`,
/// recording fault → re-stabilization intervals into `recovery` **and**
/// a structured event trace into `recorder`.
///
/// This is [`run_recovery`](crate::run_recovery) with the recorder on
/// the probe seam: it sees every block and fault, each legality poll
/// becomes a [`Checkpoint`](telemetry::EventKind::Checkpoint) event (its
/// `stopping` flag marks the final poll), and fired injector names are
/// joined onto the recorder's fault events when the run ends.
///
/// # Panics
///
/// Panics if `check_every == 0`.
pub fn run_recovery_traced<P, S, F>(
    sim: &mut Simulator<Packed<P>, S>,
    plan: &mut UnpackedHook<FaultPlan<P::State>>,
    recovery: &mut Recovery<F>,
    recorder: &mut Recorder,
    max_interactions: u64,
    check_every: u64,
) where
    P: PackedProtocol,
    P::Packed: TraceState,
    S: PairSource,
    F: FnMut(&Packed<P>, &[P::Packed]) -> bool,
{
    let seen = plan.inner().fired().len();
    let plan_of: PlanOf<_, _> = UnpackedHook::inner;
    recover(
        sim,
        plan,
        plan_of,
        recovery,
        max_interactions,
        check_every,
        recorder,
    );
    recorder.name_faults(plan.inner().fired()[seen..].iter().map(|f| (f.at, f.name)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking_faults;
    use population::is_valid_ranking;
    use ranking::stable::{PackedState, StableRanking, StableState};
    use ranking::Params;
    use telemetry::EventKind;

    type PackedLegal = fn(&Packed<StableRanking>, &[PackedState]) -> bool;

    fn traced_run(n: usize, seed: u64) -> (Recovery<PackedLegal>, Recorder, u64) {
        let protocol = StableRanking::new(Params::new(n));
        let plan_protocol = protocol.clone();
        let packed = Packed(protocol);
        let init = packed.pack_all(&plan_protocol.legal());
        let mut sim = Simulator::new(packed, init, seed);
        let mut plan = UnpackedHook::new(
            FaultPlan::new(seed ^ 0xFA01).once(100, ranking_faults::corrupt(&plan_protocol, 4)),
        );
        let legal: PackedLegal = |_, s| is_valid_ranking(s);
        let mut recovery = Recovery::new(legal);
        let mut recorder = Recorder::new();
        run_recovery_traced(
            &mut sim,
            &mut plan,
            &mut recovery,
            &mut recorder,
            50_000_000,
            n as u64,
        );
        let t = sim.interactions();
        (recovery, recorder, t)
    }

    #[test]
    fn traced_recovery_records_the_fault_and_the_recovery() {
        let (recovery, recorder, _) = traced_run(16, 7);
        assert_eq!(recovery.events().len(), 1);
        assert!(
            recovery.events()[0].recovery_interactions().is_some(),
            "Theorem 2: must recover"
        );
        let events = recorder.events();
        let fault: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Fault { hit, name } => Some((e.t, hit, name)),
                _ => None,
            })
            .collect();
        assert_eq!(fault.len(), 1);
        assert_eq!(fault[0].0, 100, "fault event stamped at the fire time");
        assert_eq!(fault[0].2, Some("corrupt"), "name joined from the plan");
        // The corruption forces detection → reset: the trace must hold
        // reset events after the fault, and the final checkpoint stops.
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::Reset && e.t > 100));
        let last_checkpoint = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Checkpoint { stopping } => Some(stopping),
                _ => None,
            })
            .next_back();
        assert_eq!(last_checkpoint, Some(true));
    }

    #[test]
    fn traced_trajectory_matches_untraced_run_recovery() {
        let n = 16;
        let seed = 11;
        // Untraced reference: run_recovery on the same plan over the
        // structured engine, which the packed kernel matches bit for bit.
        let protocol = StableRanking::new(Params::new(n));
        let mut ref_plan =
            FaultPlan::new(seed ^ 0xFA01).once(100, ranking_faults::corrupt(&protocol, 4));
        let mut reference = Simulator::new(protocol.clone(), protocol.legal(), seed);
        let mut ref_recovery =
            Recovery::new(|_: &StableRanking, s: &[StableState]| is_valid_ranking(s));
        crate::run_recovery(
            &mut reference,
            &mut ref_plan,
            &mut ref_recovery,
            50_000_000,
            n as u64,
        );

        let (recovery, _, t) = traced_run(n, seed);
        assert_eq!(recovery.events(), ref_recovery.events());
        assert_eq!(t, reference.interactions());
    }

    #[test]
    fn recorder_metrics_are_populated_by_a_recovery_run() {
        let (_, recorder, _) = traced_run(24, 3);
        let snap = recorder.metrics().snapshot();
        assert!(recorder.recorded() > 0);
        assert_eq!(snap.counter("recorder_events"), Some(recorder.recorded()));
        // A corrupt fault forces at least one reset wave.
        assert!(snap.counter("recorder_resets").unwrap() > 0);
        // Ranks were released (on reset) and re-claimed (on recovery).
        assert!(snap.histogram("rank_dwell").unwrap().count > 0);
    }
}
