//! Recovery-time measurement: timestamps of fault → re-stabilization
//! intervals.
//!
//! The paper's Theorem 2 promises stabilization from *any*
//! configuration, which implies recovery from any mid-run corruption.
//! [`Recovery`] turns that claim into a measurement: it pairs every
//! fault fired by a [`FaultPlan`] with the
//! first subsequent checkpoint at which the caller's legality predicate
//! holds again, producing a list of [`RecoveryEvent`]s whose
//! `recovered_at − injected_at` intervals are the recovery times the
//! `recovery` bench binary aggregates.
//!
//! [`run_recovery`] runs any engine through the run driver
//! ([`drive`](fn@population::drive)) with the plan as its fault hook
//! (faults fire at exact interaction counts) and legality polls every
//! `check_every` interactions, so — as everywhere else in the engine —
//! recorded recovery times overshoot the true re-stabilization time by
//! less than the polling period.

use population::drive::StateOf;
use population::{
    drive, Control, Engine, FaultHook, NoSaves, NullProbe, Observer, Poll, Probe, Protocol,
};

use crate::fault::FaultPlan;

/// One fault → re-stabilization interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// The [`Fault::name`](crate::fault::Fault::name) of the injector.
    pub name: &'static str,
    /// Interaction count at which the fault was applied.
    pub injected_at: u64,
    /// First checkpoint at which the configuration was legal again
    /// (`None` if the run's budget was exhausted first).
    pub recovered_at: Option<u64>,
}

impl RecoveryEvent {
    /// Interactions from injection to re-stabilization, if recovered.
    pub fn recovery_interactions(&self) -> Option<u64> {
        self.recovered_at.map(|r| r - self.injected_at)
    }
}

/// An [`Observer`] that closes pending fault events when the
/// configuration becomes legal again.
///
/// Faults are announced through [`note_fault`](Recovery::note_fault)
/// (the [`run_recovery`] driver forwards them from the plan's fired
/// log); at every checkpoint where the legality predicate holds, all
/// pending events are stamped with the current interaction count. A
/// fault that strikes an already-broken configuration simply opens a
/// second pending event — both close at the next legal checkpoint.
#[derive(Debug)]
pub struct Recovery<F> {
    legal: F,
    events: Vec<RecoveryEvent>,
}

impl<F> Recovery<F> {
    /// Observe with legality predicate `legal(protocol, states)` — for
    /// the ranking protocols this is
    /// `|_, s| population::is_valid_ranking(s)` (a valid ranking is
    /// silent by the closure property, so validity is re-stabilization).
    pub fn new(legal: F) -> Self {
        Self {
            legal,
            events: Vec::new(),
        }
    }

    /// Record that a fault named `name` fired after `at` interactions.
    pub fn note_fault(&mut self, at: u64, name: &'static str) {
        self.events.push(RecoveryEvent {
            name,
            injected_at: at,
            recovered_at: None,
        });
    }

    /// All events so far, in injection order.
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// Consume the observer, returning the events.
    pub fn into_events(self) -> Vec<RecoveryEvent> {
        self.events
    }

    /// Has every injected fault been recovered from?
    pub fn all_recovered(&self) -> bool {
        self.events.iter().all(|e| e.recovered_at.is_some())
    }
}

impl<P: Protocol, F: FnMut(&P, &[P::State]) -> bool> Observer<P> for Recovery<F> {
    fn observe(&mut self, protocol: &P, t: u64, states: &[P::State]) -> Control {
        if !self.all_recovered() && (self.legal)(protocol, states) {
            for e in self.events.iter_mut().filter(|e| e.recovered_at.is_none()) {
                e.recovered_at = Some(t);
            }
        }
        Control::Continue
    }
}

/// Drive `sim` — any engine: sequential, sharded or dynamic — for up to
/// `max_interactions` under `plan`, recording every fault →
/// re-stabilization interval into `recovery`.
///
/// Faults fire at their exact scheduled interaction counts (the driver
/// splits the run there); legality is polled once up front, every
/// `check_every` interactions, and at the end of the budget, always after
/// the faults due at the same count. The poll stops the run once every
/// injected fault has recovered and no further fault can fire within the
/// budget — so single-shot plans don't burn the full budget after
/// re-stabilizing. Through the sharded API, at any shard count, this is
/// trajectory-equivalent to the sequential run over a uniform
/// [`Schedule`](population::Schedule).
///
/// # Panics
///
/// Panics if `check_every == 0`.
pub fn run_recovery<E, F>(
    sim: &mut E,
    plan: &mut FaultPlan<StateOf<E>>,
    recovery: &mut Recovery<F>,
    max_interactions: u64,
    check_every: u64,
) where
    E: Engine,
    F: FnMut(&E::Protocol, &[StateOf<E>]) -> bool,
{
    let plan_of: PlanOf<_, _> = |plan| plan;
    recover(
        sim,
        plan,
        plan_of,
        recovery,
        max_interactions,
        check_every,
        &mut NullProbe,
    );
}

/// Reads the [`FaultPlan`] behind a fault hook.
pub(crate) type PlanOf<H, S> = fn(&H) -> &FaultPlan<S>;

/// [`run_recovery`] for a fault hook that wraps its plan, with a probe.
pub(crate) fn recover<E, H, S, F, B>(
    engine: &mut E,
    faults: &mut H,
    plan_of: PlanOf<H, S>,
    recovery: &mut Recovery<F>,
    max_interactions: u64,
    check_every: u64,
    probe: &mut B,
) where
    E: Engine,
    H: FaultHook<E::Protocol>,
    F: FnMut(&E::Protocol, &[StateOf<E>]) -> bool,
    B: Probe<E::Protocol>,
{
    let start = engine.interactions();
    let mut poll = RecoveryPoll {
        every: check_every,
        seen: plan_of(faults).fired().len(),
        start,
        deadline: start.saturating_add(max_interactions),
        recovery,
        plan_of,
    };
    drive(
        engine,
        max_interactions,
        faults,
        &mut NoSaves,
        &mut poll,
        probe,
    );
}

/// The recovery poll: notes the faults fired since the last poll, polls
/// legality, and stops the run once every fault has recovered and none
/// remains due within the budget. The up-front poll only observes: faults
/// due at the start are noted at the next poll, and the run always takes
/// its first step.
struct RecoveryPoll<'a, F, H, S> {
    every: u64,
    /// Fired faults already noted.
    seen: usize,
    start: u64,
    deadline: u64,
    recovery: &'a mut Recovery<F>,
    plan_of: PlanOf<H, S>,
}

impl<E, H, S, F> Poll<E, H> for RecoveryPoll<'_, F, H, S>
where
    E: Engine,
    F: FnMut(&E::Protocol, &[StateOf<E>]) -> bool,
{
    fn every(&self) -> u64 {
        self.every
    }

    fn poll(&mut self, engine: &E, faults: &H) -> Control {
        let t = engine.interactions();
        if t == self.start {
            engine.view(|states| self.recovery.observe(engine.protocol(), t, states));
            return Control::Continue;
        }
        let plan = (self.plan_of)(faults);
        for f in &plan.fired()[self.seen..] {
            self.recovery.note_fault(f.at, f.name);
        }
        self.seen = plan.fired().len();
        engine.view(|states| self.recovery.observe(engine.protocol(), t, states));
        let more_faults_due = plan.peek_next().is_some_and(|t| t <= self.deadline);
        if self.recovery.all_recovered() && !more_faults_due {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::StateRewrite;
    use population::Simulator;
    use rand::rngs::SmallRng;

    /// "Infection" protocol: state counts down to 0; legal iff all zero.
    /// Interactions pull both agents one step toward 0, so recovery from
    /// a corruption that sets counters to `c` takes a predictable number
    /// of interactions.
    struct Decay(usize);
    impl Protocol for Decay {
        type State = u32;
        fn n(&self) -> usize {
            self.0
        }
        fn transition(&self, u: &mut u32, v: &mut u32) -> bool {
            let before = (*u, *v);
            *u = u.saturating_sub(1);
            *v = v.saturating_sub(1);
            before != (*u, *v)
        }
    }

    fn corrupt_to(value: u32, k: usize) -> StateRewrite<impl FnMut(&mut SmallRng) -> u32> {
        StateRewrite::corrupt(k, move |_: &mut SmallRng| value)
    }

    #[test]
    fn single_fault_recovery_is_timestamped() {
        let n = 16;
        let mut sim = Simulator::new(Decay(n), vec![0; n], 3);
        let mut plan = FaultPlan::new(1).once(1000, corrupt_to(50, 4));
        let mut rec = Recovery::new(|_: &Decay, s: &[u32]| s.iter().all(|&x| x == 0));
        run_recovery(&mut sim, &mut plan, &mut rec, 100_000, 100);

        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "corrupt");
        assert_eq!(events[0].injected_at, 1000);
        let t = events[0].recovery_interactions().expect("must recover");
        assert!(t > 0, "recovery cannot be instantaneous");
        assert!(t < 20_000, "decay from 50 is fast, got {t}");
        // Early exit: the budget was not exhausted after recovery.
        assert!(sim.interactions() < 100_000);
    }

    #[test]
    fn periodic_faults_produce_one_event_each() {
        let n = 16;
        let mut sim = Simulator::new(Decay(n), vec![0; n], 3);
        let mut plan = FaultPlan::new(1).periodic(5_000, 30_000, corrupt_to(20, 2));
        let mut rec = Recovery::new(|_: &Decay, s: &[u32]| s.iter().all(|&x| x == 0));
        run_recovery(&mut sim, &mut plan, &mut rec, 95_000, 50);

        // Fires at 5k, 35k, 65k, 95k.
        assert_eq!(rec.events().len(), 4);
        for e in &rec.events()[..3] {
            assert!(
                e.recovery_interactions().is_some(),
                "event at {} unrecovered",
                e.injected_at
            );
        }
    }

    #[test]
    fn unrecovered_events_stay_open_at_budget_exhaustion() {
        let n = 16;
        let mut sim = Simulator::new(Decay(n), vec![0; n], 3);
        // Corruption far too large to decay within the budget.
        let mut plan = FaultPlan::new(1).once(100, corrupt_to(u32::MAX, n));
        let mut rec = Recovery::new(|_: &Decay, s: &[u32]| s.iter().all(|&x| x == 0));
        run_recovery(&mut sim, &mut plan, &mut rec, 10_000, 100);

        assert_eq!(rec.events().len(), 1);
        assert!(rec.events()[0].recovered_at.is_none());
        assert!(!rec.all_recovered());
        assert_eq!(sim.interactions(), 10_000, "budget fully used");
    }

    #[test]
    fn sharded_recovery_with_one_shard_matches_sequential() {
        let n = 16;
        let make_plan = || FaultPlan::new(1).once(1000, corrupt_to(50, 4));
        let legal = |_: &Decay, s: &[u32]| s.iter().all(|&x| x == 0);

        let mut seq = Simulator::new(Decay(n), vec![0; n], 3);
        let mut seq_plan = make_plan();
        let mut seq_rec = Recovery::new(legal);
        run_recovery(&mut seq, &mut seq_plan, &mut seq_rec, 100_000, 100);

        let mut sharded = shard::ShardedSimulator::new(Decay(n), vec![0; n], 3, 1);
        let mut sh_plan = make_plan();
        let mut sh_rec = Recovery::new(legal);
        run_recovery(&mut sharded, &mut sh_plan, &mut sh_rec, 100_000, 100);

        assert_eq!(sh_rec.events(), seq_rec.events());
        assert_eq!(sharded.states(), seq.states());
        assert_eq!(sharded.interactions(), seq.interactions());
    }

    #[test]
    fn sharded_recovery_timestamps_faults_across_shards() {
        let n = 24;
        let mut sim = shard::ShardedSimulator::new(Decay(n), vec![0; n], 7, 4);
        let mut plan = FaultPlan::new(1).once(500, corrupt_to(40, 6));
        let mut rec = Recovery::new(|_: &Decay, s: &[u32]| s.iter().all(|&x| x == 0));
        run_recovery(&mut sim, &mut plan, &mut rec, 100_000, 100);

        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].injected_at, 500);
        let t = events[0].recovery_interactions().expect("must recover");
        assert!(t > 0 && t < 20_000, "decay from 40 is fast, got {t}");
        assert!(sim.interactions() < 100_000, "early exit after recovery");
    }

    #[test]
    fn fault_that_preserves_legality_recovers_immediately() {
        let n = 8;
        let mut sim = Simulator::new(Decay(n), vec![0; n], 3);
        let mut plan = FaultPlan::new(1).once(500, corrupt_to(0, 3));
        let mut rec = Recovery::new(|_: &Decay, s: &[u32]| s.iter().all(|&x| x == 0));
        run_recovery(&mut sim, &mut plan, &mut rec, 50_000, 100);
        assert_eq!(rec.events()[0].recovery_interactions(), Some(0));
    }
}
