//! The fault-injection subsystem's load-bearing guarantees:
//!
//! 1. **Recovery** — `StableRanking` re-stabilizes (valid ranking +
//!    silence) after *every* injector kind fires mid-run, single-shot
//!    and sustained (Theorem 2 exercised as fault recovery rather than
//!    adversarial initialization).
//! 2. **Purity** — a faulted `drive` under an **empty** `FaultPlan` is
//!    bit-for-bit trajectory-equivalent to `run_batched` for every
//!    chunk decomposition: the fault hook must be a no-op when no fault
//!    fires, or every unfaulted measurement in this repository would be
//!    suspect.
//! 3. **Scheduler seam** — adversarial `PairSource`s plug into the same
//!    engine: ranking still stabilizes under a (mildly) biased
//!    scheduler, and *cannot* globally stabilize under a hard
//!    partition.

use proptest::prelude::*;

use silent_ranking::population::silence::is_silent;
use silent_ranking::population::{drive, is_valid_ranking, NoPoll, NoSaves, NullProbe, Simulator};
use silent_ranking::ranking::stable::{StableRanking, StableState};
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::fault::Fault;
use silent_ranking::scenarios::{
    ranking_faults, run_recovery, BiasedSchedule, ClusteredSchedule, FaultPlan, Recovery,
};

/// Generous w.h.p. budget: c · n² · log₂ n.
fn budget(n: usize, c: f64) -> u64 {
    (c * (n * n) as f64 * (n as f64).log2()).ceil() as u64
}

fn protocol(n: usize) -> StableRanking {
    StableRanking::new(Params::new(n))
}

/// Build the single-shot plan for one injector kind, firing at `at`.
fn plan_for(kind: &str, p: &StableRanking, n: usize, at: u64, seed: u64) -> FaultPlan<StableState> {
    let plan = FaultPlan::new(seed ^ 0xDEAD);
    match kind {
        "corrupt" => plan.once(at, ranking_faults::corrupt(p, (n / 4).max(1))),
        "churn" => plan.once(at, ranking_faults::churn(p, (n / 4).max(1))),
        "duplicate_rank" => plan.once(at, ranking_faults::duplicate_rank(2)),
        "erase_rank" => plan.once(at, ranking_faults::erase_rank(p, (n / 8).max(1))),
        "coin_bias" => plan.once(at, ranking_faults::coin_bias(true)),
        "randomize" => plan.once(at, ranking_faults::randomize(p)),
        other => unreachable!("unknown injector kind {other}"),
    }
}

#[test]
fn restabilizes_after_each_injector_fires_mid_run() {
    // Mid-run: ranking is underway from the Figure 3 initialization
    // (one unaware leader, everyone else electing) when the fault
    // strikes after n² interactions.
    let n = 24;
    for kind in [
        "corrupt",
        "churn",
        "duplicate_rank",
        "erase_rank",
        "coin_bias",
        "randomize",
    ] {
        for seed in 0..2u64 {
            let p = protocol(n);
            let init = p.figure3();
            let mut plan = plan_for(kind, &p, n, (n * n) as u64, seed);
            let mut sim = Simulator::new(p, init, seed);
            let mut rec = Recovery::new(|_: &StableRanking, s: &[StableState]| is_valid_ranking(s));
            run_recovery(&mut sim, &mut plan, &mut rec, budget(n, 6000.0), n as u64);

            assert_eq!(
                plan.fired().len(),
                1,
                "{kind}/{seed}: fault did not fire exactly once"
            );
            assert_eq!(rec.events().len(), 1, "{kind}/{seed}");
            assert!(
                rec.all_recovered(),
                "{kind}/{seed}: no re-stabilization within budget: {:?}",
                rec.events()
            );
            // Theorem 2 demands silence, not just validity.
            assert!(is_valid_ranking(sim.states()), "{kind}/{seed}");
            assert!(
                is_silent(sim.protocol(), sim.states()),
                "{kind}/{seed}: valid but not silent"
            );
        }
    }
}

#[test]
fn recovers_from_each_of_three_sustained_periodic_faults() {
    // Sustained adversary: corruption strikes three times, spaced far
    // enough apart to re-stabilize in between w.h.p.; every strike must
    // produce its own closed recovery interval.
    let n = 16;
    let p = protocol(n);
    let states = p.legal();
    let gap = budget(n, 3000.0);
    let mut plan = FaultPlan::new(5).periodic(0, gap, ranking_faults::corrupt(&p, n / 2));
    let mut sim = Simulator::new(p, states, 11);
    let mut rec = Recovery::new(|_: &StableRanking, s: &[StableState]| is_valid_ranking(s));
    run_recovery(&mut sim, &mut plan, &mut rec, 3 * gap - 1, n as u64);

    assert_eq!(rec.events().len(), 3, "{:?}", rec.events());
    assert!(rec.all_recovered(), "{:?}", rec.events());
    let times: Vec<u64> = rec.events().iter().map(|e| e.injected_at).collect();
    assert_eq!(times, vec![0, gap, 2 * gap]);
}

#[test]
fn stabilizes_under_a_mildly_biased_scheduler() {
    // Off the uniform-scheduler assumption: a 3× initiation skew toward
    // half the population keeps every pair's probability positive, so
    // self-stabilization must survive (only the time bound may degrade).
    let n = 16;
    for seed in 0..2u64 {
        let p = protocol(n);
        let init = p.adversarial_uniform(seed + 77);
        let source = BiasedSchedule::new(n, n / 2, 0.5, seed);
        let mut sim = Simulator::with_source(p, init, source);
        let stop = sim.run_until(is_valid_ranking, budget(n, 8000.0), n as u64);
        assert!(
            stop.converged_at().is_some(),
            "seed {seed}: no stabilization under biased scheduler"
        );
        assert!(is_silent(sim.protocol(), sim.states()));
    }
}

#[test]
fn hard_partition_prevents_global_ranking() {
    // With two isolated clusters, both halves hand out ranks from the
    // same deterministic phase geometry, so the global configuration
    // always contains duplicates that no interaction can ever detect:
    // a valid global ranking is unreachable.
    let n = 16;
    let p = protocol(n);
    let init = p.initial();
    let source = ClusteredSchedule::new(n, 2, 0.0, 9);
    let mut sim = Simulator::with_source(p, init, source);
    let stop = sim.run_until(is_valid_ranking, 2_000_000, 64);
    assert!(
        stop.converged_at().is_none(),
        "global ranking across a hard partition is impossible"
    );
}

#[test]
fn coin_bias_is_a_noop_on_silent_legal_configurations() {
    // Ranked agents store no coin (the paper's space constraint), so
    // the coin-bias injector cannot perturb a silent legal
    // configuration at all — recovery is instantaneous by construction.
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let n = 16;
    let p = protocol(n);
    let mut states = p.legal();
    let mut rng = SmallRng::seed_from_u64(3);
    ranking_faults::coin_bias(true).apply(&mut states, &mut rng);
    assert_eq!(states, p.legal());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 15, ..ProptestConfig::default() })]

    /// The empty-plan purity property: a faulted `drive` with an
    /// empty `FaultPlan` must reproduce `run_batched`'s
    /// trajectory exactly, for any seed, adversarial initialization,
    /// horizon, and chunk decomposition.
    #[test]
    fn empty_fault_plan_is_trajectory_equivalent_to_run_batched(
        config_seed in 0u64..10_000,
        seed in 0u64..10_000,
        total in 0u64..20_000,
        chunk in 1u64..6000,
    ) {
        let make = || {
            let p = StableRanking::new(Params::new(32));
            let init = p.adversarial_uniform(config_seed);
            (p, init)
        };

        let (p, init) = make();
        let mut plain = Simulator::new(p, init, seed);
        plain.run_batched(total);

        let (p, init) = make();
        let mut faulted = Simulator::new(p, init, seed);
        let mut plan: FaultPlan<StableState> = FaultPlan::empty();
        let mut left = total;
        while left > 0 {
            let step = chunk.min(left);
            drive(&mut faulted, step, &mut plan, &mut NoSaves, &mut NoPoll, &mut NullProbe);
            left -= step;
        }

        prop_assert_eq!(plain.interactions(), faulted.interactions());
        prop_assert_eq!(plain.states(), faulted.states());
        prop_assert!(plan.fired().is_empty());
    }
}
