//! Zero-churn equivalence (ISSUE 9 acceptance): a `DynamicPopulation`
//! whose churn process is quiescent must be **bit-for-bit identical**
//! to `Simulator::run_batched` — same block decomposition, same pair
//! stream, same final configuration and interaction count — across
//!
//! * the structured enum path (`DynamicPopulation<StableRanking>`),
//! * the block transition kernel (`Packed<StableRanking>`).
//!
//! Churn must be purely additive machinery: lifecycle events at block
//! boundaries, never a perturbation of the hot loop. Two further
//! properties pin that down: a churning run's trajectory is invariant
//! under how `run` calls are chunked, and attaching a probe (the
//! `Recorder`, capturing every membership event) never changes what a
//! churning engine computes.

use proptest::prelude::*;

use silent_ranking::dynamic::{ChurnConfig, DynamicPopulation};
use silent_ranking::population::{Packed, Simulator};
use silent_ranking::ranking::stable::StableRanking;
use silent_ranking::ranking::Params;
use silent_ranking::telemetry::Recorder;

fn protocol(n: usize) -> StableRanking {
    StableRanking::new(Params::new(n))
}

/// Several `BLOCK_PAIRS` scans plus a ragged tail, so the comparison
/// covers whole-block and partial-block sampling.
fn budget(n: usize) -> u64 {
    (n * n * 8) as u64 + 137
}

/// A churn shape fast enough that every property run sees joins,
/// leaves, hibernations, and lane resizes.
fn busy_churn(n: usize) -> ChurnConfig {
    ChurnConfig::poisson(800.0, n as f64 * 1.0e6 / 800.0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn zero_churn_enum_path_is_bit_for_bit(n in 8usize..40, seed in 0u64..5000) {
        let mut dynpop = DynamicPopulation::<StableRanking>::new(
            Params::new(n),
            ChurnConfig::quiescent(),
            seed,
        );
        let mut sim = Simulator::new(protocol(n), protocol(n).initial(), seed);
        dynpop.run(budget(n));
        sim.run_batched(budget(n));
        prop_assert_eq!(dynpop.states(), sim.states());
        prop_assert_eq!(dynpop.interactions(), sim.interactions());
        prop_assert_eq!(dynpop.live(), n);
    }

    #[test]
    fn zero_churn_kernel_path_is_bit_for_bit(n in 8usize..40, seed in 0u64..5000) {
        let mut dynpop = DynamicPopulation::<Packed<StableRanking>>::new(
            Params::new(n),
            ChurnConfig::quiescent(),
            seed,
        );
        let p = Packed(protocol(n));
        let init = p.pack_all(&protocol(n).initial());
        let mut sim = Simulator::new(p, init, seed);
        dynpop.run(budget(n));
        sim.run_batched(budget(n));
        prop_assert_eq!(dynpop.states(), sim.states());
        prop_assert_eq!(dynpop.interactions(), sim.interactions());
    }

    // ------------------------------------------------------------------
    // Churning runs: chunking-invariant and probe-inert
    // ------------------------------------------------------------------

    #[test]
    fn churning_runs_are_chunking_invariant(
        n in 8usize..32,
        seed in 0u64..5000,
        chunk in 64u64..3000,
    ) {
        let make = || DynamicPopulation::<StableRanking>::new(
            Params::new(n),
            busy_churn(n),
            seed,
        );
        let (mut whole, mut pieces) = (make(), make());
        let total = budget(n);
        whole.run(total);
        let mut left = total;
        while left > 0 {
            let step = left.min(chunk);
            pieces.run(step);
            left -= step;
        }
        prop_assert_eq!(whole.states(), pieces.states());
        prop_assert_eq!(whole.ids(), pieces.ids());
        prop_assert_eq!(whole.roster(), pieces.roster());
        prop_assert_eq!(whole.interactions(), pieces.interactions());
    }

    #[test]
    fn churning_runs_are_probe_inert(n in 8usize..32, seed in 0u64..5000) {
        let make = || DynamicPopulation::<StableRanking>::new(
            Params::new(n),
            busy_churn(n),
            seed,
        );
        let (mut plain, mut recorded) = (make(), make());
        let mut recorder = Recorder::new();
        plain.run(budget(n));
        recorded.run_probed(budget(n), &mut recorder);
        prop_assert_eq!(recorded.states(), plain.states());
        prop_assert_eq!(recorded.ids(), plain.ids());
        prop_assert_eq!(recorded.interactions(), plain.interactions());
    }
}

// ----------------------------------------------------------------------
// Non-vacuousness: the busy churn config actually exercises lifecycle
// machinery, and the recorder captures the membership events.
// ----------------------------------------------------------------------

#[test]
fn churn_properties_are_not_vacuous() {
    let n = 24;
    let mut engine = DynamicPopulation::<StableRanking>::new(Params::new(n), busy_churn(n), 42);
    let mut recorder = Recorder::new();
    // Longer than the property budget: at λ=800 the small property
    // budgets can legitimately see zero arrivals on an unlucky seed.
    engine.run_probed(50_000, &mut recorder);
    let metrics = engine.metrics().snapshot();
    let counter = |name: &str| metrics.counter(name).unwrap_or(0);
    assert!(counter("dyn_joins") > 0, "no joins — config too quiet");
    assert!(counter("dyn_leaves") > 0, "no leaves — config too quiet");
    assert!(
        counter("dyn_hibernates") > 0,
        "no hibernations — config too quiet"
    );
    assert!(
        recorder.recorded() > 0,
        "recorder captured nothing from a churning run"
    );
}
