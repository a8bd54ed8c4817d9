//! Telemetry is **trajectory-inert** (ISSUE 7 acceptance): attaching a
//! probe — the monomorphized-away `NullProbe` *or* a full `Recorder`
//! capturing every event — must never change what the engine computes.
//!
//! Every probed run path is compared bit-for-bit against its unprobed
//! twin (same protocol, same seed, same budget): final configuration
//! and interaction count must match exactly, across
//!
//! * the structured enum path (`Simulator<StableRanking>`),
//! * the block transition kernel (`Packed<StableRanking>`),
//! * the sharded API at 1 and 4 shards, and
//! * a faulted `drive` under **every** canonical injector, on the enum path
//!   and through `UnpackedHook` on the kernel path.
//!
//! Non-vacuousness is checked separately with multi-block budgets (the
//! property budgets can fit inside a single `BLOCK_PAIRS` scan, where a
//! recorder legitimately emits nothing but baselines), so "identical"
//! is not "nothing was traced".

use proptest::prelude::*;

use silent_ranking::population::{
    drive, Every, NoFaults, NoPoll, NoSaves, NullProbe, Packed, Simulator, UnpackedHook,
};
use silent_ranking::ranking::stable::{StableRanking, StableState};
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::{ranking_faults, FaultPlan};
use silent_ranking::shard::ShardedSimulator;
use silent_ranking::telemetry::Recorder;

fn protocol(n: usize) -> StableRanking {
    StableRanking::new(Params::new(n))
}

/// Interactions enough to see resets, elections, and rank churn at the
/// tested sizes without slowing the suite.
fn budget(n: usize) -> u64 {
    (n * n * 8) as u64
}

// ----------------------------------------------------------------------
// Sequential paths: enum, kernel
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn enum_path_is_probe_inert(n in 8usize..40, seed in 0u64..5000) {
        let init = protocol(n).adversarial_uniform(seed);
        let mut plain = Simulator::new(protocol(n), init.clone(), seed);
        let mut nulled = Simulator::new(protocol(n), init.clone(), seed);
        let mut recorded = Simulator::new(protocol(n), init, seed);
        let mut recorder = Recorder::new();
        plain.run_batched(budget(n));
        drive(&mut nulled, budget(n), &mut NoFaults, &mut NoSaves, &mut NoPoll, &mut NullProbe);
        drive(&mut recorded, budget(n), &mut NoFaults, &mut NoSaves, &mut NoPoll, &mut recorder);
        prop_assert_eq!(nulled.states(), plain.states());
        prop_assert_eq!(recorded.states(), plain.states());
        prop_assert_eq!(recorded.interactions(), plain.interactions());
    }

    #[test]
    fn kernel_path_is_probe_inert(n in 8usize..40, seed in 0u64..5000) {
        let make = || {
            let p = Packed(protocol(n));
            let init = p.pack_all(&protocol(n).adversarial_uniform(seed));
            Simulator::new(p, init, seed)
        };
        let (mut plain, mut nulled, mut recorded) = (make(), make(), make());
        let mut recorder = Recorder::new();
        plain.run_batched(budget(n));
        drive(&mut nulled, budget(n), &mut NoFaults, &mut NoSaves, &mut NoPoll, &mut NullProbe);
        drive(&mut recorded, budget(n), &mut NoFaults, &mut NoSaves, &mut NoPoll, &mut recorder);
        prop_assert_eq!(nulled.states(), plain.states());
        prop_assert_eq!(recorded.states(), plain.states());
        prop_assert_eq!(recorded.interactions(), plain.interactions());
    }

    // ------------------------------------------------------------------
    // Sharded API, 1 and 4 shards
    // ------------------------------------------------------------------

    #[test]
    fn sharded_paths_are_probe_inert(n in 12usize..40, seed in 0u64..5000) {
        for shards in [1usize, 4] {
            let make = || {
                let p = Packed(protocol(n));
                let init = p.pack_all(&protocol(n).adversarial_uniform(seed));
                ShardedSimulator::new(p, init, seed, shards)
            };
            let (mut plain, mut nulled, mut recorded) = (make(), make(), make());
            let mut recorder = Recorder::new();
            plain.run_faulted_probed(budget(n), &mut NoFaults, &mut NullProbe);
            nulled.run_faulted_probed(budget(n), &mut NoFaults, &mut NullProbe);
            recorded.run_faulted_probed(budget(n), &mut NoFaults, &mut recorder);
            prop_assert_eq!(nulled.states(), plain.states(), "shards={}", shards);
            prop_assert_eq!(recorded.states(), plain.states(), "shards={}", shards);
            prop_assert_eq!(recorded.interactions(), plain.interactions());
        }
    }
}

// ----------------------------------------------------------------------
// Non-vacuousness: with a budget spanning many BLOCK_PAIRS scans, the
// recorder actually captures events (the property budgets above can fit
// in one scan, which is baseline-only by design).
// ----------------------------------------------------------------------

#[test]
fn recorded_runs_are_not_vacuous_over_multi_block_budgets() {
    let n = 32;
    let seed = 3;
    let budget = 50_000; // >> BLOCK_PAIRS = 4096: many diffing scans
    let mut kernel = {
        let p = Packed(protocol(n));
        let init = p.pack_all(&protocol(n).adversarial_uniform(seed));
        Simulator::new(p, init, seed)
    };
    let mut recorder = Recorder::new();
    drive(
        &mut kernel,
        budget,
        &mut NoFaults,
        &mut NoSaves,
        &mut NoPoll,
        &mut recorder,
    );
    assert!(recorder.recorded() > 0, "kernel run traced no events");

    let mut sharded = {
        let p = Packed(protocol(n));
        let init = p.pack_all(&protocol(n).adversarial_uniform(seed));
        ShardedSimulator::new(p, init, seed, 4)
    };
    let mut recorder = Recorder::new();
    sharded.run_faulted_probed(budget, &mut NoFaults, &mut recorder);
    assert!(recorder.recorded() > 0, "sharded run traced no events");
    // One ring, events oldest first.
    let events = recorder.events();
    assert!(
        events.windows(2).all(|w| w[0].t <= w[1].t),
        "events out of time order"
    );
}

// ----------------------------------------------------------------------
// A faulted drive under every canonical injector
// ----------------------------------------------------------------------

fn faulted_plan(kind: &str, n: usize, seed: u64) -> FaultPlan<StableState> {
    FaultPlan::new(seed ^ 0xBEEF).once(
        (n * n) as u64,
        ranking_faults::standard(kind, &protocol(n), n),
    )
}

#[test]
fn enum_faulted_runs_are_probe_inert_for_every_injector() {
    let n = 24;
    for kind in ranking_faults::KINDS {
        for seed in [1u64, 7] {
            let init = protocol(n).legal();
            let mut plain = Simulator::new(protocol(n), init.clone(), seed);
            let mut recorded = Simulator::new(protocol(n), init, seed);
            let mut plain_plan = faulted_plan(kind, n, seed);
            let mut rec_plan = faulted_plan(kind, n, seed);
            let mut recorder = Recorder::new();
            drive(
                &mut plain,
                budget(n),
                &mut plain_plan,
                &mut NoSaves,
                &mut NoPoll,
                &mut NullProbe,
            );
            drive(
                &mut recorded,
                budget(n),
                &mut rec_plan,
                &mut NoSaves,
                &mut NoPoll,
                &mut recorder,
            );
            assert_eq!(
                recorded.states(),
                plain.states(),
                "enum faulted path diverged ({kind}, seed={seed})"
            );
            assert_eq!(plain_plan.fired(), rec_plan.fired());
            assert!(recorder.recorded() > 0, "{kind}: no events traced");
        }
    }
}

#[test]
fn kernel_faulted_runs_are_probe_inert_for_every_injector() {
    let n = 24;
    for kind in ranking_faults::KINDS {
        for seed in [2u64, 11] {
            let make = |plan_seed: u64| {
                let p = Packed(protocol(n));
                let init = p.pack_all(&protocol(n).legal());
                (
                    Simulator::new(p, init, seed),
                    UnpackedHook::new(faulted_plan(kind, n, plan_seed)),
                )
            };
            let (mut plain, mut plain_plan) = make(seed);
            let (mut recorded, mut rec_plan) = make(seed);
            let mut recorder = Recorder::new();
            drive(
                &mut plain,
                budget(n),
                &mut plain_plan,
                &mut NoSaves,
                &mut NoPoll,
                &mut NullProbe,
            );
            drive(
                &mut recorded,
                budget(n),
                &mut rec_plan,
                &mut NoSaves,
                &mut NoPoll,
                &mut recorder,
            );
            assert_eq!(
                recorded.states(),
                plain.states(),
                "kernel faulted path diverged ({kind}, seed={seed})"
            );
            assert_eq!(plain_plan.inner().fired(), rec_plan.inner().fired());
            assert!(recorder.recorded() > 0, "{kind}: no events traced");
        }
    }
}

/// The trace is representation-agnostic: the enum path and the packed
/// kernel, run faulted from the same seed under the same injector,
/// record the same events — same kinds, times, agents and fault hits.
#[test]
fn enum_and_kernel_faulted_runs_record_identical_events() {
    let n = 24;
    for kind in ranking_faults::KINDS {
        for seed in [4u64, 19] {
            let init = protocol(n).legal();
            let mut enum_sim = Simulator::new(protocol(n), init.clone(), seed);
            let mut enum_plan = faulted_plan(kind, n, seed);
            let mut enum_rec = Recorder::new();
            drive(
                &mut enum_sim,
                budget(n),
                &mut enum_plan,
                &mut NoSaves,
                &mut NoPoll,
                &mut enum_rec,
            );

            let packed = Packed(protocol(n));
            let packed_init = packed.pack_all(&init);
            let mut kernel_sim = Simulator::new(packed, packed_init, seed);
            let mut kernel_plan = UnpackedHook::new(faulted_plan(kind, n, seed));
            let mut kernel_rec = Recorder::new();
            drive(
                &mut kernel_sim,
                budget(n),
                &mut kernel_plan,
                &mut NoSaves,
                &mut NoPoll,
                &mut kernel_rec,
            );

            assert!(enum_rec.recorded() > 0, "{kind}: no events traced");
            assert_eq!(
                enum_rec.events(),
                kernel_rec.events(),
                "enum and kernel traces differ ({kind}, seed={seed})"
            );
            assert_eq!(enum_rec.recorded(), kernel_rec.recorded());
            assert_eq!(
                enum_rec.metrics().snapshot(),
                kernel_rec.metrics().snapshot()
            );
        }
    }
}

#[test]
fn sharded_faulted_runs_are_probe_inert() {
    let n = 32;
    for shards in [1usize, 4] {
        for seed in [3u64, 13] {
            let make = || {
                let p = Packed(protocol(n));
                let init = p.pack_all(&protocol(n).legal());
                (
                    ShardedSimulator::new(p, init, seed, shards),
                    UnpackedHook::new(faulted_plan("corrupt", n, seed)),
                )
            };
            let (mut plain, mut plain_plan) = make();
            let (mut recorded, mut rec_plan) = make();
            let mut recorder = Recorder::new();
            plain.run_faulted_probed(budget(n), &mut plain_plan, &mut NullProbe);
            recorded.run_faulted_probed(budget(n), &mut rec_plan, &mut recorder);
            assert_eq!(
                recorded.states(),
                plain.states(),
                "sharded faulted path diverged (shards={shards}, seed={seed})"
            );
            assert_eq!(plain_plan.inner().fired(), rec_plan.inner().fired());
            assert!(recorder.recorded() > 0);
        }
    }
}

// ----------------------------------------------------------------------
// Observed runs: checkpoint seam does not move checkpoints
// ----------------------------------------------------------------------

#[test]
fn observed_runs_are_probe_inert_and_stop_at_the_same_time() {
    use silent_ranking::population::is_valid_ranking;
    use silent_ranking::population::observe::Convergence;
    let n = 24;
    for seed in [5u64, 17] {
        let make = || {
            let p = Packed(protocol(n));
            let init = p.pack_all(&protocol(n).adversarial_uniform(seed));
            Simulator::new(p, init, seed)
        };
        let (mut plain, mut recorded) = (make(), make());
        let mut plain_obs = Convergence::new(|s: &[_]| is_valid_ranking(s));
        let mut rec_obs = Convergence::new(|s: &[_]| is_valid_ranking(s));
        let mut recorder = Recorder::new();
        let budget = (n * n * n) as u64;
        let stop_plain = plain.run_observed(budget, n as u64, &mut plain_obs);
        let stop_rec = drive(
            &mut recorded,
            budget,
            &mut NoFaults,
            &mut NoSaves,
            &mut Every(n as u64, &mut rec_obs),
            &mut recorder,
        );
        assert_eq!(stop_plain, stop_rec, "seed={seed}");
        assert_eq!(recorded.states(), plain.states());
        assert_eq!(recorded.interactions(), plain.interactions());
        assert!(recorder.recorded() > 0);
    }
}

// ----------------------------------------------------------------------
// Poll contract: one checkpoint event per poll, `stopping` on the last
// ----------------------------------------------------------------------

/// The recorder's checkpoint events must be exactly one per poll — at
/// `0`, every `check_every` interactions, and at `end` — with `stopping`
/// set on the final one only.
fn assert_one_checkpoint_per_poll(recorder: &Recorder, check_every: u64, end: u64, case: &str) {
    use silent_ranking::telemetry::EventKind;
    let got: Vec<(u64, bool)> = recorder
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Checkpoint { stopping } => Some((e.t, stopping)),
            _ => None,
        })
        .collect();
    let mut want: Vec<(u64, bool)> = (0..end.div_ceil(check_every))
        .map(|k| (k * check_every, false))
        .collect();
    want.push((end, true));
    assert_eq!(got, want, "{case}");
}

#[test]
fn every_run_ending_records_one_checkpoint_per_poll() {
    use silent_ranking::population::is_valid_ranking;
    use silent_ranking::population::observe::Convergence;
    use silent_ranking::scenarios::{run_recovery_traced, Recovery};
    let n = 16;
    let check_every = 100;
    let kernel = |init: Vec<StableState>| {
        let p = Packed(protocol(n));
        let init = p.pack_all(&init);
        Simulator::new(p, init, 5)
    };

    // An observer stop, and a budget that runs out first.
    for (case, budget) in [("observer stop", u64::MAX), ("budget exhaustion", 1_000)] {
        let mut sim = kernel(protocol(n).adversarial_uniform(5));
        let mut obs = Convergence::new(|s: &[_]| is_valid_ranking(s));
        let mut recorder = Recorder::new();
        drive(
            &mut sim,
            budget,
            &mut NoFaults,
            &mut NoSaves,
            &mut Every(check_every, &mut obs),
            &mut recorder,
        );
        assert_eq!(budget == u64::MAX, sim.interactions() < budget, "{case}");
        assert_one_checkpoint_per_poll(&recorder, check_every, sim.interactions(), case);
    }

    // A recovery run that exits early once recovered, and one whose
    // budget runs out before it recovers.
    for (case, budget) in [
        ("recovery early exit", 50_000_000),
        ("recovery budget", 500),
    ] {
        let mut sim = kernel(protocol(n).legal());
        let mut plan = UnpackedHook::new(
            FaultPlan::new(3).once(100, ranking_faults::corrupt(&protocol(n), 4)),
        );
        let mut recovery = Recovery::new(|_: &Packed<StableRanking>, s: &[_]| is_valid_ranking(s));
        let mut recorder = Recorder::new();
        run_recovery_traced(
            &mut sim,
            &mut plan,
            &mut recovery,
            &mut recorder,
            budget,
            check_every,
        );
        assert_eq!(
            recovery.all_recovered(),
            sim.interactions() < budget,
            "{case}"
        );
        assert_one_checkpoint_per_poll(&recorder, check_every, sim.interactions(), case);
    }
}
