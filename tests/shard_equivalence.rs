//! The sharded API's contracts, property-tested over the paper's
//! protocol:
//!
//! 1. **Every shard and worker count is the sequential run** — a
//!    `ShardedSimulator` run is bit-for-bit the `Simulator` run for the
//!    same protocol, initial configuration and seed, over both the
//!    structured enum states and the packed words, including under
//!    fault injection and an active probe.
//! 2. **Determinism** — two sharded runs are identical, and the
//!    trajectory never depends on the worker thread count.
//! 3. **Semantics** — sharded runs still stabilize, and `scenarios`
//!    fault plans drive them to recovery, timestamped by
//!    `run_recovery` as on the sequential engine.
//!
//! The wrapper's one run method is `run_faulted_probed`; these tests
//! also drive it through `drive`.

use proptest::prelude::*;
use rand::rngs::SmallRng;

use silent_ranking::population::observe::Convergence;
use silent_ranking::population::silence::is_silent;
use silent_ranking::population::{
    drive, is_valid_ranking, Engine, Every, NoFaults, NoPoll, NoSaves, NullProbe, Packed, Protocol,
    Simulator, StopReason, UnpackedHook,
};
use silent_ranking::ranking::stable::{PackedState, StableRanking};
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::{ranking_faults, run_recovery, FaultPlan, Recovery, StateRewrite};
use silent_ranking::shard::ShardedSimulator;
use silent_ranking::telemetry::{EventKind, Recorder};

/// Execute exactly `count` interactions of `engine`, with no hooks.
fn run<E: Engine>(engine: &mut E, count: u64) {
    drive(
        engine,
        count,
        &mut NoFaults,
        &mut NoSaves,
        &mut NoPoll,
        &mut NullProbe,
    );
}

/// Run `engine` until its configuration is a valid ranking, polled every
/// `every` interactions, or for `budget` interactions.
fn run_until_valid<E>(engine: &mut E, budget: u64, every: u64) -> StopReason
where
    E: Engine<Protocol = Packed<StableRanking>>,
{
    let mut poll = Every(every, Convergence::new(is_valid_ranking::<PackedState>));
    drive(
        engine,
        budget,
        &mut NoFaults,
        &mut NoSaves,
        &mut poll,
        &mut NullProbe,
    )
}

fn packed_protocol(n: usize) -> Packed<StableRanking> {
    Packed(StableRanking::new(Params::new(n)))
}

fn packed_init(protocol: &Packed<StableRanking>, seed: u64) -> Vec<PackedState> {
    protocol.pack_all(&protocol.inner().adversarial_uniform(seed))
}

#[test]
fn one_shard_packed_run_is_bit_for_bit_run_batched() {
    for (n, count, seed) in [(16, 40_000u64, 1u64), (33, 12_345, 7), (64, 100_000, 42)] {
        let mut reference = Simulator::new(
            packed_protocol(n),
            packed_init(&packed_protocol(n), seed),
            seed,
        );
        reference.run_batched(count);

        let mut sharded = ShardedSimulator::new(
            packed_protocol(n),
            packed_init(&packed_protocol(n), seed),
            seed,
            1,
        );
        run(&mut sharded, count);

        assert_eq!(
            sharded.states(),
            reference.states(),
            "n={n} count={count} seed={seed}"
        );
        assert_eq!(sharded.interactions(), reference.interactions());
    }
}

#[test]
fn one_shard_enum_run_is_bit_for_bit_run_batched() {
    let n = 24;
    let protocol = StableRanking::new(Params::new(n));
    let init = protocol.adversarial_uniform(3);
    let mut reference = Simulator::new(protocol.clone(), init.clone(), 9);
    reference.run_batched(30_000);

    let mut sharded = ShardedSimulator::new(protocol, init, 9, 1);
    run(&mut sharded, 30_000);
    assert_eq!(sharded.states(), reference.states());
}

#[test]
fn one_shard_faulted_run_matches_sequential_faulted_run() {
    // Fault plans fire at exact interaction counts in both engines, so
    // at shards = 1 the full faulted trajectory must coincide.
    let n = 20;
    for kind in ranking_faults::KINDS {
        let make_plan = || {
            let p = StableRanking::new(Params::new(n));
            FaultPlan::new(77).periodic(500, 4000, ranking_faults::standard(kind, &p, n))
        };
        let seed = 13;

        let mut seq = Simulator::new(
            packed_protocol(n),
            packed_init(&packed_protocol(n), seed),
            seed,
        );
        let mut seq_hook = UnpackedHook::new(make_plan());
        seq.run_faulted(15_000, &mut seq_hook);

        let mut sharded = ShardedSimulator::new(
            packed_protocol(n),
            packed_init(&packed_protocol(n), seed),
            seed,
            1,
        );
        let mut sh_hook = UnpackedHook::new(make_plan());
        sharded.run_faulted_probed(15_000, &mut sh_hook, &mut NullProbe);

        assert_eq!(sharded.states(), seq.states(), "injector {kind}");
        assert_eq!(
            sh_hook.inner().fired(),
            seq_hook.inner().fired(),
            "injector {kind}: firing logs diverged"
        );
    }
}

#[test]
fn sharded_trajectories_are_deterministic_and_worker_independent() {
    let n = 48;
    for shards in [2, 3, 4, 7] {
        let run = |workers: usize| {
            let protocol = packed_protocol(n);
            let init = packed_init(&protocol, 5);
            let mut sim = ShardedSimulator::new(protocol, init, 21, shards).with_workers(workers);
            run(&mut sim, 60_000);
            sim.states().to_vec()
        };
        let first = run(1);
        assert_eq!(first, run(1), "shards={shards}: reruns must be identical");
        assert_eq!(first, run(4), "shards={shards}: workers must not matter");
    }
}

#[test]
fn sharded_run_stabilizes_to_a_valid_silent_ranking() {
    // Theorem 2 through the sharded API: adversarial starts reach a
    // valid, silent ranking (packed words, 4 shards).
    let n = 24;
    let budget = (8000.0 * (n * n) as f64 * (n as f64).log2()) as u64;
    for seed in 0..4u64 {
        let protocol = packed_protocol(n);
        let init = packed_init(&protocol, seed + 50);
        let mut sim = ShardedSimulator::new(protocol, init, seed, 4);
        let stop = run_until_valid(&mut sim, budget, n as u64);
        assert!(
            stop.converged_at().is_some(),
            "seed {seed}: sharded run did not stabilize"
        );
        let words = sim.states();
        let protocol = packed_protocol(n);
        assert!(
            is_silent(&protocol, words),
            "seed {seed}: valid but not silent"
        );
    }
}

#[test]
fn sharded_faulted_run_recovers() {
    // scenarios injectors drive a 3-shard packed run: corrupt a quarter
    // of the population mid-run, then re-stabilize.
    let n = 24;
    let seed = 2;
    let protocol = packed_protocol(n);
    let legal = protocol.pack_all(&protocol.inner().legal());
    let plan_protocol = StableRanking::new(Params::new(n));
    let mut plan = UnpackedHook::new(
        FaultPlan::new(9).once(1_000, ranking_faults::corrupt(&plan_protocol, n / 4)),
    );
    let mut sim = ShardedSimulator::new(protocol, legal, seed, 3);
    sim.run_faulted_probed(1_000, &mut plan, &mut NullProbe);
    assert!(
        !is_valid_ranking(sim.states()),
        "corruption must break the ranking"
    );
    let budget = (8000.0 * (n * n) as f64 * (n as f64).log2()) as u64;
    let stop = run_until_valid(&mut sim, budget, n as u64);
    assert!(stop.converged_at().is_some(), "no recovery after the fault");
}

/// Population size of the equivalence runs: not divisible by 3, 4 or 8.
const N: usize = 250;

/// Bursts that end partway through a schedule block: a single pair, one
/// past a full block, and sizes that end mid-block.
const UNEVEN: &[u64] = &[1, 4097, 12_345, 33_333, 50_224];

#[test]
fn wrapper_equals_simulator_for_every_shard_and_worker_count() {
    for (k, bursts) in [&[100_000u64][..], UNEVEN].into_iter().enumerate() {
        let protocol = packed_protocol(N);
        let init = packed_init(&protocol, 40 + k as u64);
        let mut reference = Simulator::new(packed_protocol(N), init.clone(), 60 + k as u64);
        for &burst in bursts {
            reference.run(burst);
        }
        for shards in [1, 2, 4, 8] {
            for workers in [1, 2, 3] {
                let mut sim =
                    ShardedSimulator::new(packed_protocol(N), init.clone(), 60 + k as u64, shards)
                        .with_workers(workers);
                for &burst in bursts {
                    run(&mut sim, burst);
                }
                let case = format!("bursts {k}, shards={shards}, workers={workers}");
                assert_eq!(sim.frame(), reference.frame(), "{case}");
                assert_eq!(
                    sim.protocol().inner().dispatch_mix(),
                    reference.protocol().inner().dispatch_mix(),
                    "{case}"
                );
            }
        }
    }
}

#[test]
fn faulted_probed_sharded_run_equals_the_sequential_one() {
    // A legal ranking, an erase_rank fault, a Recorder watching every
    // probed block: the recovery is the sequential engine's, and the
    // recorder sees the same fault.
    let run = |shards: Option<usize>| {
        let protocol = packed_protocol(N);
        let legal = protocol.pack_all(&protocol.inner().legal());
        let plan_protocol = StableRanking::new(Params::new(N));
        let mut plan = UnpackedHook::new(FaultPlan::new(31).once(
            20_000,
            ranking_faults::standard("erase_rank", &plan_protocol, N),
        ));
        let mut recorder = Recorder::new();
        let (frame, mix) = match shards {
            Some(shards) => {
                let mut sim = ShardedSimulator::new(protocol, legal, 17, shards).with_workers(2);
                sim.run_faulted_probed(150_000, &mut plan, &mut recorder);
                (sim.frame(), sim.protocol().inner().dispatch_mix())
            }
            None => {
                let mut sim = Simulator::new(protocol, legal, 17);
                sim.run_faulted_probed(150_000, &mut plan, &mut recorder);
                (sim.frame(), sim.protocol().inner().dispatch_mix())
            }
        };
        assert_eq!(plan.inner().fired().len(), 1, "the fault must fire");
        assert!(recorder.recorded() > 0, "the recorder must trace");
        let faults: Vec<u64> = recorder
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, EventKind::Fault { .. }))
            .map(|e| e.t)
            .collect();
        (frame, mix, faults)
    };
    let sequential = run(None);
    assert_eq!(sequential.2, [20_000]);
    for shards in [1, 4] {
        assert_eq!(run(Some(shards)), sequential, "shards={shards}");
    }
}

/// "Infection" protocol: state counts down to 0; legal iff all zero.
/// Interactions pull both agents one step toward 0, so recovery from a
/// corruption that sets counters to `c` takes a predictable number of
/// interactions.
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

fn decayed(_: &Decay, s: &[u32]) -> bool {
    s.iter().all(|&x| x == 0)
}

#[test]
fn sharded_recovery_with_one_shard_matches_sequential() {
    let n = 16;
    let make_plan = || FaultPlan::new(1).once(1000, corrupt_to(50, 4));

    let mut seq = Simulator::new(Decay(n), vec![0; n], 3);
    let mut seq_plan = make_plan();
    let mut seq_rec = Recovery::new(decayed);
    run_recovery(&mut seq, &mut seq_plan, &mut seq_rec, 100_000, 100);

    let mut sharded = ShardedSimulator::new(Decay(n), vec![0; n], 3, 1);
    let mut sh_plan = make_plan();
    let mut sh_rec = Recovery::new(decayed);
    run_recovery(&mut sharded, &mut sh_plan, &mut sh_rec, 100_000, 100);

    assert_eq!(sh_rec.events(), seq_rec.events());
    assert_eq!(sharded.states(), seq.states());
    assert_eq!(sharded.interactions(), seq.interactions());
}

#[test]
fn sharded_recovery_timestamps_faults_across_shards() {
    let n = 24;
    let mut sim = ShardedSimulator::new(Decay(n), vec![0; n], 7, 4);
    let mut plan = FaultPlan::new(1).once(500, corrupt_to(40, 6));
    let mut rec = Recovery::new(decayed);
    run_recovery(&mut sim, &mut plan, &mut rec, 100_000, 100);

    let events = rec.events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].injected_at, 500);
    let t = events[0].recovery_interactions().expect("must recover");
    assert!(t > 0 && t < 20_000, "decay from 40 is fast, got {t}");
    assert!(sim.interactions() < 100_000, "early exit after recovery");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// The headline property: for random population sizes, seeds, and
    /// burst decompositions, a one-shard sharded run is bit-for-bit the
    /// sequential batched trajectory (packed words).
    #[test]
    fn one_shard_equals_run_batched(
        n in 8usize..40,
        seed in 0u64..10_000,
        a in 1u64..5_000,
        b in 1u64..5_000,
        c in 1u64..5_000,
    ) {
        let bursts = [a, b, c];
        let mut reference = Simulator::new(
            packed_protocol(n),
            packed_init(&packed_protocol(n), seed ^ 0xBEEF),
            seed,
        );
        let mut sharded = ShardedSimulator::new(
            packed_protocol(n),
            packed_init(&packed_protocol(n), seed ^ 0xBEEF),
            seed,
            1,
        );
        for &burst in &bursts {
            reference.run_batched(burst);
            run(&mut sharded, burst);
            prop_assert_eq!(sharded.states(), reference.states().to_vec());
        }
        prop_assert_eq!(sharded.interactions(), reference.interactions());
    }

    /// Random shard counts: the trajectory is the sequential one —
    /// independent of shard and worker count and rerun-stable — and
    /// executes exactly the requested number of interactions.
    #[test]
    fn sharded_runs_are_reproducible(
        n in 8usize..40,
        shards in 1usize..6,
        seed in 0u64..10_000,
        count in 1u64..40_000,
    ) {
        let shards = shards.min(n);
        let run = |workers: usize| {
            let protocol = packed_protocol(n);
            let init = packed_init(&protocol, seed);
            let mut sim = ShardedSimulator::new(protocol, init, seed, shards)
                .with_workers(workers);
            run(&mut sim, count);
            (sim.interactions(), sim.states().to_vec())
        };
        let (t1, s1) = run(1);
        let (t2, s2) = run(3);
        prop_assert_eq!(t1, count);
        prop_assert_eq!(t2, count);
        prop_assert_eq!(&s1, &s2);
        let mut reference = Simulator::new(packed_protocol(n), packed_init(&packed_protocol(n), seed), seed);
        reference.run(count);
        prop_assert_eq!(s1, reference.states().to_vec());
    }
}
