//! The sharded engine's contracts, property-tested over the paper's
//! protocol:
//!
//! 1. **`shards = 1` ≡ `run_batched`** — a one-shard sharded run is
//!    bit-for-bit trajectory-equivalent to the sequential batched
//!    engine, over both the structured enum states and the packed
//!    words, including under fault injection.
//! 2. **Determinism** — for a fixed `(seed, n_shards)` two sharded runs
//!    are identical, and the trajectory never depends on the worker
//!    thread count.
//! 3. **Semantics** — sharded runs still stabilize: Theorem 2 holds on
//!    the sharded scheduler family, and `scenarios` fault plans drive
//!    sharded runs to recovery.
//! 4. **Pinned trajectories** — `shards > 1` runs end at recorded CRC-64
//!    digests of their frame and dispatch mix, so a change to the routing
//!    or the order in which pairs execute cannot pass as merely
//!    "deterministic".

use proptest::prelude::*;

use silent_ranking::population::silence::is_silent;
use silent_ranking::population::{is_valid_ranking, Packed, Simulator, UnpackedHook};
use silent_ranking::ranking::stable::{PackedState, StableRanking};
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::{ranking_faults, FaultPlan};
use silent_ranking::shard::ShardedSimulator;
use silent_ranking::snapshot::Crc64;
use silent_ranking::telemetry::Recorder;

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
        sharded.run(count);

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
    sharded.run(30_000);
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
        sharded.run_faulted(15_000, &mut sh_hook);

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
            sim.run(60_000);
            sim.into_states()
        };
        let first = run(1);
        assert_eq!(first, run(1), "shards={shards}: reruns must be identical");
        assert_eq!(first, run(4), "shards={shards}: workers must not matter");
    }
}

#[test]
fn sharded_run_stabilizes_to_a_valid_silent_ranking() {
    // Theorem 2 on the sharded scheduler family: adversarial starts
    // still reach a valid, silent ranking (packed words, 4 shards).
    let n = 24;
    let budget = (8000.0 * (n * n) as f64 * (n as f64).log2()) as u64;
    for seed in 0..4u64 {
        let protocol = packed_protocol(n);
        let init = packed_init(&protocol, seed + 50);
        let mut sim = ShardedSimulator::new(protocol, init, seed, 4);
        let stop = sim.run_until(is_valid_ranking, budget, n as u64);
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
    sim.run_faulted(1_000, &mut plan);
    assert!(
        !is_valid_ranking(sim.states()),
        "corruption must break the ranking"
    );
    let budget = (8000.0 * (n * n) as f64 * (n as f64).log2()) as u64;
    let stop = sim.run_until(is_valid_ranking, budget, n as u64);
    assert!(stop.converged_at().is_some(), "no recovery after the fault");
}

/// CRC-64 over everything that pins a packed sharded run's position:
/// the frame (interaction count, shard count, block size, every state
/// word, every cursor with its pending pairs) and the kernel's dispatch
/// mix.
fn digest(sim: &ShardedSimulator<Packed<StableRanking>>) -> u64 {
    let frame = sim.frame();
    let mut crc = Crc64::new();
    crc.update_u64(frame.interactions);
    crc.update_u64(u64::from(frame.shards));
    crc.update_u64(frame.block_pairs);
    for &w in &frame.words {
        crc.update_u64(w);
    }
    for c in &frame.cursors {
        for word in c.rng.into_iter().chain([c.n, c.start, c.len]) {
            crc.update_u64(word);
        }
        crc.update_u64(c.pending.len() as u64);
        for &(a, b) in &c.pending {
            crc.update_u64(u64::from(a));
            crc.update_u64(u64::from(b));
        }
    }
    for count in sim.protocol().inner().dispatch_mix() {
        crc.update_u64(count);
    }
    crc.finish()
}

/// Population size of the pinned runs: not divisible by 3, 4 or 7, so
/// those lanes differ in length.
const PINNED_N: usize = 250;

/// Bursts that split blocks unevenly: a single pair, one past a full
/// sub-block, and sizes that end partway through a block.
const UNEVEN: &[u64] = &[1, 4097, 12_345, 33_333, 50_224];

#[test]
fn multi_shard_trajectories_match_their_pinned_digests() {
    // (shards, block_pairs, bursts, digest). `None` keeps the default
    // block size; 10 000 pairs per shard span three sub-blocks. The
    // digests were recorded before the lane router was made branch-free
    // and must never move without a deliberate trajectory change.
    let cases: [(usize, Option<usize>, &[u64], u64); 10] = [
        (2, None, &[100_000], 0x4f5dd477dce8f40c),
        (3, None, &[100_000], 0xbf58bc9fe903805f),
        (4, None, &[100_000], 0x2f96e5194ade7b51),
        (7, None, &[100_000], 0xb3f8e63ab647c4a4),
        (2, Some(37), &[100_000], 0xcc1eb103065d3f2d),
        (7, Some(37), &[60_000], 0xc4296913dc3cdf5d),
        (3, Some(10_000), &[100_000], 0x4bf3e9380c98e594),
        (4, Some(10_000), &[100_000], 0xd0ea6f4b16240b16),
        (3, None, UNEVEN, 0xf95ef2846ed4c6d0),
        (7, Some(37), UNEVEN, 0xc6a0f930e4d1f171),
    ];
    let mut actual = Vec::new();
    for (k, &(shards, block_pairs, bursts, _)) in cases.iter().enumerate() {
        let run = |workers: usize| {
            let protocol = packed_protocol(PINNED_N);
            let init = packed_init(&protocol, 40 + k as u64);
            let mut sim =
                ShardedSimulator::new(protocol, init, 60 + k as u64, shards).with_workers(workers);
            if let Some(b) = block_pairs {
                sim = sim.with_block_pairs(b);
            }
            for &burst in bursts {
                sim.run(burst);
            }
            digest(&sim)
        };
        let inline = run(1);
        assert_eq!(inline, run(2), "case {k}: workers must not matter");
        actual.push(inline);
    }
    let expected: Vec<u64> = cases.iter().map(|c| c.3).collect();
    assert_eq!(
        actual, expected,
        "pinned sharded trajectories moved (actual first)"
    );
}

#[test]
fn faulted_probed_sharded_run_matches_its_pinned_digest() {
    // A legal ranking, an erase_rank fault, a Recorder watching every
    // block: the recovery trajectory is pinned too.
    let n = PINNED_N;
    let run = |workers: usize| {
        let protocol = packed_protocol(n);
        let legal = protocol.pack_all(&protocol.inner().legal());
        let plan_protocol = StableRanking::new(Params::new(n));
        let mut plan = UnpackedHook::new(FaultPlan::new(31).once(
            20_000,
            ranking_faults::standard("erase_rank", &plan_protocol, n),
        ));
        let mut recorder = Recorder::new();
        let mut sim = ShardedSimulator::new(protocol, legal, 17, 4).with_workers(workers);
        sim.run_faulted_probed(150_000, &mut plan, &mut recorder);
        assert_eq!(plan.inner().fired().len(), 1, "the fault must fire");
        assert!(recorder.recorded() > 0, "the recorder must trace");
        digest(&sim)
    };
    let inline = run(1);
    assert_eq!(inline, run(2), "workers must not matter");
    assert_eq!(
        inline, 0x9db5c6c61ee01716,
        "pinned faulted sharded trajectory moved"
    );
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
            sharded.run(burst);
            prop_assert_eq!(sharded.states(), reference.states().to_vec());
        }
        prop_assert_eq!(sharded.interactions(), reference.interactions());
    }

    /// Random shard counts: the trajectory is a pure function of
    /// `(seed, shards)` — independent of worker count and rerun-stable —
    /// and executes exactly the requested number of interactions.
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
            sim.run(count);
            (sim.interactions(), sim.into_states())
        };
        let (t1, s1) = run(1);
        let (t2, s2) = run(3);
        prop_assert_eq!(t1, count);
        prop_assert_eq!(t2, count);
        prop_assert_eq!(s1, s2);
    }
}
