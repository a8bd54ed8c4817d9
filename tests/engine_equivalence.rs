//! The engine's load-bearing invariant: `run_batched` is bit-for-bit
//! trajectory-equivalent to scalar `step`-by-`step` execution under the
//! same seed, for every protocol and every batch-size decomposition.
//! Everything else in this repository (figure regeneration, theorem
//! validation, the throughput numbers in `BENCH_engine.json`) leans on
//! this property — the batched hot path must be a pure optimization.
//!
//! The same holds between the two ways a block reaches the kernel: the
//! uniform `Schedule` feeds `Packed<StableRanking>` pairs drawn as the
//! kernel pulls them, and any other source hands it a sampled block.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use silent_ranking::baselines::cai::CaiRanking;
use silent_ranking::dynamic::{ChurnConfig, DynamicPopulation};
use silent_ranking::population::primitives::coin::CoinPopulation;
use silent_ranking::population::primitives::epidemic::Epidemic;
use silent_ranking::population::schedule::Pair;
use silent_ranking::population::{
    drive, Capture, CursorSource, NoFaults, NoPoll, NoSaves, Packed, PairSource, Probe, Protocol,
    Schedule, ScheduleCursor, Simulator,
};
use silent_ranking::ranking::stable::StableRanking;
use silent_ranking::ranking::Params;

/// Run `total` interactions twice from identical initial conditions —
/// once through scalar `step`, once through `run_batched` in chunks of
/// `batch` — and assert the final configurations and interaction
/// counters coincide exactly.
fn assert_equivalent<P, F>(make: F, seed: u64, total: u64, batch: u64)
where
    P: Protocol,
    F: Fn() -> (P, Vec<P::State>),
{
    let (protocol, init) = make();
    let mut scalar = Simulator::new(protocol, init, seed);
    for _ in 0..total {
        scalar.step();
    }

    let (protocol, init) = make();
    let mut batched = Simulator::new(protocol, init, seed);
    let mut left = total;
    while left > 0 {
        let chunk = batch.min(left);
        batched.run_batched(chunk);
        left -= chunk;
    }

    assert_eq!(scalar.interactions(), batched.interactions());
    assert_eq!(
        scalar.states(),
        batched.states(),
        "trajectories diverged (seed {seed}, total {total}, batch {batch})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 25, ..ProptestConfig::default() })]

    #[test]
    fn epidemic_batched_equals_scalar(
        seed in 0u64..10_000,
        total in 0u64..30_000,
        batch in 1u64..6000,
    ) {
        assert_equivalent(
            || {
                let p = Epidemic::new(200);
                let init = p.initial(100);
                (p, init)
            },
            seed,
            total,
            batch,
        );
    }

    #[test]
    fn coin_batched_equals_scalar(
        seed in 0u64..10_000,
        total in 0u64..30_000,
        batch in 1u64..6000,
    ) {
        assert_equivalent(
            || {
                let p = CoinPopulation::new(64);
                let init = p.all_tails();
                (p, init)
            },
            seed,
            total,
            batch,
        );
    }

    #[test]
    fn cai_batched_equals_scalar(
        seed in 0u64..10_000,
        total in 0u64..20_000,
        batch in 1u64..6000,
    ) {
        assert_equivalent(
            || {
                let p = CaiRanking::new(32);
                let init = p.all_equal();
                (p, init)
            },
            seed,
            total,
            batch,
        );
    }

    #[test]
    fn stable_ranking_batched_equals_scalar(
        config_seed in 0u64..10_000,
        seed in 0u64..10_000,
        total in 0u64..20_000,
        batch in 1u64..6000,
    ) {
        assert_equivalent(
            || {
                let p = StableRanking::new(Params::new(48));
                let init = p.adversarial_uniform(config_seed);
                (p, init)
            },
            seed,
            total,
            batch,
        );
    }

    /// Batch-size decompositions beyond fixed chunks: interleave scalar
    /// steps with batched bursts of varying sizes and compare against a
    /// single straight batched run.
    #[test]
    fn interleaved_execution_equals_pure_batched(
        seed in 0u64..10_000,
        a in 0u64..3000,
        b in 0u64..3000,
        c in 0u64..3000,
    ) {
        let total = a + b + c;
        let make = || {
            let p = StableRanking::new(Params::new(32));
            let init = p.figure3();
            (p, init)
        };

        let (protocol, init) = make();
        let mut pure = Simulator::new(protocol, init, seed);
        pure.run_batched(total);

        let (protocol, init) = make();
        let mut mixed = Simulator::new(protocol, init, seed);
        mixed.run_batched(a);
        for _ in 0..b {
            mixed.step();
        }
        mixed.run_batched(c);

        prop_assert_eq!(mixed.interactions(), total);
        prop_assert_eq!(pure.states(), mixed.states());
    }
}

/// A `Schedule` seen only through the required `PairSource` methods, so
/// every block takes the default feed: `sample_block` fills the buffer
/// and the kernel reads the block back from it.
struct Buffered(Schedule);

impl PairSource for Buffered {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn next_pair(&mut self) -> (usize, usize) {
        self.0.next_pair()
    }

    fn sample_block(&mut self, max: usize) -> &[Pair] {
        self.0.sample_block(max)
    }
}

/// Records `(t, changed)` for every block.
#[derive(Default)]
struct BlockLog(Vec<(u64, u64)>);

impl<P: Protocol> Probe<P> for BlockLog {
    fn block(&mut self, _: &P, t: u64, changed: u64, _: usize, _: usize, _: &[P::State]) {
        self.0.push((t, changed));
    }
}

type Kernel = Packed<StableRanking>;

/// Burst sizes around the block length, then random ones.
fn bursts(seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sizes = vec![1, 2, 4095, 4096, 4097];
    sizes.extend((0..5).map(|_| rng.random_range(1..10_000u64)));
    sizes
}

/// The configuration, the pair-source position and the kernel's
/// counters all agree.
fn assert_same_run(fused: &Simulator<Kernel>, buffered: &Simulator<Kernel, Buffered>) {
    assert_eq!(fused.interactions(), buffered.interactions());
    assert_eq!(fused.states(), buffered.states(), "states diverged");
    assert_eq!(
        fused.source().cursor(),
        buffered.source().0.cursor(),
        "pair-source positions diverged"
    );
    let (f, b) = (fused.protocol().inner(), buffered.protocol().inner());
    assert_eq!(f.dispatch_mix(), b.dispatch_mix(), "dispatch mix diverged");
    assert_eq!(
        f.resets_triggered(),
        b.resets_triggered(),
        "reset count diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 25, ..ProptestConfig::default() })]

    /// The drawn feed executes the same pairs in the same blocks as the
    /// buffered one: bursts of every size, scalar steps in between, and
    /// a restored cursor whose pending pairs are served first.
    #[test]
    fn fused_feed_equals_buffered_feed(
        config_seed in 0u64..10_000,
        seed in 0u64..10_000,
        burst_seed in any::<u64>(),
        pending in 0usize..6000,
    ) {
        let n = 48;
        let mut tail = Schedule::new(n, seed ^ 0x5EED);
        let pending: Vec<Pair> = (0..pending)
            .map(|_| {
                let (i, j) = tail.next_pair();
                (i as u32, j as u32)
            })
            .collect();
        let cursor = ScheduleCursor { pending, ..Schedule::new(n, seed).cursor() };
        let make = || {
            let p = Packed(StableRanking::new(Params::new(n)));
            let init = p.pack_all(&p.inner().adversarial_uniform(config_seed));
            (p, init)
        };
        let (p, init) = make();
        let mut fused = Simulator::with_source(p, init, Schedule::from_cursor(cursor.clone()));
        let (p, init) = make();
        let mut buffered = Simulator::with_source(p, init, Buffered(Schedule::from_cursor(cursor)));

        let (mut fused_log, mut buffered_log) = (BlockLog::default(), BlockLog::default());
        for (k, burst) in bursts(burst_seed).into_iter().enumerate() {
            drive(&mut fused, burst, &mut NoFaults, &mut NoSaves, &mut NoPoll, &mut fused_log);
            drive(&mut buffered, burst, &mut NoFaults, &mut NoSaves, &mut NoPoll, &mut buffered_log);
            for _ in 0..k % 3 {
                prop_assert_eq!(fused.step(), buffered.step());
            }
            assert_same_run(&fused, &buffered);
        }
        prop_assert_eq!(fused_log.0, buffered_log.0, "per-block changed counts diverged");
    }

    /// Zero churn anchors the dynamic engine, which runs the drawn feed,
    /// to the fixed-n simulator on the buffered one.
    #[test]
    fn zero_churn_dynamic_engine_equals_buffered_feed(n in 8usize..40, seed in 0u64..5000) {
        let mut dynpop =
            DynamicPopulation::<Kernel>::new(Params::new(n), ChurnConfig::quiescent(), seed);
        let p = Packed(StableRanking::new(Params::new(n)));
        let init = p.pack_all(&p.inner().initial());
        let mut sim = Simulator::with_source(p, init, Buffered(Schedule::new(n, seed)));
        let total = (n * n * 8) as u64 + 137;
        dynpop.run(total);
        sim.run_batched(total);
        prop_assert_eq!(dynpop.states(), sim.states());
        prop_assert_eq!(dynpop.interactions(), sim.interactions());
        prop_assert_eq!(&dynpop.frame().cursors, &vec![sim.source().0.cursor()]);
    }
}
