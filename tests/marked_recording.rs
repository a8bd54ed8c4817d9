//! A recorder handed only the marked agents records what a full scan
//! records.
//!
//! At every block boundary after the first of a run segment, the block
//! loop hands an active probe only the agents the kernel marked as
//! changed (`Protocol::transition_marked`). `Packed<StableRanking>` marks
//! exactly the agents whose class key changed; `FullScan`, its twin,
//! forwards every method but that one, so the default marks every agent
//! and its recorder scans the whole configuration at every boundary, as
//! the recorder did before marks existed. Both run the same trajectory,
//! so their recorders must end with identical events, counts and metric
//! snapshots, on
//!
//! * `Simulator` and the sharded API at 1, 2 and 3 shards, whose
//!   boundaries fall every block and every `shards` blocks;
//! * runs split into segments of random lengths, with `erase_rank`,
//!   `corrupt` and `randomize` firing inside and at the edges of
//!   segments;
//! * the dynamic engine under churn, whose joins, departures and epoch
//!   rolls edit the lane between segments.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use silent_ranking::dynamic::{ChurnConfig, DynRanking, DynamicPopulation};
use silent_ranking::population::schedule::Pair;
use silent_ranking::population::{
    drive, Engine, FaultHook, NoFaults, NoPoll, NoSaves, Packed, PairSource, Protocol, Simulator,
    UnpackedHook, WordState,
};
use silent_ranking::ranking::stable::{PackedState, StableRanking, StableState};
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::{ranking_faults, FaultPlan};
use silent_ranking::shard::ShardedSimulator;
use silent_ranking::telemetry::Recorder;

type Kernel = Packed<StableRanking>;

/// `Packed<StableRanking>` without its marks: everything that executes,
/// skips or encodes forwards, and `transition_marked` keeps the default.
#[derive(Debug, Clone)]
struct FullScan(Kernel);

impl Protocol for FullScan {
    type State = PackedState;

    fn n(&self) -> usize {
        self.0.n()
    }

    fn transition(&self, u: &mut PackedState, v: &mut PackedState) -> bool {
        self.0.transition(u, v)
    }

    fn transition_block(&self, states: &mut [PackedState], pairs: &[Pair]) -> u64 {
        self.0.transition_block(states, pairs)
    }

    fn transition_from<S: PairSource>(
        &self,
        states: &mut [PackedState],
        source: &mut S,
        max: usize,
    ) -> (usize, u64) {
        self.0.transition_from(states, source, max)
    }

    fn silent(&self, states: &[PackedState]) -> bool {
        self.0.silent(states)
    }

    fn count_null(&self, pairs: u64) {
        self.0.count_null(pairs)
    }
}

impl WordState for FullScan {
    fn state_to_word(&self, state: &PackedState) -> u64 {
        self.0.state_to_word(state)
    }

    fn state_from_word(&self, word: u64) -> Result<PackedState, String> {
        self.0.state_from_word(word)
    }
}

impl DynRanking for FullScan {
    fn with_params(params: Params) -> Self {
        FullScan(Kernel::with_params(params))
    }

    fn fresh(&self, coin: bool) -> PackedState {
        self.0.fresh(coin)
    }

    fn ranked(&self, rank: u64) -> PackedState {
        self.0.ranked(rank)
    }

    fn rank_of(&self, state: &PackedState) -> Option<u64> {
        self.0.rank_of(state)
    }
}

/// A fault hook written for the kernel, run on its twin.
struct OnTwin<H>(H);

impl<H: FaultHook<Kernel>> FaultHook<FullScan> for OnTwin<H> {
    const ACTIVE: bool = H::ACTIVE;

    fn next_fire(&mut self, now: u64) -> Option<u64> {
        self.0.next_fire(now)
    }

    fn fire(&mut self, protocol: &FullScan, t: u64, states: &mut [PackedState]) {
        self.0.fire(&protocol.0, t, states);
    }
}

fn protocol(n: usize) -> StableRanking {
    StableRanking::new(Params::new(n))
}

/// The run's script: segment lengths summing to about 60,000
/// interactions (15 blocks), some shorter than a block, and three fault
/// times, one of them on a segment edge.
fn script(seed: u64) -> (Vec<u64>, [u64; 3]) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut segments = vec![1, 4096, 4097];
    segments.extend((0..5).map(|_| rng.random_range(1..20_000u64)));
    let edge = segments[..3].iter().sum();
    let faults = [
        edge,
        rng.random_range(1..30_000u64),
        rng.random_range(30_000..60_000u64),
    ];
    (segments, faults)
}

/// `erase_rank`, `corrupt` and `randomize` at the script's times.
fn plan(n: usize, seed: u64, at: [u64; 3]) -> UnpackedHook<FaultPlan<StableState>> {
    let p = protocol(n);
    UnpackedHook::new(
        FaultPlan::new(seed ^ 0x5EED)
            .once(at[0], ranking_faults::erase_rank(&p, (n / 4).max(1)))
            .once(at[1], ranking_faults::corrupt(&p, (n / 4).max(1)))
            .once(at[2], ranking_faults::randomize(&p)),
    )
}

/// Run `engine` segment by segment under `hook`, recording.
fn record<E: Engine<Protocol = P>, P: Protocol<State = PackedState>>(
    engine: &mut E,
    segments: &[u64],
    hook: &mut impl FaultHook<P>,
) -> Recorder {
    // A small ring, so that both recorders drop events too.
    let mut recorder = Recorder::with_capacity(16);
    for &count in segments {
        drive(
            engine,
            count,
            hook,
            &mut NoSaves,
            &mut NoPoll,
            &mut recorder,
        );
    }
    recorder
}

fn assert_same_recording(marked: &Recorder, full: &Recorder, case: &str) {
    assert!(full.recorded() > full.dropped(), "{case}: nothing kept");
    assert!(full.dropped() > 0, "{case}: the ring never filled");
    assert_eq!(marked.events(), full.events(), "{case}: events");
    assert_eq!(marked.recorded(), full.recorded(), "{case}: recorded");
    assert_eq!(marked.dropped(), full.dropped(), "{case}: dropped");
    assert_eq!(
        marked.metrics().snapshot(),
        full.metrics().snapshot(),
        "{case}: metrics"
    );
}

/// Churn at `lambda` arrivals per million interactions, with lifetimes
/// that keep about `n` agents alive. At 50 a lifecycle event falls about
/// every two blocks, so boundaries inside a segment hand over marks; at
/// 800 nearly every segment is shorter than a block.
fn churn(n: usize, lambda: f64) -> ChurnConfig {
    ChurnConfig::poisson(lambda, n as f64 * 1.0e6 / lambda)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn marked_recording_equals_full_scans_on_the_sequential_engine(
        n in 8usize..200,
        seed in 0u64..5000,
    ) {
        let (segments, faults) = script(seed);
        let init = Packed(protocol(n)).pack_all(&protocol(n).adversarial_uniform(seed));
        let mut marked = Simulator::new(Packed(protocol(n)), init.clone(), seed);
        let mut full = Simulator::new(FullScan(Packed(protocol(n))), init, seed);
        let marked_rec = record(&mut marked, &segments, &mut plan(n, seed, faults));
        let full_rec = record(&mut full, &segments, &mut OnTwin(plan(n, seed, faults)));
        prop_assert_eq!(marked.states(), full.states());
        assert_same_recording(&marked_rec, &full_rec, &format!("n={n} seed={seed}"));
    }

    #[test]
    fn marked_recording_equals_full_scans_on_the_sharded_api(
        n in 8usize..200,
        seed in 0u64..5000,
    ) {
        let (segments, faults) = script(seed);
        let init = Packed(protocol(n)).pack_all(&protocol(n).adversarial_uniform(seed));
        for shards in [1, 2, 3] {
            let mut marked = ShardedSimulator::new(Packed(protocol(n)), init.clone(), seed, shards);
            let mut full =
                ShardedSimulator::new(FullScan(Packed(protocol(n))), init.clone(), seed, shards);
            let marked_rec = record(&mut marked, &segments, &mut plan(n, seed, faults));
            let full_rec = record(&mut full, &segments, &mut OnTwin(plan(n, seed, faults)));
            prop_assert_eq!(marked.states(), full.states());
            assert_same_recording(
                &marked_rec,
                &full_rec,
                &format!("n={n} seed={seed} shards={shards}"),
            );
        }
    }

    #[test]
    fn marked_recording_equals_full_scans_under_churn(n in 8usize..64, seed in 0u64..5000) {
        let (segments, _) = script(seed);
        for lambda in [50.0, 800.0] {
            let config = churn(n, lambda);
            let mut marked = DynamicPopulation::<Kernel>::new(Params::new(n), config.clone(), seed);
            let mut full = DynamicPopulation::<FullScan>::new(Params::new(n), config, seed);
            let marked_rec = record(&mut marked, &segments, &mut NoFaults);
            let full_rec = record(&mut full, &segments, &mut NoFaults);
            prop_assert_eq!(marked.states(), full.states());
            prop_assert_eq!(marked.ids(), full.ids());
            assert_same_recording(
                &marked_rec,
                &full_rec,
                &format!("n={n} seed={seed} lambda={lambda}"),
            );
        }
    }
}
