//! The packed-representation contract (ISSUE 3 acceptance):
//!
//! 1. **Codec** — `PackedState` is a lossless bijection on the valid
//!    state space: `unpack(pack(s)) == s` for every state in the full
//!    enumeration, `pack(unpack(w)) == w` for every word `pack`
//!    produces, and `pack` is injective (it refines the mixed-radix
//!    `encode` audit).
//! 2. **Trajectory** — running `StableRanking` over packed words
//!    (`Packed<StableRanking>`, whose blocks run the word-step kernel
//!    of `ranking::stable::kernel`) is bit-for-bit trajectory-equivalent
//!    to the structured enum path, the readable reference, through
//!    `run_batched` *and* through `run_faulted` under every injector
//!    kind, for multiple population sizes and seeds, across block
//!    boundaries, on blocks that repeat agents, and through the sharded
//!    API. The packed path must be a pure optimization, exactly like
//!    batching — or every throughput number it produces would be a
//!    number for a different protocol.

use std::collections::HashSet;

use proptest::prelude::*;

use silent_ranking::leader_election::fast::{FastLe, FastLeState};
use silent_ranking::population::observe::{Convergence, Unpacked};
use silent_ranking::population::{is_valid_ranking, Packed, Simulator, UnpackedHook};
use silent_ranking::ranking::stable::state::{MainKind, UnRole, UnState};
use silent_ranking::ranking::stable::{PackedState, StableRanking, StableState};
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::{ranking_faults, FaultPlan};

fn protocol(n: usize) -> StableRanking {
    StableRanking::new(Params::new(n))
}

/// The full valid state space for `params` — the same enumeration the
/// `encode_is_injective_over_representative_states` audit walks.
fn enumerate_states(p: &Params) -> Vec<StableState> {
    let fast = FastLe::for_n(p.n(), p.c_live());
    let mut states = Vec::new();
    for r in 1..=p.n() as u64 {
        states.push(StableState::Ranked(r));
    }
    for coin in [false, true] {
        for rc in 0..=p.r_max() {
            for dc in 0..=p.d_max() {
                states.push(StableState::Un(UnState {
                    coin,
                    role: UnRole::Reset {
                        reset_count: rc,
                        delay_count: dc,
                    },
                }));
            }
        }
        for lc in 0..=fast.l_max {
            for cc in 0..=fast.coin_target {
                for (done, lead) in [(false, false), (true, false), (true, true)] {
                    states.push(StableState::Un(UnState {
                        coin,
                        role: UnRole::Elect(FastLeState {
                            le_count: lc,
                            coin_count: cc,
                            leader_done: done,
                            is_leader: lead,
                        }),
                    }));
                }
            }
        }
        for alive in 0..=p.l_max() {
            for w in 1..=p.wait_max() {
                states.push(StableState::Un(UnState {
                    coin,
                    role: UnRole::Main {
                        alive,
                        kind: MainKind::Waiting(w),
                    },
                }));
            }
            for k in 1..=p.coin_target() {
                states.push(StableState::Un(UnState {
                    coin,
                    role: UnRole::Main {
                        alive,
                        kind: MainKind::Phase(k),
                    },
                }));
            }
        }
    }
    states
}

#[test]
fn codec_roundtrips_and_is_injective_over_the_full_state_space() {
    for n in [2usize, 7, 64, 257] {
        let p = Params::new(n);
        let states = enumerate_states(&p);
        let mut words = HashSet::new();
        for s in &states {
            let w = PackedState::pack(s);
            assert_eq!(w.unpack(), *s, "unpack(pack(s)) != s at n={n}");
            assert_eq!(
                PackedState::pack(&w.unpack()),
                w,
                "pack(unpack(w)) != w at n={n}"
            );
            assert!(words.insert(w.bits()), "pack not injective at n={n}: {s:?}");
        }
        assert_eq!(words.len(), states.len());
    }
}

#[test]
fn packed_rank_output_matches_structured_rank_output() {
    use silent_ranking::population::RankOutput;
    let p = Params::new(64);
    for s in enumerate_states(&p) {
        assert_eq!(PackedState::pack(&s).rank(), s.rank());
    }
}

/// Run the same trajectory twice — structured enum states in
/// `chunk`-sized `run_batched` calls vs packed words in one call — and
/// assert exact agreement of configurations, interaction counters, and
/// reset instrumentation, and that the kernel's dispatch mix accounts
/// for every interaction.
fn assert_batched_equivalent(n: usize, config_seed: u64, seed: u64, total: u64, chunk: u64) {
    let enum_sim = {
        let p = protocol(n);
        let init = p.adversarial_uniform(config_seed);
        let mut sim = Simulator::new(p, init, seed);
        let mut left = total;
        while left > 0 {
            let step = chunk.min(left);
            sim.run_batched(step);
            left -= step;
        }
        sim
    };

    let packed_sim = {
        let p = Packed(protocol(n));
        let init = p.pack_all(&p.inner().adversarial_uniform(config_seed));
        let mut sim = Simulator::new(p, init, seed);
        sim.run_batched(total);
        sim
    };

    assert_eq!(enum_sim.interactions(), packed_sim.interactions());
    let unpacked = packed_sim.protocol().unpack_all(packed_sim.states());
    assert_eq!(
        enum_sim.states(),
        &unpacked[..],
        "packed trajectory diverged (n={n}, config_seed={config_seed}, seed={seed}, total={total})"
    );
    assert_eq!(
        enum_sim.protocol().resets_triggered(),
        packed_sim.protocol().inner().resets_triggered(),
        "reset instrumentation diverged"
    );
    let mix = packed_sim.protocol().inner().dispatch_mix();
    assert_eq!(
        mix.iter().sum::<u64>(),
        total,
        "kernel dispatch mix must account for every interaction (n={n}, seed={seed})"
    );
}

#[test]
fn packed_equals_enum_through_run_batched() {
    for n in [2usize, 3, 8, 24, 33, 257] {
        for seed in 0..3u64 {
            assert_batched_equivalent(n, seed.wrapping_mul(7919) + 1, seed, 60_000, 60_000);
        }
    }
}

#[test]
fn packed_equals_enum_from_structured_initializations() {
    let n = 24;
    let makes: Vec<fn(&StableRanking) -> Vec<StableState>> = vec![
        |p| p.initial(),
        |p| p.figure2(),
        |p| p.figure3(),
        |p| p.all_same_rank(5),
        |p| p.all_waiting(),
        |p| p.all_phase(1),
        |p| p.legal(),
    ];
    for make in makes {
        let p = protocol(n);
        let init = make(&p);
        let mut enum_sim = Simulator::new(p, init, 11);
        enum_sim.run_batched(40_000);

        let p = Packed(protocol(n));
        let init = p.pack_all(&make(p.inner()));
        let mut packed_sim = Simulator::new(p, init, 11);
        packed_sim.run_batched(40_000);

        let unpacked = packed_sim.protocol().unpack_all(packed_sim.states());
        assert_eq!(enum_sim.states(), &unpacked[..]);
    }
}

/// Single-shot plan for one injector kind, firing at `at`.
fn plan_for(kind: &str, p: &StableRanking, n: usize, at: u64, seed: u64) -> FaultPlan<StableState> {
    FaultPlan::new(seed ^ 0xBEEF).once(at, ranking_faults::standard(kind, p, n))
}

#[test]
fn packed_equals_enum_through_run_faulted_for_every_injector() {
    for kind in ranking_faults::KINDS {
        for (n, seed) in [(8usize, 1u64), (24, 2), (33, 3)] {
            let total = 30_000u64;
            let at = total / 2;

            let p = protocol(n);
            let init = p.figure3();
            let mut plan = plan_for(kind, &p, n, at, seed);
            let mut enum_sim = Simulator::new(p, init, seed);
            enum_sim.run_faulted(total, &mut plan);

            let p = Packed(protocol(n));
            let init = p.pack_all(&p.inner().figure3());
            let mut hook = UnpackedHook::new(plan_for(kind, p.inner(), n, at, seed));
            let mut packed_sim = Simulator::new(p, init, seed);
            packed_sim.run_faulted(total, &mut hook);

            assert_eq!(
                plan.fired(),
                hook.inner().fired(),
                "{kind}: firing logs diverged"
            );
            let unpacked = packed_sim.protocol().unpack_all(packed_sim.states());
            assert_eq!(
                enum_sim.states(),
                &unpacked[..],
                "{kind}: packed faulted trajectory diverged (n={n}, seed={seed})"
            );
        }
    }
}

#[test]
fn packed_run_converges_with_word_level_predicates_and_unpacked_observers() {
    // `PackedState` implements `RankOutput`, so `is_valid_ranking`
    // reads the words directly — no unpacking on the observation path.
    let n = 16;
    let p = protocol(n);
    let init = p.adversarial_uniform(5);
    let mut enum_sim = Simulator::new(p, init, 9);
    let enum_stop = enum_sim.run_until(is_valid_ranking, 50_000_000, n as u64);

    let p = Packed(protocol(n));
    let init = p.pack_all(&p.inner().adversarial_uniform(5));
    let mut packed_sim = Simulator::new(p, init, 9);
    let packed_stop = packed_sim.run_until(is_valid_ranking, 50_000_000, n as u64);
    assert_eq!(enum_stop, packed_stop, "hitting times must coincide");

    // The structured-observer boundary: an enum-state observer wrapped
    // in `Unpacked` sees the same trajectory at checkpoints.
    let p = Packed(protocol(n));
    let init = p.pack_all(&p.inner().adversarial_uniform(5));
    let mut sim = Simulator::new(p, init, 9);
    let mut conv = Unpacked::<StableRanking, _>::new(Convergence::new(|s: &[StableState]| {
        is_valid_ranking(s)
    }));
    let stop = sim.run_observed(50_000_000, n as u64, &mut conv);
    assert_eq!(stop, packed_stop);
    assert_eq!(conv.inner().converged_at(), packed_stop.converged_at());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Randomized batched equivalence across population sizes, seeds,
    /// horizons, and chunk decompositions.
    #[test]
    fn packed_trajectory_equivalence_holds_for_random_runs(
        n in 2usize..48,
        config_seed in 0u64..10_000,
        seed in 0u64..10_000,
        total in 0u64..25_000,
        chunk in 1u64..8000,
    ) {
        assert_batched_equivalent(n, config_seed, seed, total, chunk);
    }

    /// Randomized faulted equivalence with a periodic sustained fault.
    #[test]
    fn packed_faulted_equivalence_holds_under_periodic_corruption(
        seed in 0u64..10_000,
        every in 500u64..5000,
    ) {
        let n = 16;
        let total = 20_000u64;

        let p = protocol(n);
        let init = p.adversarial_uniform(seed);
        let mut plan = FaultPlan::new(seed)
            .periodic(every, every, ranking_faults::corrupt(&p, n / 2));
        let mut enum_sim = Simulator::new(p, init, seed);
        enum_sim.run_faulted(total, &mut plan);

        let p = Packed(protocol(n));
        let init = p.pack_all(&p.inner().adversarial_uniform(seed));
        let mut hook = UnpackedHook::new(
            FaultPlan::new(seed).periodic(every, every, ranking_faults::corrupt(p.inner(), n / 2)),
        );
        let mut packed_sim = Simulator::new(p, init, seed);
        packed_sim.run_faulted(total, &mut hook);

        prop_assert_eq!(plan.fired(), hook.inner().fired());
        let unpacked = packed_sim.protocol().unpack_all(packed_sim.states());
        prop_assert_eq!(enum_sim.states(), &unpacked[..]);
    }
}

// ---------------------------------------------------------------------
// Block-kernel cases: `Packed<StableRanking>` hands whole blocks to the
// in-order kernel, so block boundaries, agents repeated inside a block,
// the sharded API and the smallest populations each get their own
// enum-referenced check.

use silent_ranking::population::schedule::Pair;
use silent_ranking::population::Protocol;

#[test]
fn kernel_equivalence_holds_across_block_boundary_chunks() {
    // The engine samples schedule blocks of 4096 pairs; driving the
    // reference in chunks of 4095/4096/4097 exercises full blocks,
    // exact-boundary blocks, and every partial-tail size around them.
    for chunk in [4095u64, 4096, 4097] {
        assert_batched_equivalent(48, 5, 11, 20_000, chunk);
    }
}

#[test]
fn kernel_transition_block_handles_repeated_agents_like_the_scalar_loop() {
    // Direct `transition_block` calls with crafted pair lists in which
    // the same agent appears many times per block — the read-after-write
    // hazard the in-order kernel must preserve exactly. The reference
    // is the enum path's pair-at-a-time loop.
    let n = 64usize;
    let pair_sets: Vec<Vec<Pair>> = vec![
        vec![(0, 1); 64],
        (0..63).map(|k| (k as u32, k as u32 + 1)).collect(),
        (0..4096)
            .map(|k: u32| (k % n as u32, (k * 7 + 1) % n as u32))
            .filter(|&(i, j)| i != j)
            .collect(),
    ];
    for pairs in pair_sets {
        let kernel = Packed(protocol(n));
        let mut kernel_words = kernel.pack_all(&kernel.inner().adversarial_uniform(9));
        let kernel_changed = Protocol::transition_block(&kernel, &mut kernel_words, &pairs);

        let reference = protocol(n);
        let mut ref_states = reference.adversarial_uniform(9);
        let ref_changed = Protocol::transition_block(&reference, &mut ref_states, &pairs);

        assert_eq!(
            kernel.unpack_all(&kernel_words),
            ref_states,
            "{} pairs",
            pairs.len()
        );
        assert_eq!(kernel_changed, ref_changed);
        assert_eq!(
            kernel.inner().resets_triggered(),
            reference.resets_triggered()
        );
    }
}

#[test]
fn kernel_equals_enum_through_the_sharded_engine() {
    // The sharded API runs the sequential engine at every shard count,
    // so sharded kernel runs must match sharded enum runs there too.
    use silent_ranking::population::{NoFaults, NullProbe};
    use silent_ranking::shard::ShardedSimulator;
    for shards in [2usize, 4] {
        for (n, seed) in [(32usize, 2u64), (65, 6)] {
            let p = protocol(n);
            let init = p.adversarial_uniform(seed);
            let mut enum_sim = ShardedSimulator::new(p, init, seed, shards);
            enum_sim.run_faulted_probed(50_000, &mut NoFaults, &mut NullProbe);

            let p = Packed(protocol(n));
            let init = p.pack_all(&p.inner().adversarial_uniform(seed));
            let mut kernel_sim = ShardedSimulator::new(p, init, seed, shards);
            kernel_sim.run_faulted_probed(50_000, &mut NoFaults, &mut NullProbe);

            let unpacked = kernel_sim.protocol().unpack_all(kernel_sim.states());
            assert_eq!(
                enum_sim.states(),
                &unpacked[..],
                "shards={shards}, n={n}, seed={seed}"
            );
            assert_eq!(enum_sim.interactions(), kernel_sim.interactions());
            assert_eq!(
                enum_sim.protocol().resets_triggered(),
                kernel_sim.protocol().inner().resets_triggered(),
                "shards={shards}, n={n}, seed={seed}: reset instrumentation"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Kernel vs the scalar word loop: the same packed words, stepped one
// pair at a time through `transition_packed` instead of handed to the
// block kernel. The two must be bit-for-bit twins on the words
// themselves, not only after unpacking.

use silent_ranking::population::{FaultHook, PackedProtocol};

/// `Packed<P>` with every block run through the default pair-at-a-time
/// loop of `Protocol::transition_block` over `transition_packed`.
struct ScalarBlock<P: PackedProtocol>(Packed<P>);

impl<P: PackedProtocol> Protocol for ScalarBlock<P> {
    type State = P::Packed;

    fn n(&self) -> usize {
        self.0.n()
    }

    fn transition(&self, u: &mut P::Packed, v: &mut P::Packed) -> bool {
        self.0.inner().transition_packed(u, v)
    }
}

/// Unpacked fault plans fire on the scalar loop's words exactly as
/// they do on `Packed<P>`'s.
impl<P: PackedProtocol, H: FaultHook<P>> FaultHook<ScalarBlock<P>> for UnpackedHook<H> {
    const ACTIVE: bool = H::ACTIVE;

    fn next_fire(&mut self, now: u64) -> Option<u64> {
        FaultHook::<Packed<P>>::next_fire(self, now)
    }

    fn fire(&mut self, protocol: &ScalarBlock<P>, t: u64, words: &mut [P::Packed]) {
        FaultHook::<Packed<P>>::fire(self, &protocol.0, t, words);
    }
}

#[test]
fn kernel_equals_scalar_block_through_run_batched() {
    for n in [2usize, 3, 8, 33, 257] {
        for seed in 0..3u64 {
            let (config_seed, total) = (seed.wrapping_mul(7919) + 1, 60_000u64);

            let p = ScalarBlock(Packed(protocol(n)));
            let init = p.0.pack_all(&p.0.inner().adversarial_uniform(config_seed));
            let mut scalar_sim = Simulator::new(p, init, seed);
            scalar_sim.run_batched(total);

            let p = Packed(protocol(n));
            let init = p.pack_all(&p.inner().adversarial_uniform(config_seed));
            let mut kernel_sim = Simulator::new(p, init, seed);
            kernel_sim.run_batched(total);

            assert_eq!(scalar_sim.interactions(), kernel_sim.interactions());
            assert_eq!(
                scalar_sim.states(),
                kernel_sim.states(),
                "kernel trajectory diverged (n={n}, seed={seed})"
            );
            assert_eq!(
                scalar_sim.protocol().0.inner().resets_triggered(),
                kernel_sim.protocol().inner().resets_triggered(),
                "kernel reset instrumentation diverged (n={n}, seed={seed})"
            );
        }
    }
}

#[test]
fn kernel_equals_scalar_block_through_run_faulted() {
    for kind in ranking_faults::KINDS {
        let (n, seed, total) = (24usize, 4u64, 30_000u64);
        let at = total / 2;

        let p = ScalarBlock(Packed(protocol(n)));
        let init = p.0.pack_all(&p.0.inner().figure3());
        let mut scalar_hook = UnpackedHook::new(plan_for(kind, p.0.inner(), n, at, seed));
        let mut scalar_sim = Simulator::new(p, init, seed);
        scalar_sim.run_faulted(total, &mut scalar_hook);

        let p = Packed(protocol(n));
        let init = p.pack_all(&p.inner().figure3());
        let mut kernel_hook = UnpackedHook::new(plan_for(kind, p.inner(), n, at, seed));
        let mut kernel_sim = Simulator::new(p, init, seed);
        kernel_sim.run_faulted(total, &mut kernel_hook);

        assert_eq!(
            scalar_hook.inner().fired(),
            kernel_hook.inner().fired(),
            "{kind}: firing logs diverged"
        );
        assert_eq!(
            scalar_sim.states(),
            kernel_sim.states(),
            "{kind}: kernel faulted trajectory diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The random runs again at the two smallest populations, where the
    /// word step's two-agent special case (n = 2) and the lottery's
    /// shortest horizon (n = 3) run on nearly every interaction.
    #[test]
    fn kernel_equivalence_holds_for_random_runs(
        config_seed in 0u64..10_000,
        seed in 0u64..10_000,
        total in 0u64..25_000,
        chunk in 1u64..8000,
    ) {
        for n in [2usize, 3] {
            assert_batched_equivalent(n, config_seed, seed, total, chunk);
        }
    }
}
