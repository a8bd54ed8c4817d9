//! The Byzantine-agent subsystem contract (ISSUE 5 acceptance):
//!
//! 1. **k = 0 equivalence** — `Byzantine<P>` with no adversaries is
//!    bit-for-bit trajectory-equivalent to the unwrapped protocol, on
//!    the structured enum path *and* on the packed word path (the
//!    wrapper must be a pure seam, exactly like batching and packing).
//! 2. **Determinism** — the trajectory is a pure function of
//!    `(seed, k, strategy)` on top of the scheduler seed, for every
//!    canonical strategy.
//! 3. **HonestRanking** — the observer agrees with a brute-force
//!    honest-subset check on arbitrary configurations, and the one
//!    `run_honest` driver reaches the same verdict on the sequential
//!    and the sharded engine.
//! 4. **Classification** — the exhaustive tiny-`n` checker reproduces
//!    the strategy taxonomy the benchmark measures.

use proptest::prelude::*;

use silent_ranking::population::{
    is_valid_honest_ranking, HonestOutput, HonestRanking, Observer, Packed, RankOutput, Simulator,
};
use silent_ranking::ranking::stable::{StableRanking, StableState};
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::byzantine::{run_honest, Byzantine};
use silent_ranking::scenarios::{classify, ranking_byz, ByzState, Strategy, Tolerance};
use silent_ranking::shard::ShardedSimulator;

fn protocol(n: usize) -> StableRanking {
    StableRanking::new(Params::new(n))
}

// ----------------------------------------------------------------------
// 1. k = 0 bit-for-bit equivalence
// ----------------------------------------------------------------------

fn assert_k0_equivalent_enum(kind: &str, n: usize, seed: u64, total: u64) {
    let mut plain = Simulator::new(protocol(n), protocol(n).adversarial_uniform(seed), seed);
    let byz = Byzantine::new(
        protocol(n),
        ranking_byz::standard(kind, &protocol(n)),
        0,
        99,
    );
    let init = byz.init(protocol(n).adversarial_uniform(seed));
    let mut wrapped = Simulator::new(byz, init, seed);
    plain.run_batched(total);
    wrapped.run_batched(total);
    let unwrapped: Vec<StableState> = wrapped
        .states()
        .iter()
        .map(|s| *ByzState::state(s))
        .collect();
    assert_eq!(
        unwrapped,
        plain.states(),
        "k=0 enum path diverged ({kind}, n={n}, seed={seed})"
    );
    assert!(wrapped.states().iter().all(|s| !s.is_byzantine()));
}

fn assert_k0_equivalent_packed(kind: &str, n: usize, seed: u64, total: u64) {
    let packed = Packed(protocol(n));
    let init = packed.pack_all(&protocol(n).adversarial_uniform(seed));
    let mut plain = Simulator::new(packed, init.clone(), seed);
    let byz = Byzantine::new(
        Packed(protocol(n)),
        ranking_byz::standard_packed(kind, &protocol(n)),
        0,
        99,
    );
    let init = byz.init(init);
    let mut wrapped = Simulator::new(byz, init, seed);
    plain.run_batched(total);
    wrapped.run_batched(total);
    let unwrapped: Vec<_> = wrapped
        .states()
        .iter()
        .map(|s| *ByzState::state(s))
        .collect();
    assert_eq!(
        unwrapped,
        plain.states(),
        "k=0 packed path diverged ({kind}, n={n}, seed={seed})"
    );
}

#[test]
fn k0_is_bit_for_bit_for_every_strategy_on_both_paths() {
    for kind in ranking_byz::STRATEGIES {
        assert_k0_equivalent_enum(kind, 16, 7, 40_000);
        assert_k0_equivalent_packed(kind, 16, 7, 40_000);
    }
}

// ----------------------------------------------------------------------
// 2. Determinism in (seed, k, strategy)
// ----------------------------------------------------------------------

#[test]
fn trajectory_is_deterministic_in_seed_k_strategy() {
    let run = |kind: &str, k: usize, wseed: u64, sseed: u64| {
        let byz = Byzantine::new(
            protocol(12),
            ranking_byz::standard(kind, &protocol(12)),
            k,
            wseed,
        );
        let init = byz.init(protocol(12).initial());
        let mut sim = Simulator::new(byz, init, sseed);
        sim.run(30_000);
        sim.into_states()
    };
    for kind in ranking_byz::STRATEGIES {
        assert_eq!(
            run(kind, 2, 1, 5),
            run(kind, 2, 1, 5),
            "{kind} not replayable"
        );
        assert_ne!(
            run(kind, 2, 1, 5),
            run(kind, 2, 2, 5),
            "{kind} ignores the wrapper seed"
        );
    }
    // Different strategies diverge under identical seeds.
    assert_ne!(run("crash", 2, 1, 5), run("rank_squatter", 2, 1, 5));
}

// ----------------------------------------------------------------------
// 3. HonestRanking vs brute force (satellite: observer-merge coverage)
// ----------------------------------------------------------------------

/// Independent brute-force check: every honest agent ranked in
/// `1..=n_total` with no duplicate among honest agents.
fn brute_force_honest_valid(states: &[ByzState<StableState>]) -> bool {
    let n = states.len() as u64;
    let honest: Vec<Option<u64>> = states
        .iter()
        .filter(|s| s.is_honest())
        .map(|s| s.rank())
        .collect();
    if honest
        .iter()
        .any(|r| !matches!(r, Some(r) if (1..=n).contains(r)))
    {
        return false;
    }
    let mut ranks: Vec<u64> = honest.into_iter().flatten().collect();
    ranks.sort_unstable();
    ranks.windows(2).all(|w| w[0] != w[1])
}

/// The [`HonestRanking`] observer's verdict on one whole configuration,
/// polled the way every engine polls it.
fn observed_verdict(states: &[ByzState<StableState>]) -> bool {
    struct Fixed(usize);
    impl silent_ranking::population::Protocol for Fixed {
        type State = ByzState<StableState>;
        fn n(&self) -> usize {
            self.0
        }
        fn transition(&self, _: &mut Self::State, _: &mut Self::State) -> bool {
            false
        }
    }
    let mut obs = HonestRanking::new();
    let stop = obs.observe(&Fixed(states.len()), 3, states).is_stop();
    assert_eq!(obs.converged_at().is_some(), stop);
    stop
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn honest_ranking_agrees_with_brute_force(
        seed in 0u64..10_000,
        n in 2usize..24,
        byz_mask in 0u32..(1 << 16),
        perm_sel in 0u8..2,
    ) {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let perm = perm_sel == 1;
        let mut rng = SmallRng::seed_from_u64(seed);
        // Mix permutation-like and noisy configurations so both
        // verdicts occur frequently.
        let states: Vec<ByzState<StableState>> = (0..n)
            .map(|i| {
                let state = if perm {
                    StableState::Ranked(1 + (i as u64 + seed) % n as u64)
                } else {
                    match rng.random_range(0..4u8) {
                        0 => protocol(n.max(2)).initial()[i % 2],
                        _ => StableState::Ranked(rng.random_range(1..=(n as u64 + 2))),
                    }
                };
                if byz_mask & (1 << (i % 16)) != 0 {
                    ByzState::Byz { disguise: state, rng: i as u64 }
                } else {
                    ByzState::Honest(state)
                }
            })
            .collect();
        let expected = brute_force_honest_valid(&states);
        prop_assert_eq!(is_valid_honest_ranking(&states), expected);
        prop_assert_eq!(observed_verdict(&states), expected);
    }
}

#[test]
fn honest_ranking_ignores_byzantine_duplicates_and_flags_honest_ones() {
    // Adversary duplicating an honest rank: still honest-valid.
    let dup_by_adversary = vec![
        ByzState::Honest(StableState::Ranked(1)),
        ByzState::Honest(StableState::Ranked(2)),
        ByzState::Byz {
            disguise: StableState::Ranked(1),
            rng: 0,
        },
    ];
    assert!(is_valid_honest_ranking(&dup_by_adversary));
    // The same duplicate between two honest agents: invalid.
    let dup_honest = vec![
        ByzState::Honest(StableState::Ranked(1)),
        ByzState::Honest(StableState::Ranked(1)),
        ByzState::Byz {
            disguise: StableState::Ranked(2),
            rng: 0,
        },
    ];
    assert!(!is_valid_honest_ranking(&dup_honest));
    // An unranked honest agent: invalid; unranked adversary: fine.
    let unranked_adv = vec![
        ByzState::Honest(StableState::Ranked(1)),
        ByzState::Byz {
            disguise: protocol(4).initial()[0],
            rng: 0,
        },
    ];
    assert!(is_valid_honest_ranking(&unranked_adv));
}

// ----------------------------------------------------------------------
// Sharded engine wiring
// ----------------------------------------------------------------------

#[test]
fn sharded_honest_run_with_one_shard_matches_sequential() {
    let n = 16;
    let make = || {
        let byz = Byzantine::new(
            Packed(protocol(n)),
            ranking_byz::standard_packed("crash", &protocol(n)),
            2,
            3,
        );
        let init = byz.init(Packed(protocol(n)).pack_all(&protocol(n).initial()));
        (byz, init)
    };
    let (byz, init) = make();
    let mut seq = Simulator::new(byz, init, 11);
    let t_seq = run_honest(&mut seq, 10_000_000, n as u64);
    let (byz, init) = make();
    let mut sharded = ShardedSimulator::new(byz, init, 11, 1);
    let t_sharded = run_honest(&mut sharded, 10_000_000, n as u64);
    assert_eq!(t_seq, t_sharded, "1-shard run must be bit-identical");
    assert!(t_seq.is_some(), "crash-tolerant run must stabilize");
    assert_eq!(sharded.states(), seq.states());
}

#[test]
fn sharded_honest_run_stabilizes_across_shards() {
    let n = 24;
    let byz = Byzantine::new(
        Packed(protocol(n)),
        ranking_byz::standard_packed("lurker", &protocol(n)),
        1,
        7,
    );
    let init = byz.init(Packed(protocol(n)).pack_all(&protocol(n).initial()));
    let mut sim = ShardedSimulator::new(byz, init, 5, 4);
    let t = run_honest(&mut sim, 50_000_000, n as u64);
    assert!(t.is_some(), "lurker-tolerant sharded run must stabilize");
    // The run stopped at the poll that found the honest ranking valid,
    // so the configuration it left behind is still valid.
    assert_eq!(t, Some(sim.interactions()));
    assert!(is_valid_honest_ranking(sim.states()));
}

// ----------------------------------------------------------------------
// 4. Exhaustive classification at tiny n
// ----------------------------------------------------------------------

/// Classify a strategy at `n` honest agents + one adversary.
fn classify_kind(kind: &str, n: usize, cap: usize) -> Option<Tolerance> {
    let p = protocol(n);
    let strategy: Box<dyn Strategy<StableRanking>> = if kind == "recorrupt" {
        Box::new(ranking_byz::recorrupt_exhaustive(&p))
    } else {
        ranking_byz::standard(kind, &p)
    };
    let byz = Byzantine::new(p, strategy, 1, 1);
    let init = byz.init(protocol(n).initial());
    classify(&byz, init, cap).map(|c| c.verdict)
}

#[test]
fn crash_is_tolerated_at_n3_and_counts_are_consistent() {
    let p = protocol(3);
    let byz = Byzantine::new(p, ranking_byz::standard("crash", &protocol(3)), 1, 1);
    let init = byz.init(protocol(3).initial());
    let c = classify(&byz, init, 3_000_000).expect("within cap");
    assert_eq!(
        c.verdict,
        Tolerance::Tolerated,
        "a crashed agent must be absorbed: honest validity reachable \
         from every reachable configuration"
    );
    assert!(c.reachable > 0);
    assert_eq!(c.silent_invalid, 0, "no absorbing wrong configuration");
    assert_eq!(c.unrecoverable, 0, "no reachable dead end");
    assert!(c.silent_invalid <= c.silent);
    assert!(c.unrecoverable <= c.reachable);
}

#[test]
fn truncated_classification_is_inconclusive_not_wrong() {
    assert_eq!(classify_kind("crash", 3, 10), None, "cap must be reported");
}

#[test]
fn replacement_model_livelocks_on_non_participating_adversaries() {
    // The structural theorem behind the wrapper's infiltration default,
    // proven exhaustively: the phase geometry hard-codes n rank takers,
    // so when a non-participating adversary *replaces* an honest agent
    // — even the mildest one, a crashed agent — NO reachable
    // configuration can reach honest validity (the leader ends every
    // round waiting on a phase agent that cannot exist).
    for kind in ["crash", "lurker"] {
        let p = protocol(3);
        let byz = Byzantine::replacing(p, ranking_byz::standard(kind, &protocol(3)), 1, 1);
        let init = byz.init(protocol(3).initial());
        let c = classify(&byz, init, 1_000_000).expect("tiny exploration");
        assert_eq!(
            c.verdict,
            Tolerance::Livelocked,
            "{kind}: replacement must be a proven livelock"
        );
        assert_eq!(
            c.unrecoverable, c.reachable,
            "{kind}: every reachable configuration is a dead end"
        );
    }
    // A rank squatter, by contrast, *does* participate in the rank
    // space (its claimed rank completes the permutation), so even the
    // replacement model stays possibilistically tolerated.
    let p = protocol(3);
    let byz = Byzantine::replacing(p, ranking_byz::rank_squatter(1), 1, 1);
    let init = byz.init(protocol(3).initial());
    let c = classify(&byz, init, 1_000_000).expect("tiny exploration");
    assert_eq!(c.verdict, Tolerance::Tolerated);
}
