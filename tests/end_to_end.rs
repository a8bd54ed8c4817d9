//! Cross-crate integration tests: the full pipeline from substrates to
//! the paper's protocols, exercised through the public facade.

use silent_ranking::baselines::burman::BurmanRanking;
use silent_ranking::baselines::cai::CaiRanking;
use silent_ranking::baselines::naive::NaiveLeaderRanking;
use silent_ranking::leader_election::tournament::TournamentLe;
use silent_ranking::population::silence::is_silent;
use silent_ranking::population::{is_valid_ranking, RankOutput, Simulator};
use silent_ranking::ranking::space_efficient::SpaceEfficientRanking;
use silent_ranking::ranking::stable::StableRanking;
use silent_ranking::ranking::Params;

fn budget(n: usize, c: f64) -> u64 {
    (c * (n * n) as f64 * (n as f64).log2()) as u64
}

#[test]
fn stable_ranking_implies_leader_election() {
    // Section III: rank 1 ↦ leader, others ↦ follower gives
    // self-stabilizing leader election.
    let n = 48;
    let protocol = StableRanking::new(Params::new(n));
    let init = protocol.adversarial_uniform(5);
    let mut sim = Simulator::new(protocol, init, 17);
    sim.run_until(is_valid_ranking, budget(n, 6000.0), n as u64)
        .converged_at()
        .expect("stabilizes");
    let leaders = sim.states().iter().filter(|s| s.rank() == Some(1)).count();
    assert_eq!(leaders, 1, "exactly one agent outputs 'leader'");
}

#[test]
fn space_efficient_protocol_composes_with_tournament_le() {
    let n = 32;
    let mut successes = 0;
    for seed in 0..5 {
        let protocol = SpaceEfficientRanking::new(&Params::new(n), TournamentLe::for_n(n));
        let init = protocol.initial();
        let mut sim = Simulator::new(protocol, init, seed);
        if sim
            .run_until(is_valid_ranking, budget(n, 2000.0), n as u64)
            .converged_at()
            .is_some()
            && is_silent(sim.protocol(), sim.states())
        {
            successes += 1;
        }
    }
    assert!(
        successes >= 4,
        "only {successes}/5 runs reached a silent ranking"
    );
}

#[test]
fn all_ranking_protocols_agree_on_the_target_configuration() {
    // Whatever the protocol, the stable output is a permutation of 1..=n.
    let n = 16;
    let check = n as u64;

    let p = StableRanking::new(Params::new(n));
    let init = p.initial();
    let mut sim = Simulator::new(p, init, 1);
    sim.run_until(is_valid_ranking, budget(n, 6000.0), check);
    assert!(is_valid_ranking(sim.states()));

    let p = BurmanRanking::new(n);
    let init = p.initial();
    let mut sim = Simulator::new(p, init, 1);
    sim.run_until(is_valid_ranking, budget(n, 6000.0), check);
    assert!(is_valid_ranking(sim.states()));

    let p = NaiveLeaderRanking::new(n);
    let init = p.initial();
    let mut sim = Simulator::new(p, init, 1);
    sim.run_until(is_valid_ranking, budget(n, 200.0), check);
    assert!(is_valid_ranking(sim.states()));

    let p = CaiRanking::new(n);
    let init = p.all_equal();
    let mut sim = Simulator::new(p, init, 1);
    sim.run_until(is_valid_ranking, 100 * (n as u64).pow(3), check);
    assert!(is_valid_ranking(sim.states()));
}

#[test]
fn simulations_are_reproducible_across_protocol_instances() {
    // Same params + same seeds ⇒ identical trajectories, even though the
    // protocol values are built independently.
    let n = 32;
    let run = |sim_seed: u64| {
        let protocol = StableRanking::new(Params::new(n));
        let init = protocol.adversarial_uniform(99);
        let mut sim = Simulator::new(protocol, init, sim_seed);
        sim.run_batched(100_000);
        sim.into_states()
    };
    assert_eq!(run(4), run(4));
    assert_ne!(run(4), run(5));
}

#[test]
fn figure2_and_figure3_initializations_are_well_formed() {
    let n = 64;
    let p = StableRanking::new(Params::new(n));
    let f2 = p.figure2();
    assert_eq!(f2.len(), n);
    assert!(
        !is_valid_ranking(&f2),
        "Figure 2 starts invalid (rank 1 missing)"
    );
    let f3 = p.figure3();
    assert_eq!(f3.len(), n);
    assert_eq!(
        f3.iter().filter(|s| s.rank() == Some(1)).count(),
        1,
        "Figure 3 has exactly the unaware leader ranked"
    );
}

#[test]
fn silent_configurations_stay_silent_under_long_runs() {
    // Closure, dynamically: start *in* the legal configuration and run a
    // long time; nothing may change (Theorem 2's closure property).
    let n = 24;
    let protocol = StableRanking::new(Params::new(n));
    let legal = protocol.legal();
    let mut sim = Simulator::new(protocol, legal.clone(), 3);
    sim.run_batched(500_000);
    assert_eq!(sim.states(), legal.as_slice());
}
