//! Composition of the topology subsystem with the adversarial layers
//! (ISSUE 10): the graph-restricted scheduler is a *seam*, so
//! everything that works on the uniform scheduler — fault injection,
//! Byzantine infiltration — must run unchanged on a `GraphSchedule`.
//!
//! An honest note on scope, measured while building this suite (see
//! `docs/TOPOLOGY.md` for the full analysis): `StableRanking` only
//! *stabilizes* on the complete graph. Protocol 2's dispenser hands a
//! rank to a phase agent only when the two meet **directly**, and the
//! `Ranking⁺` liveness clock — tuned to the clique's Θ(1/n) meeting
//! rate — fires a reset before a sparse topology can route every agent
//! past the dispenser. On a ring the run livelocks forever; on an
//! expander it makes strong partial progress but still resets. So:
//!
//! 1. **Fault recovery** composes a faulted `drive` + every
//!    `ranking_faults::KINDS` injector with a `GraphSchedule` over the
//!    complete graph — the one topology where recovery to a valid
//!    *silent* ranking is possible — exercising the full seam
//!    (alias-table edge sampling, block buffer, fault hooks).
//! 2. **Byzantine** runs `Byzantine<P>` with one `crash` adversary
//!    through the same seam; the honest agents still rank.
//! 3. **The livelock itself is pinned as a regression test**: on a
//!    ring the protocol must *not* silently "start working" (that
//!    would mean the documented analysis went stale), while a d=8
//!    expander reaches half-ranked in the same budget — the partial
//!    progress the spectral gap predicts.

use silent_ranking::population::{
    drive, is_valid_ranking, ranked_count, silence, NoPoll, NoSaves, NullProbe, Simulator,
};
use silent_ranking::ranking::stable::StableRanking;
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::byzantine::{run_honest, Byzantine};
use silent_ranking::scenarios::{ranking_byz, ranking_faults, FaultPlan};
use silent_ranking::topology::{GraphSchedule, TopologySpec};

fn protocol(n: usize) -> StableRanking {
    StableRanking::new(Params::new(n))
}

#[test]
fn every_fault_kind_recovers_on_the_graph_scheduled_clique() {
    // n = 16 complete graph through the GraphSchedule seam. Faults fire
    // periodically through the first stretch; the run then continues
    // fault-free and must re-stabilize to a valid, silent ranking
    // (self-stabilization from *any* reachable configuration).
    const N: usize = 16;
    const FAULTY_PREFIX: u64 = 200_000;
    const RECOVERY_BUDGET: u64 = 10_000_000;

    for (i, kind) in ranking_faults::KINDS.into_iter().enumerate() {
        let p = protocol(N);
        let init = p.adversarial_uniform(100 + i as u64);
        let source = GraphSchedule::new(TopologySpec::Complete { n: N as u32 }, 9 + i as u64);
        let mut sim = Simulator::with_source(p, init, source);

        let mut plan = FaultPlan::new(0xF00D + i as u64).periodic(
            1_000,
            7_919,
            ranking_faults::standard(kind, sim.protocol(), N),
        );
        drive(
            &mut sim,
            FAULTY_PREFIX,
            &mut plan,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );

        let stop = sim.run_until(is_valid_ranking, RECOVERY_BUDGET, N as u64);
        assert!(
            stop.converged_at().is_some(),
            "{kind}: no valid ranking on the graph-scheduled clique within {RECOVERY_BUDGET} interactions"
        );
        assert!(
            is_valid_ranking(sim.states()),
            "{kind}: convergence check disagrees with final states"
        );
        assert!(
            silence::is_silent(sim.protocol(), sim.states()),
            "{kind}: ranking valid but not silent — further interactions could move it"
        );
    }
}

#[test]
fn one_crashed_byzantine_agent_on_the_graph_scheduled_clique_still_ranks_the_honest() {
    // k = 1 crash adversary (a permanently unresponsive agent) behind
    // the GraphSchedule seam. `Byzantine` grows the population to
    // n + k = 13, so the topology is built over 13 vertices. Seeded,
    // tiny n, single budget — a CI determinism check, not a statistics
    // experiment.
    const N: usize = 12;
    const K: usize = 1;
    const BUDGET: u64 = 30_000_000;

    let p = protocol(N);
    let byz = Byzantine::new(p, ranking_byz::standard("crash", &protocol(N)), K, 42);
    let init = byz.init(protocol(N).adversarial_uniform(7));
    let source = GraphSchedule::new(TopologySpec::Complete { n: (N + K) as u32 }, 21);
    let mut sim = Simulator::with_source(byz, init, source);
    let converged = run_honest(&mut sim, BUDGET, N as u64);
    assert!(
        converged.is_some(),
        "honest agents did not reach valid ranks behind the GraphSchedule seam within {BUDGET} interactions"
    );
}

#[test]
fn sparse_topologies_livelock_while_the_expander_makes_partial_progress() {
    // Regression pin for the analysis in docs/TOPOLOGY.md: the rank
    // dispenser can only rank agents it meets directly, and the
    // liveness clock resets the run before a sparse graph routes
    // everyone past it. Within the same budget at n = 16:
    //   - the ring never even reaches half-ranked (its high-water mark
    //     stays in single digits), and never forms a valid ranking;
    //   - the d=8 expander reaches half-ranked — the partial progress
    //     that tracks the spectral gap in BENCH_topo.json.
    // If the ring leg ever starts ranking, the documented livelock
    // analysis has gone stale and docs/TOPOLOGY.md must be revisited.
    const N: usize = 16;
    const BUDGET: u64 = 2_000_000;
    const CHECK: u64 = 512;

    let progress = |spec: TopologySpec| {
        let p = protocol(N);
        let init = p.initial();
        let mut sim = Simulator::with_source(p, init, GraphSchedule::new(spec, 3));
        let mut t = 0u64;
        let mut max_ranked = 0usize;
        let mut valid = false;
        while t < BUDGET {
            sim.run_batched(CHECK);
            t += CHECK;
            max_ranked = max_ranked.max(ranked_count(sim.states()));
            valid |= is_valid_ranking(sim.states());
        }
        (max_ranked, valid)
    };

    let (ring_high, ring_valid) = progress(TopologySpec::Ring { n: N as u32 });
    let (exp_high, _) = progress(TopologySpec::Regular {
        n: N as u32,
        d: 8,
        seed: 1,
    });

    assert!(
        !ring_valid && ring_high < N / 2,
        "ring formed {ring_high}/{N} ranks (valid={ring_valid}) — the documented \
         dispenser livelock no longer holds; revisit docs/TOPOLOGY.md"
    );
    assert!(
        exp_high >= N / 2,
        "d=8 expander only reached {exp_high}/{N} ranks within {BUDGET} — \
         expected at least half-ranked partial progress"
    );
}
