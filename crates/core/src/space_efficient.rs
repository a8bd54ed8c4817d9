//! Protocol 1 — `SPACEEFFICIENTRANKING` (Theorem 1).
//!
//! The non-self-stabilizing protocol: all agents start in a leader-election
//! state; the elected leader becomes a *waiting* agent, triggering a
//! one-way epidemic that turns every other agent into a *phase* agent with
//! phase 1; afterwards Protocol 2 ([`crate::base`]) assigns all ranks.
//!
//! The leader-election black box is a type parameter implementing
//! [`LeaderElectionBehavior`], defaulting in practice to
//! [`TournamentLe`](leader_election::tournament::TournamentLe); see
//! docs/PAPER_MAP.md's leader-election row for the substitution and the
//! tournament module doc for its state trade-off.

use leader_election::LeaderElectionBehavior;
use population::{Protocol, RankOutput};

use crate::base::{ranking_step, RankRole};
use crate::fseq::FSeq;
use crate::params::Params;

/// Agent state of Protocol 1: the paper's disjoint union
/// `Q_LE × {0,1} ⊎ waitCount ⊎ phase ⊎ rank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SeState<Q> {
    /// Leader-electing agent (`q_LE(v) ≠ ⊥`; `leaderDone` lives inside `Q`).
    Elect(Q),
    /// Waiting agent (`waitCount(v) ≠ ⊥`).
    Waiting(u32),
    /// Phase agent (`phase(v) ≠ ⊥`).
    Phase(u32),
    /// Ranked agent (`rank(v) ≠ ⊥`).
    Ranked(u64),
}

impl<Q> RankOutput for SeState<Q> {
    fn rank(&self) -> Option<u64> {
        match self {
            SeState::Ranked(r) => Some(*r),
            _ => None,
        }
    }
}

/// A coarse view of a configuration, used by experiments (e.g. the
/// phase-timing experiment E7) and convergence predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeSnapshot {
    /// Number of agents still in leader election.
    pub electing: usize,
    /// Number of waiting agents.
    pub waiting: usize,
    /// Number of phase agents.
    pub phase_agents: usize,
    /// Number of ranked agents.
    pub ranked: usize,
    /// Largest phase stored by any phase agent (0 if none).
    pub max_phase: u32,
    /// Sum of stored phases (for mean-phase plots).
    pub phase_sum: u64,
}

/// `SPACEEFFICIENTRANKING` over leader-election behavior `L`.
#[derive(Debug, Clone)]
pub struct SpaceEfficientRanking<L> {
    le: L,
    fseq: FSeq,
    wait_max: u32,
    n: usize,
}

impl<L: LeaderElectionBehavior> SpaceEfficientRanking<L> {
    /// Build the protocol from parameters and a leader-election behavior.
    pub fn new(params: &Params, le: L) -> Self {
        Self {
            le,
            fseq: params.fseq(),
            wait_max: params.wait_max(),
            n: params.n(),
        }
    }

    /// The initial configuration of Theorem 1: every agent in the initial
    /// leader-election state.
    pub fn initial(&self) -> Vec<SeState<L::State>> {
        (0..self.n)
            .map(|_| SeState::Elect(self.le.initial_state()))
            .collect()
    }

    /// The phase geometry in use.
    pub fn fseq(&self) -> &FSeq {
        &self.fseq
    }

    /// Summarize a configuration.
    pub fn snapshot(states: &[SeState<L::State>]) -> SeSnapshot {
        let mut s = SeSnapshot::default();
        for st in states {
            match st {
                SeState::Elect(_) => s.electing += 1,
                SeState::Waiting(_) => s.waiting += 1,
                SeState::Phase(k) => {
                    s.phase_agents += 1;
                    s.max_phase = s.max_phase.max(*k);
                    s.phase_sum += u64::from(*k);
                }
                SeState::Ranked(_) => s.ranked += 1,
            }
        }
        s
    }

    fn as_role(state: &SeState<L::State>) -> RankRole {
        match state {
            SeState::Ranked(r) => RankRole::Ranked(*r),
            SeState::Phase(k) => RankRole::Phase(*k),
            SeState::Waiting(w) => RankRole::Waiting(*w),
            SeState::Elect(_) => unreachable!("ranking only runs on main states"),
        }
    }

    fn from_role(role: RankRole) -> SeState<L::State> {
        match role {
            RankRole::Ranked(r) => SeState::Ranked(r),
            RankRole::Phase(k) => SeState::Phase(k),
            RankRole::Waiting(w) => SeState::Waiting(w),
        }
    }
}

impl<L: LeaderElectionBehavior> Protocol for SpaceEfficientRanking<L> {
    type State = SeState<L::State>;

    fn n(&self) -> usize {
        self.n
    }

    fn transition(&self, u: &mut Self::State, v: &mut Self::State) -> bool {
        // Protocol 1 lines 1–2: two leader-electing agents run the leader
        // election black box.
        if let (SeState::Elect(qu), SeState::Elect(qv)) = (&mut *u, &mut *v) {
            let before = (*qu, *qv);
            self.le.transition(qu, qv);
            let changed = (*qu, *qv) != before;
            // Lines 3–6: an agent with isLeader = leaderDone = 1 forgets
            // its LE state and becomes the waiting agent, then `return`.
            for slot in [&mut *u, &mut *v] {
                if let SeState::Elect(q) = slot {
                    if self.le.is_leader(q) && self.le.leader_done(q) {
                        *slot = SeState::Waiting(self.wait_max);
                        return true;
                    }
                }
            }
            return changed;
        }

        // Lines 3–6 can also fire when the done leader meets a non-electing
        // agent: the check precedes the epidemic conversion (the paper's
        // blocks are evaluated top to bottom).
        for slot in [&mut *u, &mut *v] {
            if let SeState::Elect(q) = slot {
                if self.le.is_leader(q) && self.le.leader_done(q) {
                    *slot = SeState::Waiting(self.wait_max);
                    return true;
                }
            }
        }

        // Lines 7–9: a leader-electing agent meeting a non-electing agent
        // learns that ranking has started and becomes a phase-1 agent.
        let mut converted = false;
        for slot in [&mut *u, &mut *v] {
            if matches!(slot, SeState::Elect(_)) {
                *slot = SeState::Phase(1);
                converted = true;
            }
        }
        if converted {
            return true;
        }

        // Lines 10–11: two main-phase agents execute RANKING.
        let mut ru = Self::as_role(u);
        let mut rv = Self::as_role(v);
        let step = ranking_step(&self.fseq, self.wait_max, &mut ru, &mut rv);
        if step.changed {
            *u = Self::from_role(ru);
            *v = Self::from_role(rv);
        }
        step.changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leader_election::tournament::TournamentLe;
    use population::runner::run_seed_range;
    use population::silence::is_silent;
    use population::{is_valid_ranking, Simulator};

    fn protocol(n: usize) -> SpaceEfficientRanking<TournamentLe> {
        let params = Params::new(n);
        SpaceEfficientRanking::new(&params, TournamentLe::for_n(n))
    }

    /// A stub LE behavior for deterministic unit tests: agent state is just
    /// `(is_leader, done)` and transitions do nothing.
    #[derive(Debug, Clone, Copy)]
    struct StubLe;
    impl LeaderElectionBehavior for StubLe {
        type State = (bool, bool);
        fn initial_state(&self) -> (bool, bool) {
            (false, false)
        }
        fn transition(&self, _: &mut (bool, bool), _: &mut (bool, bool)) {}
        fn is_leader(&self, s: &(bool, bool)) -> bool {
            s.0
        }
        fn leader_done(&self, s: &(bool, bool)) -> bool {
            s.1
        }
    }

    fn stub(n: usize) -> SpaceEfficientRanking<StubLe> {
        SpaceEfficientRanking::new(&Params::new(n), StubLe)
    }

    #[test]
    fn done_leader_becomes_waiting_and_returns() {
        let p = stub(8);
        let mut u = SeState::Elect((true, true));
        let mut v = SeState::Elect((false, false));
        assert!(p.transition(&mut u, &mut v));
        assert_eq!(u, SeState::Waiting(p.wait_max));
        // The other electing agent is untouched in the same interaction
        // (line 6 `return`).
        assert_eq!(v, SeState::Elect((false, false)));
    }

    #[test]
    fn done_leader_meeting_main_agent_still_becomes_waiting() {
        // Lines 3–6 take precedence over the lines 7–9 conversion: the
        // leader must never be absorbed as a phase agent.
        let p = stub(8);
        let mut u = SeState::Elect((true, true));
        let mut v = SeState::Phase(1);
        assert!(p.transition(&mut u, &mut v));
        assert_eq!(u, SeState::Waiting(p.wait_max));
        assert_eq!(v, SeState::Phase(1));
    }

    #[test]
    fn electing_agent_converts_on_meeting_main_agent() {
        let p = stub(8);
        for main in [SeState::Waiting(3), SeState::Phase(2), SeState::Ranked(5)] {
            let mut u = SeState::Elect((false, false));
            let mut v = main;
            assert!(p.transition(&mut u, &mut v));
            assert_eq!(u, SeState::Phase(1));
            assert_eq!(v, main);
            // And in the responder position too.
            let mut u2 = main;
            let mut v2 = SeState::Elect((false, true));
            assert!(p.transition(&mut u2, &mut v2));
            assert_eq!(v2, SeState::Phase(1));
        }
    }

    #[test]
    fn main_agents_run_base_ranking() {
        let p = stub(8);
        let mut u = SeState::Ranked(1);
        let mut v = SeState::Phase(1);
        assert!(p.transition(&mut u, &mut v));
        assert_eq!(v, SeState::Ranked(5)); // f_2 + 1 = 5
        assert_eq!(u, SeState::Ranked(2));
    }

    #[test]
    fn snapshot_counts_roles() {
        let states = vec![
            SeState::<(bool, bool)>::Elect((false, false)),
            SeState::Waiting(2),
            SeState::Phase(1),
            SeState::Phase(3),
            SeState::Ranked(4),
        ];
        let s = SpaceEfficientRanking::<StubLe>::snapshot(&states);
        assert_eq!(
            (s.electing, s.waiting, s.phase_agents, s.ranked),
            (1, 1, 2, 1)
        );
        assert_eq!(s.max_phase, 3);
        assert_eq!(s.phase_sum, 4);
    }

    #[test]
    fn stabilizes_to_valid_silent_ranking() {
        // Theorem 1 end-to-end at several sizes. The statement is w.h.p.
        // (the tournament can rarely elect two leaders at small n), so we
        // allow one failure per batch.
        for n in [8usize, 16, 64] {
            let results = run_seed_range(10, |seed| {
                let p = protocol(n);
                let init = p.initial();
                let mut sim = Simulator::new(p, init, seed);
                let log2n = (n as f64).log2();
                let budget = (400.0 * (n * n) as f64 * log2n) as u64;
                let stop = sim.run_until(is_valid_ranking, budget, n as u64);
                let ok = stop.converged_at().is_some() && is_silent(sim.protocol(), sim.states());
                (ok, stop.converged_at())
            });
            let failures = results.iter().filter(|(ok, _)| !ok).count();
            assert!(failures <= 1, "n={n}: {failures}/10 runs failed");
        }
    }

    #[test]
    fn valid_configuration_is_silent_by_construction() {
        // Closure: build the legal configuration directly and check no
        // ordered pair can act (the paper's silence argument).
        let n = 16;
        let p = protocol(n);
        let states: Vec<_> = (1..=n as u64).map(SeState::Ranked).collect();
        assert!(is_silent(&p, &states));
    }

    #[test]
    fn stabilization_time_has_n2_logn_shape() {
        // Normalized stabilization time T/(n² log₂ n) should be bounded by
        // a modest constant across sizes (Theorem 1's shape).
        let mut normalized = Vec::new();
        for n in [16usize, 32, 64] {
            let times = run_seed_range(6, |seed| {
                let p = protocol(n);
                let init = p.initial();
                let mut sim = Simulator::new(p, init, seed);
                let log2n = (n as f64).log2();
                let budget = (400.0 * (n * n) as f64 * log2n) as u64;
                sim.run_until(is_valid_ranking, budget, n as u64)
                    .converged_at()
            });
            let ok: Vec<f64> = times.into_iter().flatten().map(|t| t as f64).collect();
            assert!(ok.len() >= 5, "n={n}: too many failed runs");
            let mean = ok.iter().sum::<f64>() / ok.len() as f64;
            normalized.push(mean / ((n * n) as f64 * (n as f64).log2()));
        }
        for (i, norm) in normalized.iter().enumerate() {
            assert!(*norm < 60.0, "size index {i}: normalized time {norm}");
        }
    }
}
