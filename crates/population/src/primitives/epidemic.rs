//! One-way epidemic among a subset of agents.
//!
//! The paper's broadcasts (phase advancement, reset propagation, "start
//! ranking") are one-way epidemics restricted to a subpopulation: only `m`
//! of the `n` agents participate, the rest are inert bystanders who still
//! consume interactions. Lemma 14 bounds the completion time `OWE(n, m)`:
//!
//! > `Pr[X > 3n²/m · (log m + 2γ log n)] ≤ 2n^{-γ}`.
//!
//! [`Epidemic`] models exactly this: `Member` agents adopt infection from
//! infected members (initiator → responder *or* responder → initiator does
//! not matter for a one-way epidemic; we use the paper's convention that
//! information flows from either side of the pair to the other only one
//! way, here initiator → responder).

use crate::protocol::Protocol;

/// Agent state for the subset epidemic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EpidemicState {
    /// Not part of the broadcasting subpopulation.
    Bystander,
    /// Participating, not yet informed.
    Susceptible,
    /// Participating and informed.
    Infected,
}

/// One-way epidemic protocol over a population of `n` agents.
#[derive(Debug, Clone)]
pub struct Epidemic {
    n: usize,
}

impl Epidemic {
    /// Create an epidemic protocol for population size `n`.
    pub fn new(n: usize) -> Self {
        Self { n }
    }

    /// Initial configuration: agents `0..m` participate, agent `0` is the
    /// initially infected one, everyone else is a bystander.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= m <= n`.
    pub fn initial(&self, m: usize) -> Vec<EpidemicState> {
        assert!(m >= 1 && m <= self.n, "need 1 <= m <= n");
        (0..self.n)
            .map(|i| {
                if i == 0 {
                    EpidemicState::Infected
                } else if i < m {
                    EpidemicState::Susceptible
                } else {
                    EpidemicState::Bystander
                }
            })
            .collect()
    }

    /// True when all members are informed.
    pub fn complete(states: &[EpidemicState]) -> bool {
        !states.contains(&EpidemicState::Susceptible)
    }

    /// Number of infected members.
    pub fn infected_count(states: &[EpidemicState]) -> usize {
        states
            .iter()
            .filter(|s| **s == EpidemicState::Infected)
            .count()
    }
}

impl Protocol for Epidemic {
    type State = EpidemicState;

    fn n(&self) -> usize {
        self.n
    }

    fn transition(&self, u: &mut EpidemicState, v: &mut EpidemicState) -> bool {
        if *u == EpidemicState::Infected && *v == EpidemicState::Susceptible {
            *v = EpidemicState::Infected;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::silence::is_silent;
    use crate::{Simulator, StopReason};

    #[test]
    fn epidemic_reaches_all_members() {
        let protocol = Epidemic::new(64);
        let init = protocol.initial(32);
        let mut sim = Simulator::new(protocol, init, 11);
        let stop = sim.run_until(Epidemic::complete, 5_000_000, 64);
        assert!(matches!(stop, StopReason::Converged(_)));
        assert_eq!(Epidemic::infected_count(sim.states()), 32);
    }

    #[test]
    fn bystanders_never_infected() {
        let protocol = Epidemic::new(50);
        let init = protocol.initial(10);
        let mut sim = Simulator::new(protocol, init, 3);
        sim.run_batched(200_000);
        let bystanders = sim
            .states()
            .iter()
            .filter(|s| **s == EpidemicState::Bystander)
            .count();
        assert_eq!(bystanders, 40);
    }

    #[test]
    fn complete_epidemic_is_silent() {
        let protocol = Epidemic::new(20);
        let init = protocol.initial(20);
        let mut sim = Simulator::new(protocol, init, 5);
        sim.run_until(Epidemic::complete, 1_000_000, 20);
        assert!(is_silent(sim.protocol(), sim.states()));
    }

    #[test]
    fn infection_is_monotone() {
        let protocol = Epidemic::new(30);
        let init = protocol.initial(30);
        let mut sim = Simulator::new(protocol, init, 9);
        let mut last = 1;
        for _ in 0..200 {
            sim.run_batched(25);
            let now = Epidemic::infected_count(sim.states());
            assert!(now >= last, "infection count decreased: {last} -> {now}");
            last = now;
        }
    }

    #[test]
    #[should_panic(expected = "1 <= m <= n")]
    fn rejects_zero_members() {
        let _ = Epidemic::new(5).initial(0);
    }

    #[test]
    fn single_member_is_complete_at_start() {
        let protocol = Epidemic::new(5);
        let init = protocol.initial(1);
        assert!(Epidemic::complete(&init));
    }
}
