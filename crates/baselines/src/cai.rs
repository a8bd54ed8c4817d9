//! The Cai–Izumi–Wada protocol: silent self-stabilizing leader election
//! with exactly `n` states (the information-theoretic minimum), cited in
//! Section II of the paper.
//!
//! Every agent holds a value in `{0, …, n−1}`; when two agents with equal
//! values meet, the responder increments its value modulo `n`. The silent
//! configurations are exactly the permutations, so the protocol solves
//! ranking too (output `value + 1`), with leader = value 0. Convergence
//! takes `O(n³)` interactions in expectation — the time the paper's
//! protocol beats by a `n/log n` factor while paying only `O(log² n)`
//! extra states.

use population::{Protocol, RankOutput};

/// Agent state: a value in `{0, …, n−1}` (output rank is `value + 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CaiState(pub u64);

impl RankOutput for CaiState {
    fn rank(&self) -> Option<u64> {
        Some(self.0 + 1)
    }
}

/// The Cai–Izumi–Wada protocol for `n` agents.
#[derive(Debug, Clone)]
pub struct CaiRanking {
    n: usize,
}

impl CaiRanking {
    /// Protocol over `n` agents.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "population must have at least two agents");
        Self { n }
    }

    /// The worst-case initial configuration: all agents equal.
    pub fn all_equal(&self) -> Vec<CaiState> {
        vec![CaiState(0); self.n]
    }

    /// An arbitrary configuration from a seed (values uniform in
    /// `0..n`).
    pub fn adversarial(&self, seed: u64) -> Vec<CaiState> {
        // Cheap deterministic spread; the exact distribution is
        // irrelevant for a self-stabilizing protocol.
        (0..self.n as u64)
            .map(|i| {
                CaiState((i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed)) % self.n as u64)
            })
            .collect()
    }
}

impl Protocol for CaiRanking {
    type State = CaiState;

    fn n(&self) -> usize {
        self.n
    }

    fn transition(&self, u: &mut CaiState, v: &mut CaiState) -> bool {
        if u.0 == v.0 {
            v.0 = (v.0 + 1) % self.n as u64;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::runner::run_seed_range;
    use population::silence::is_silent;
    use population::{is_valid_ranking, Simulator};

    #[test]
    fn permutation_is_silent() {
        let p = CaiRanking::new(6);
        let states: Vec<CaiState> = (0..6).map(CaiState).collect();
        assert!(is_silent(&p, &states));
    }

    #[test]
    fn equal_pair_changes_responder_only() {
        let p = CaiRanking::new(4);
        let mut u = CaiState(2);
        let mut v = CaiState(2);
        assert!(p.transition(&mut u, &mut v));
        assert_eq!(u, CaiState(2));
        assert_eq!(v, CaiState(3));
    }

    #[test]
    fn increment_wraps_modulo_n() {
        let p = CaiRanking::new(4);
        let mut u = CaiState(3);
        let mut v = CaiState(3);
        p.transition(&mut u, &mut v);
        assert_eq!(v, CaiState(0));
    }

    #[test]
    fn converges_from_all_equal() {
        for n in [4usize, 8, 16, 32] {
            let failures = run_seed_range(5, |seed| {
                let p = CaiRanking::new(n);
                let init = p.all_equal();
                let mut sim = Simulator::new(p, init, seed);
                // O(n³) expected; budget 50·n³.
                let budget = 50 * (n as u64).pow(3);
                let stop = sim.run_until(is_valid_ranking, budget, n as u64);
                let ok = stop.converged_at().is_some() && is_silent(sim.protocol(), sim.states());
                usize::from(!ok)
            })
            .into_iter()
            .sum::<usize>();
            assert_eq!(failures, 0, "n={n}: {failures} runs failed");
        }
    }

    #[test]
    fn converges_from_adversarial_configurations() {
        let n = 16;
        let failures: usize = run_seed_range(10, |seed| {
            let p = CaiRanking::new(n);
            let init = p.adversarial(seed);
            let mut sim = Simulator::new(p, init, seed + 1000);
            let budget = 50 * (n as u64).pow(3);
            let stop = sim.run_until(is_valid_ranking, budget, n as u64);
            usize::from(stop.converged_at().is_none())
        })
        .into_iter()
        .sum();
        assert_eq!(failures, 0);
    }

    #[test]
    fn exactly_n_states_are_used() {
        // The defining property: the state space is [n], nothing more.
        let n = 9;
        let p = CaiRanking::new(n);
        let mut sim = Simulator::new(p, CaiRanking::new(n).all_equal(), 3);
        let mut seen = std::collections::HashSet::new();
        // Audit after every single interaction (check_every = 1).
        let mut audit = population::observe::Sampler::new(|_, states: &[CaiState]| {
            for s in states {
                assert!(s.0 < n as u64, "state escaped [n]");
                seen.insert(s.0);
            }
        });
        sim.run_observed(2000, 1, &mut audit);
        assert!(seen.len() <= n);
    }
}
