//! The synthetic coin (Section V of the paper, after Alistarh et al.).
//!
//! Population protocols have no internal randomness; the paper derives
//! random bits from the scheduler: every agent keeps a bit `coin(v)` that
//! is *toggled on each activation as responder*. After a warm-up of
//! `O(n log log n)` interactions the bits are nearly balanced across the
//! population — Lemma 28: for `t ≥ n·log(4 log n)/2`, the number of zero
//! coins lies in `(1 ± 1/(4 log n))·n/2` with probability `≥ 1 − n^{-γ}`.
//!
//! [`CoinPopulation`] isolates this mechanism so the balance claim can be
//! validated independently of the ranking machinery (experiment E9).

use crate::protocol::Protocol;

/// An agent holding only a synthetic coin bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoinState {
    /// The coin bit; `true` is "heads" (the paper's `coin = 1`).
    pub heads: bool,
}

/// Protocol in which the responder's coin flips on every interaction,
/// exactly as in Protocol 3 lines 9–10 of the paper.
#[derive(Debug, Clone)]
pub struct CoinPopulation {
    n: usize,
}

impl CoinPopulation {
    /// Create a coin population of size `n`.
    pub fn new(n: usize) -> Self {
        Self { n }
    }

    /// Adversarial initial configuration: all coins showing tails (the
    /// worst case for balance).
    pub fn all_tails(&self) -> Vec<CoinState> {
        vec![CoinState { heads: false }; self.n]
    }

    /// Number of agents currently showing heads.
    pub fn heads_count(states: &[CoinState]) -> usize {
        states.iter().filter(|s| s.heads).count()
    }

    /// Absolute imbalance `| #heads − #tails |`.
    pub fn imbalance(states: &[CoinState]) -> usize {
        let h = Self::heads_count(states);
        let t = states.len() - h;
        h.abs_diff(t)
    }
}

impl Protocol for CoinPopulation {
    type State = CoinState;

    fn n(&self) -> usize {
        self.n
    }

    fn transition(&self, _u: &mut CoinState, v: &mut CoinState) -> bool {
        v.heads = !v.heads;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    #[test]
    fn coin_balances_after_warmup() {
        // Lemma 28 empirically: n = 512, all tails initially. After
        // n·log(4·log n)/2 ≈ 1400 interactions the imbalance should be
        // within n/(2·log n)·... — we assert the (loose) paper bound
        // n/(4·log2 n)·2 = n/(2·log2 n) on the deviation from n/2.
        let n = 512usize;
        let protocol = CoinPopulation::new(n);
        let mut ok = 0;
        let trials = 20;
        for seed in 0..trials {
            let mut sim = Simulator::new(protocol.clone(), protocol.all_tails(), seed);
            sim.run_batched(4 * n as u64);
            let heads = CoinPopulation::heads_count(sim.states());
            let log2n = (n as f64).log2();
            let slack = (n as f64) / (4.0 * log2n) * (n as f64 / 2.0) / (n as f64 / 2.0);
            let lo = n as f64 / 2.0 - slack * 2.0;
            let hi = n as f64 / 2.0 + slack * 2.0;
            if (heads as f64) >= lo && (heads as f64) <= hi {
                ok += 1;
            }
        }
        assert!(
            ok >= trials - 2,
            "coin failed to balance in {} of {trials} trials",
            trials - ok
        );
    }

    #[test]
    fn imbalance_parity_is_preserved_per_step() {
        // Each step flips exactly one coin, so the heads count changes by
        // exactly 1 each interaction.
        let protocol = CoinPopulation::new(16);
        let mut sim = Simulator::new(protocol, CoinPopulation::new(16).all_tails(), 1);
        let mut last = CoinPopulation::heads_count(sim.states());
        for _ in 0..100 {
            sim.step();
            let now = CoinPopulation::heads_count(sim.states());
            assert_eq!(now.abs_diff(last), 1);
            last = now;
        }
    }

    #[test]
    fn imbalance_helper_counts_correctly() {
        let states = [
            CoinState { heads: true },
            CoinState { heads: true },
            CoinState { heads: false },
            CoinState { heads: true },
        ];
        assert_eq!(CoinPopulation::heads_count(&states), 3);
        assert_eq!(CoinPopulation::imbalance(&states), 2);
    }
}
