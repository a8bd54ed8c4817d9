//! The arrival/departure process: an M/M/∞-style model where agents
//! arrive in a Poisson stream and live for exponentially distributed
//! spans.
//!
//! The process owns its own SplitMix64-seeded xoshiro stream, separate
//! from the interaction scheduler's, so the whole churn trajectory —
//! arrival times, lifetimes, hibernate coin flips, dwells, entry coins —
//! is a pure function of `(config, seed)` and never perturbs the pair
//! stream. With `arrivals_per_million = 0` and `mean_lifetime = 0` the
//! process draws **nothing**: a zero-churn dynamic run consumes exactly
//! the RNG stream a fixed-n run does (the keystone of the zero-churn
//! equivalence property in `tests/dynamic_equivalence.rs`).
//!
//! Time is measured in scheduler interactions throughout: an "arrival
//! rate λ" of 50 means 50 expected joins per million interactions.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Tunables of the churn process. All rates are per *interaction* time;
/// `arrivals_per_million` is scaled for readability.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Expected arrivals per 10⁶ interactions (Poisson rate λ). Zero
    /// disables arrivals.
    pub arrivals_per_million: f64,
    /// Mean agent lifetime in interactions (exponential). Zero makes
    /// agents immortal (no departures).
    pub mean_lifetime: f64,
    /// Probability that a departing agent hibernates (and later
    /// revives) instead of leaving for good.
    pub hibernate_prob: f64,
    /// Mean interactions spent hibernating before going dormant.
    pub mean_hibernate_dwell: f64,
    /// Mean interactions spent dormant before reviving.
    pub mean_dormant_dwell: f64,
    /// Whether arrivals lease ranks from the free-list (entering ranked
    /// directly) instead of starting as fresh electors. PR 5 showed
    /// that silent disappearance of ranked agents livelocks FSeq
    /// forever; the lease is the engine-level escape hatch.
    pub rank_lease: bool,
}

impl ChurnConfig {
    /// No churn at all: no arrivals, immortal agents. A
    /// `DynamicPopulation` under this config is bit-for-bit a fixed-n
    /// run.
    pub fn quiescent() -> Self {
        Self {
            arrivals_per_million: 0.0,
            mean_lifetime: 0.0,
            hibernate_prob: 0.0,
            mean_hibernate_dwell: 0.0,
            mean_dormant_dwell: 0.0,
            rank_lease: true,
        }
    }

    /// The standard churn shape: arrivals at `lambda` per million
    /// interactions, mean lifetime `lifetime` interactions, a quarter
    /// of departures hibernating with dwells an order of magnitude
    /// shorter than a lifetime, rank leasing on.
    pub fn poisson(lambda: f64, lifetime: f64) -> Self {
        Self {
            arrivals_per_million: lambda,
            mean_lifetime: lifetime,
            hibernate_prob: 0.25,
            mean_hibernate_dwell: lifetime / 8.0,
            mean_dormant_dwell: lifetime / 8.0,
            rank_lease: true,
        }
    }
}

/// Domain-separation constant folded into the engine seed so the churn
/// stream and the interaction schedule never share RNG output.
const CHURN_SEED_SALT: u64 = 0xC4_52_4E_5F_50_52_4F_43; // "CHRN_PROC"-ish

/// The live churn-process state: RNG cursor plus the next pending
/// arrival time.
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    config: ChurnConfig,
    rng: SmallRng,
    /// Interaction count of the next arrival; `u64::MAX` when arrivals
    /// are disabled.
    next_arrival: u64,
}

impl ChurnProcess {
    /// A process starting at interaction count `now`, deterministically
    /// derived from the engine seed.
    pub fn new(config: ChurnConfig, seed: u64, now: u64) -> Self {
        let mut p = Self {
            config,
            rng: SmallRng::seed_from_u64(seed ^ CHURN_SEED_SALT),
            next_arrival: u64::MAX,
        };
        if p.config.arrivals_per_million > 0.0 {
            p.next_arrival = now.saturating_add(p.arrival_gap());
        }
        p
    }

    /// Rebuild a process mid-stream from snapshot state.
    pub fn restore(config: ChurnConfig, rng: [u64; 4], next_arrival: u64) -> Self {
        Self {
            config,
            rng: SmallRng::from_state(rng),
            next_arrival,
        }
    }

    /// The configuration this process runs under.
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// The RNG cursor, for the DYNPOP snapshot section.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Interaction count of the next arrival, if arrivals are enabled.
    pub fn next_arrival(&self) -> Option<u64> {
        (self.next_arrival != u64::MAX).then_some(self.next_arrival)
    }

    /// Consume the pending arrival (which must be due) and schedule the
    /// one after it.
    pub fn pop_arrival(&mut self) -> u64 {
        let t = self.next_arrival;
        debug_assert_ne!(t, u64::MAX, "pop_arrival with arrivals disabled");
        self.next_arrival = t.saturating_add(self.arrival_gap());
        t
    }

    /// A fresh agent lifetime; `None` when agents are immortal.
    pub fn lifetime(&mut self) -> Option<u64> {
        (self.config.mean_lifetime > 0.0).then(|| self.exp(self.config.mean_lifetime))
    }

    /// Decide a departing agent's fate: `true` = hibernate, `false` =
    /// leave for good.
    pub fn hibernates(&mut self) -> bool {
        self.config.hibernate_prob > 0.0 && self.uniform() < self.config.hibernate_prob
    }

    /// Dwell before a hibernating agent goes dormant.
    pub fn hibernate_dwell(&mut self) -> u64 {
        self.exp(self.config.mean_hibernate_dwell.max(1.0))
    }

    /// Dwell before a dormant agent revives.
    pub fn dormant_dwell(&mut self) -> u64 {
        self.exp(self.config.mean_dormant_dwell.max(1.0))
    }

    /// Synthetic coin for a freshly seeded elector state.
    pub fn coin(&mut self) -> bool {
        self.rng.next_u64() & 1 == 0
    }

    fn arrival_gap(&mut self) -> u64 {
        self.exp(1.0e6 / self.config.arrivals_per_million)
    }

    /// A uniform draw in `(0, 1]` (never exactly 0, so `ln` is finite).
    fn uniform(&mut self) -> f64 {
        ((self.rng.next_u64() >> 11) + 1) as f64 * 2f64.powi(-53)
    }

    /// Exponential with the given mean, rounded to at least one
    /// interaction (events never collapse onto "now").
    fn exp(&mut self, mean: f64) -> u64 {
        let draw = -self.uniform().ln() * mean;
        (draw as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_is_a_pure_function_of_the_seed() {
        let make = || ChurnProcess::new(ChurnConfig::poisson(50.0, 1.0e5), 42, 0);
        let (mut a, mut b) = (make(), make());
        for _ in 0..100 {
            assert_eq!(a.pop_arrival(), b.pop_arrival());
            assert_eq!(a.lifetime(), b.lifetime());
            assert_eq!(a.hibernates(), b.hibernates());
        }
    }

    #[test]
    fn quiescent_config_draws_nothing() {
        let mut p = ChurnProcess::new(ChurnConfig::quiescent(), 7, 0);
        let before = p.rng_state();
        assert_eq!(p.next_arrival(), None);
        assert_eq!(p.lifetime(), None);
        assert_eq!(
            p.rng_state(),
            before,
            "a quiescent process must not consume RNG output"
        );
    }

    #[test]
    fn arrival_times_are_strictly_increasing() {
        let mut p = ChurnProcess::new(ChurnConfig::poisson(1000.0, 1.0e4), 3, 0);
        let mut last = 0;
        for _ in 0..200 {
            let t = p.pop_arrival();
            assert!(t > last, "arrivals must move forward ({t} after {last})");
            last = t;
        }
    }

    #[test]
    fn mean_arrival_gap_tracks_lambda() {
        // λ = 100 per million ⇒ mean gap 10_000. Loose 3σ-ish band.
        let mut p = ChurnProcess::new(ChurnConfig::poisson(100.0, 1.0e5), 11, 0);
        let draws = 2_000;
        let mut last = 0u64;
        let mut total = 0u64;
        for _ in 0..draws {
            let t = p.pop_arrival();
            total += t - last;
            last = t;
        }
        let mean = total as f64 / draws as f64;
        assert!(
            (8_000.0..12_000.0).contains(&mean),
            "mean gap {mean} far from 10_000"
        );
    }

    #[test]
    fn restore_resumes_the_exact_stream() {
        let mut a = ChurnProcess::new(ChurnConfig::poisson(50.0, 1.0e5), 13, 0);
        for _ in 0..17 {
            a.pop_arrival();
            a.lifetime();
        }
        let mut b =
            ChurnProcess::restore(a.config().clone(), a.rng_state(), a.next_arrival().unwrap());
        for _ in 0..50 {
            assert_eq!(a.pop_arrival(), b.pop_arrival());
            assert_eq!(a.lifetime(), b.lifetime());
            assert_eq!(a.coin(), b.coin());
        }
    }
}
