//! Adversarial pair schedulers.
//!
//! The paper's analysis assumes the *uniform* scheduler
//! ([`population::Schedule`]). Each type here implements
//! [`population::PairSource`] with a deliberately non-uniform pair
//! distribution, so any protocol can be run off that assumption through
//! [`Simulator::with_source`](population::Simulator::with_source):
//!
//! * [`BiasedSchedule`] — a *hot set* of agents initiates far more often
//!   than the rest (models skewed activity / a byzantine-ish scheduler
//!   favoring some agents);
//! * [`ClusteredSchedule`] — the population is split into clusters and
//!   cross-cluster interactions happen only with probability `p_cross`
//!   (models partial network partitions; `p_cross = 0` is a hard
//!   partition under which global ranking is impossible);
//! * [`RoundRobinSchedule`] — a deterministic sweep enumerating every
//!   ordered pair once per `n(n-1)` interactions (a fair but completely
//!   derandomized adversary).
//!
//! All three route their draws through
//! [`population::schedule::BlockBuffer`], inheriting the engine's
//! scalar/batched interleaving equivalence by construction.

use population::schedule::{BlockBuffer, Pair, PairSource};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::util::distinct_from;

fn check_n(n: usize) {
    assert!(n >= 2, "population needs at least two agents");
    assert!(u32::try_from(n).is_ok(), "population size exceeds u32");
}

/// A scheduler where a *hot set* `0..hot` of agents is chosen as
/// initiator with probability `bias` (uniform inside the set), and the
/// whole population uniformly otherwise. Responders stay uniform among
/// the other `n − 1` agents.
#[derive(Debug, Clone)]
pub struct BiasedSchedule {
    rng: SmallRng,
    n: usize,
    hot: usize,
    bias: f64,
    buf: BlockBuffer,
}

impl BiasedSchedule {
    /// A biased scheduler over `n` agents: with probability `bias` the
    /// initiator comes from the hot set `0..hot`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `hot` is not in `1..=n`, or `bias` is outside
    /// `[0, 1]`.
    pub fn new(n: usize, hot: usize, bias: f64, seed: u64) -> Self {
        check_n(n);
        assert!((1..=n).contains(&hot), "hot set must be within 1..=n");
        assert!((0.0..=1.0).contains(&bias), "bias must be in [0, 1]");
        Self {
            rng: SmallRng::seed_from_u64(seed),
            n,
            hot,
            bias,
            buf: BlockBuffer::new(),
        }
    }

    fn draw(rng: &mut SmallRng, n: usize, hot: usize, bias: f64) -> Pair {
        let i = if rng.random_bool(bias) {
            rng.random_range(0..hot as u32)
        } else {
            rng.random_range(0..n as u32)
        };
        (i, distinct_from(rng, n, i as usize) as u32)
    }
}

impl PairSource for BiasedSchedule {
    fn n(&self) -> usize {
        self.n
    }

    fn next_pair(&mut self) -> (usize, usize) {
        let (rng, n, hot, bias) = (&mut self.rng, self.n, self.hot, self.bias);
        self.buf.next_pair(|| Self::draw(rng, n, hot, bias))
    }

    fn sample_block(&mut self, max: usize) -> &[Pair] {
        let (rng, n, hot, bias) = (&mut self.rng, self.n, self.hot, self.bias);
        self.buf.sample_block(max, || Self::draw(rng, n, hot, bias))
    }
}

/// A scheduler over a clustered population: agents are split into
/// `clusters` contiguous, near-equal groups; with probability `p_cross`
/// an interaction is drawn uniformly over the whole population,
/// otherwise it stays inside the initiator's cluster.
///
/// Singleton clusters fall back to a global responder (a cluster of one
/// has no internal pair).
#[derive(Debug, Clone)]
pub struct ClusteredSchedule {
    rng: SmallRng,
    n: usize,
    clusters: usize,
    p_cross: f64,
    buf: BlockBuffer,
}

impl ClusteredSchedule {
    /// A clustered scheduler over `n` agents in `clusters` groups with
    /// cross-cluster probability `p_cross`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `clusters` is not in `1..=n`, or `p_cross` is
    /// outside `[0, 1]`.
    pub fn new(n: usize, clusters: usize, p_cross: f64, seed: u64) -> Self {
        check_n(n);
        assert!(
            (1..=n).contains(&clusters),
            "cluster count must be within 1..=n"
        );
        assert!((0.0..=1.0).contains(&p_cross), "p_cross must be in [0, 1]");
        Self {
            rng: SmallRng::seed_from_u64(seed),
            n,
            clusters,
            p_cross,
            buf: BlockBuffer::new(),
        }
    }

    /// The cluster agent `i` belongs to (balanced contiguous split).
    pub fn cluster_of(&self, i: usize) -> usize {
        i * self.clusters / self.n
    }

    fn draw(rng: &mut SmallRng, n: usize, clusters: usize, p_cross: f64) -> Pair {
        let i = rng.random_range(0..n as u32) as usize;
        if p_cross > 0.0 && rng.random_bool(p_cross) {
            return (i as u32, distinct_from(rng, n, i) as u32);
        }
        let (start, end) = cluster_bounds(n, clusters, i * clusters / n);
        let size = end - start;
        if size < 2 {
            // Singleton cluster: no internal pair exists.
            return (i as u32, distinct_from(rng, n, i) as u32);
        }
        let r = start + rng.random_range(0..size as u32 - 1) as usize;
        let j = if r >= i { r + 1 } else { r };
        (i as u32, j as u32)
    }
}

/// `[start, end)` agent-index bounds of cluster `c` in the balanced
/// contiguous split of `n` agents into `clusters` groups.
fn cluster_bounds(n: usize, clusters: usize, c: usize) -> (usize, usize) {
    let start = (c * n).div_ceil(clusters);
    let end = ((c + 1) * n).div_ceil(clusters);
    (start, end)
}

impl PairSource for ClusteredSchedule {
    fn n(&self) -> usize {
        self.n
    }

    fn next_pair(&mut self) -> (usize, usize) {
        let (rng, n, clusters, p_cross) = (&mut self.rng, self.n, self.clusters, self.p_cross);
        self.buf.next_pair(|| Self::draw(rng, n, clusters, p_cross))
    }

    fn sample_block(&mut self, max: usize) -> &[Pair] {
        let (rng, n, clusters, p_cross) = (&mut self.rng, self.n, self.clusters, self.p_cross);
        self.buf
            .sample_block(max, || Self::draw(rng, n, clusters, p_cross))
    }
}

/// A deterministic round-robin sweep: interaction `t` pairs initiator
/// `t mod n` with the responder `offset` positions ahead (mod `n`),
/// where `offset = 1 + (t / n) mod (n − 1)` — every ordered pair appears
/// exactly once per `n(n−1)` interactions, with no randomness at all.
#[derive(Debug, Clone)]
pub struct RoundRobinSchedule {
    n: usize,
    t: u64,
    buf: BlockBuffer,
}

impl RoundRobinSchedule {
    /// A round-robin sweep over `n` agents.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > u32::MAX`.
    pub fn new(n: usize) -> Self {
        check_n(n);
        Self {
            n,
            t: 0,
            buf: BlockBuffer::new(),
        }
    }

    fn draw(t: &mut u64, n: usize) -> Pair {
        let i = (*t % n as u64) as usize;
        let offset = 1 + ((*t / n as u64) % (n as u64 - 1)) as usize;
        *t += 1;
        (i as u32, ((i + offset) % n) as u32)
    }
}

impl PairSource for RoundRobinSchedule {
    fn n(&self) -> usize {
        self.n
    }

    fn next_pair(&mut self) -> (usize, usize) {
        let (t, n) = (&mut self.t, self.n);
        self.buf.next_pair(|| Self::draw(t, n))
    }

    fn sample_block(&mut self, max: usize) -> &[Pair] {
        let (t, n) = (&mut self.t, self.n);
        self.buf.sample_block(max, || Self::draw(t, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn pairs_are_valid(source: &mut dyn PairSource, n: usize, count: usize) {
        for _ in 0..count {
            let (i, j) = source.next_pair();
            assert!(i < n && j < n, "({i}, {j}) out of range");
            assert_ne!(i, j, "self-interaction produced");
        }
    }

    #[test]
    fn biased_pairs_are_valid_and_skewed() {
        let n = 40;
        let mut s = BiasedSchedule::new(n, 4, 0.9, 1);
        pairs_are_valid(&mut s, n, 5_000);
        let mut hot_initiations = 0;
        for _ in 0..10_000 {
            if s.next_pair().0 < 4 {
                hot_initiations += 1;
            }
        }
        // 0.9 + 0.1 * (4/40) = 0.91 expected hot-initiator fraction vs
        // 0.10 under the uniform scheduler.
        assert!(
            hot_initiations > 8_000,
            "hot set initiated only {hot_initiations}/10000"
        );
    }

    #[test]
    fn biased_with_zero_bias_is_roughly_uniform() {
        let n = 8;
        let mut s = BiasedSchedule::new(n, 1, 0.0, 3);
        let mut counts = vec![0u32; n];
        for _ in 0..80_000 {
            counts[s.next_pair().0] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "initiator count {c}");
        }
    }

    #[test]
    fn clustered_with_hard_partition_never_crosses() {
        let n = 30;
        let mut s = ClusteredSchedule::new(n, 3, 0.0, 7);
        for _ in 0..20_000 {
            let (i, j) = s.next_pair();
            assert_eq!(
                s.cluster_of(i),
                s.cluster_of(j),
                "({i}, {j}) crossed a hard partition"
            );
        }
    }

    #[test]
    fn clustered_with_full_crossing_reaches_everywhere() {
        let n = 12;
        let mut s = ClusteredSchedule::new(n, 3, 1.0, 7);
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        for _ in 0..50_000 {
            seen.insert(s.next_pair());
        }
        assert_eq!(seen.len(), n * (n - 1), "all ordered pairs reachable");
    }

    #[test]
    fn clustered_singleton_clusters_fall_back_to_global() {
        // n == clusters: every cluster is a singleton; pairs must still
        // be valid (drawn globally).
        let n = 6;
        let mut s = ClusteredSchedule::new(n, n, 0.0, 1);
        pairs_are_valid(&mut s, n, 2_000);
    }

    #[test]
    fn clustered_block_and_scalar_share_the_stream() {
        let mut scalar = ClusteredSchedule::new(20, 4, 0.3, 9);
        let mut blocked = ClusteredSchedule::new(20, 4, 0.3, 9);
        let expected: Vec<(usize, usize)> = (0..3000).map(|_| scalar.next_pair()).collect();
        let mut got = Vec::new();
        while got.len() < 3000 {
            let block = blocked.sample_block(3000 - got.len()).to_vec();
            got.extend(block.iter().map(|&(i, j)| (i as usize, j as usize)));
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn round_robin_enumerates_every_ordered_pair_once_per_cycle() {
        let n = 7;
        let mut s = RoundRobinSchedule::new(n);
        let mut seen = HashSet::new();
        for _ in 0..n * (n - 1) {
            assert!(seen.insert(s.next_pair()), "pair repeated within a cycle");
        }
        assert_eq!(seen.len(), n * (n - 1));
        // The next cycle repeats the same set.
        for _ in 0..n * (n - 1) {
            assert!(!seen.insert(s.next_pair()));
        }
    }

    #[test]
    fn round_robin_blocks_match_scalar() {
        let mut scalar = RoundRobinSchedule::new(9);
        let mut blocked = RoundRobinSchedule::new(9);
        let expected: Vec<(usize, usize)> = (0..500).map(|_| scalar.next_pair()).collect();
        let mut got = Vec::new();
        while got.len() < 500 {
            let block = blocked.sample_block(500 - got.len()).to_vec();
            got.extend(block.iter().map(|&(i, j)| (i as usize, j as usize)));
        }
        assert_eq!(got, expected);
    }

    #[test]
    #[should_panic(expected = "hot set must be within")]
    fn biased_rejects_empty_hot_set() {
        let _ = BiasedSchedule::new(8, 0, 0.5, 0);
    }
}
