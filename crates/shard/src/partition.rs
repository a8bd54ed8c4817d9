//! Population partitioning and the exchange-round schedule.
//!
//! A sharded run splits the agent index space `0..n` into `shards`
//! contiguous, balanced ranges ([`bounds`]; sizes differ by at most
//! one), and the uniform scheduler into one lane per range ([`split`]).
//! Shard membership is a pure function of the index — [`owner`] — so
//! boundary pairs can be routed without any lookup table. Cross-shard
//! interactions are executed in *exchange rounds*: a round-robin
//! tournament ([`rounds`]) in which every round is a set of disjoint
//! shard pairs, so all matches of a round can run concurrently while
//! each executor exclusively owns both of its shards' state lanes.

use population::Schedule;

/// The agent-index range `[start, end)` owned by shard `s` in the
/// balanced contiguous split of `n` agents into `shards` shards:
/// `⌈s·n/shards⌉ .. ⌈(s+1)·n/shards⌉`.
pub fn bounds(n: usize, shards: usize, s: usize) -> (usize, usize) {
    debug_assert!(s < shards);
    ((s * n).div_ceil(shards), ((s + 1) * n).div_ceil(shards))
}

/// Seed stride between sibling lanes of one [`split`]: shard `s` is
/// seeded with `seed + s · STRIDE` (wrapping). `SmallRng`'s seeding
/// expands a seed into four *consecutive* SplitMix64 outputs, so the
/// stride is **four** SplitMix64 increments: sibling shards then draw
/// disjoint, consecutive four-output windows of the same SplitMix64
/// orbit — the reference "seed a family of generators from one
/// SplitMix64 stream" construction. (A stride of one increment would
/// make adjacent shards' state windows overlap in three of four
/// words.) Shard 0's seed is exactly the base seed, which is what makes
/// a 1-shard split reproduce [`Schedule::new`] bit for bit.
pub const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(4);

/// Split the uniform scheduler into `shards` balanced lanes: shard `s`
/// draws its initiators from [`bounds`]`(n, shards, s)` and is seeded
/// `seed + s ·`[`SHARD_SEED_STRIDE`]. With `shards = 1` the single lane
/// is `Schedule::new(n, seed)`.
///
/// # Panics
///
/// Panics if `n < 2` or `shards` is not in `1..=n`.
pub fn split(n: usize, seed: u64, shards: usize) -> Vec<Schedule> {
    assert!(n >= 2, "population needs at least two agents");
    assert!(
        (1..=n).contains(&shards),
        "shard count must be within 1..=n"
    );
    (0..shards)
        .map(|s| {
            let (start, end) = bounds(n, shards, s);
            let shard_seed = seed.wrapping_add((s as u64).wrapping_mul(SHARD_SEED_STRIDE));
            Schedule::lane(n, start, end - start, shard_seed)
        })
        .collect()
}

/// The shard owning agent `i`: the inverse of [`bounds`],
/// `⌊i·shards/n⌋`.
#[inline]
pub fn owner(n: usize, shards: usize, i: usize) -> usize {
    debug_assert!(i < n);
    // n ≤ u32::MAX and i < n, so the product fits in u64.
    ((i as u64 * shards as u64) / n as u64) as usize
}

/// Division-free shard lookup for the hot path.
///
/// [`owner`] costs a 64-bit division per boundary pair — tens of cycles
/// in a loop whose whole budget is ~50. `OwnerMap` precomputes the
/// fixed-point reciprocal `⌊shards·2³²/n⌋` and the shard start offsets;
/// a lookup is then one widening multiply, a shift, and (rarely) a
/// +1 correction against the start table. The approximation
/// `⌊i·⌊shards·2³²/n⌋/2³²⌋` never exceeds the true `⌊i·shards/n⌋` and
/// undershoots by less than `i/2³² < 1`, so a single upward correction
/// step suffices — exactness is property-tested against [`owner`].
#[derive(Debug, Clone)]
pub struct OwnerMap {
    /// `starts[s]` is the first agent of shard `s`; `starts[shards] = n`.
    starts: Vec<u32>,
    /// `⌊shards · 2³² / n⌋`.
    mul: u64,
}

impl OwnerMap {
    /// Build the lookup for `n` agents in `shards` shards.
    pub fn new(n: usize, shards: usize) -> Self {
        let starts = (0..shards)
            .map(|s| bounds(n, shards, s).0 as u32)
            .chain([n as u32])
            .collect();
        Self {
            starts,
            mul: ((shards as u64) << 32) / n as u64,
        }
    }

    /// The shard owning agent `i` — equal to [`owner`]`(n, shards, i)`.
    #[inline]
    pub fn owner(&self, i: u32) -> usize {
        let mut s = ((u64::from(i) * self.mul) >> 32) as usize;
        // The estimate is never high and at most one low.
        if self.starts[s + 1] <= i {
            s += 1;
        }
        debug_assert!(self.starts[s] <= i && i < self.starts[s + 1]);
        s
    }
}

/// The exchange-round schedule for `shards` shards: a round-robin
/// tournament (circle method). Every returned round is a list of shard
/// pairs `(a, b)` with `a < b`; within a round the pairs are disjoint
/// (no shard appears twice), and across all rounds every unordered
/// shard pair appears exactly once. For `shards < 2` there is nothing
/// to exchange and the schedule is empty; otherwise there are
/// `shards − 1` rounds (`shards` when odd, with one shard idle per
/// round).
pub fn rounds(shards: usize) -> Vec<Vec<(usize, usize)>> {
    if shards < 2 {
        return Vec::new();
    }
    // Pad to an even team count; the phantom team (index `m − 1` when
    // shards is odd) gives its opponent a bye.
    let m = shards + (shards % 2);
    let mut out = Vec::with_capacity(m - 1);
    for r in 0..m - 1 {
        let mut round = Vec::with_capacity(m / 2);
        for slot in 0..m / 2 {
            let (a, b) = if slot == 0 {
                (m - 1, r % (m - 1))
            } else {
                ((r + slot) % (m - 1), (r + m - 1 - slot) % (m - 1))
            };
            if a < shards && b < shards {
                round.push((a.min(b), a.max(b)));
            }
        }
        out.push(round);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn bounds_partition_the_population() {
        for (n, shards) in [(2, 1), (2, 2), (10, 3), (16, 4), (100, 7), (5, 5)] {
            let mut next = 0;
            for s in 0..shards {
                let (start, end) = bounds(n, shards, s);
                assert_eq!(start, next, "n={n} shards={shards} s={s}");
                assert!(end > start, "every shard owns at least one agent");
                assert!(
                    end - start <= n.div_ceil(shards),
                    "n={n} shards={shards} s={s}: size {} unbalanced",
                    end - start
                );
                next = end;
            }
            assert_eq!(next, n);
        }
    }

    #[test]
    fn split_with_one_shard_is_the_uniform_scheduler() {
        let mut lanes = split(20, 77, 1);
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].range(), (0, 20));
        let mut reference = Schedule::new(20, 77);
        for _ in 0..3000 {
            assert_eq!(reference.next_pair(), lanes[0].next_pair());
        }
    }

    #[test]
    fn split_ranges_are_balanced_and_cover_the_population() {
        for (n, shards) in [(10, 3), (16, 4), (7, 7), (100, 8), (5, 2)] {
            let lanes = split(n, 0, shards);
            let mut next = 0;
            for (s, lane) in lanes.iter().enumerate() {
                let (start, end) = lane.range();
                assert_eq!((start, end), bounds(n, shards, s));
                assert_eq!(start, next, "ranges must be contiguous");
                let len = end - start;
                assert!(
                    (n / shards..=n.div_ceil(shards)).contains(&len),
                    "n={n} shards={shards}: shard size {len} unbalanced"
                );
                next = end;
            }
            assert_eq!(next, n, "ranges must cover the population");
        }
    }

    #[test]
    fn sibling_shard_seed_windows_do_not_overlap() {
        // SmallRng::seed_from_u64 expands a seed into the four SplitMix64
        // outputs at orbit positions seed+G .. seed+4G (G = the SplitMix64
        // increment). The shard stride must keep sibling windows disjoint:
        // a stride of exactly G would overlap three of four state words.
        fn splitmix_window(seed: u64) -> Vec<u64> {
            let mut state = seed;
            (0..4)
                .map(|_| {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^ (z >> 31)
                })
                .collect()
        }
        let seed = 0xDEAD_BEEF_u64;
        let windows: Vec<Vec<u64>> = (0..8)
            .map(|s| splitmix_window(seed.wrapping_add((s as u64).wrapping_mul(SHARD_SEED_STRIDE))))
            .collect();
        for (a, wa) in windows.iter().enumerate() {
            for (b, wb) in windows.iter().enumerate() {
                if a != b {
                    assert!(
                        wa.iter().all(|x| !wb.contains(x)),
                        "shards {a} and {b} share SplitMix64 outputs"
                    );
                }
            }
        }
    }

    #[test]
    fn sibling_shard_streams_differ() {
        let mut lanes = split(16, 11, 2);
        let first: Vec<_> = (0..100).map(|_| lanes[0].next_pair().1).collect();
        let second: Vec<_> = (0..100).map(|_| lanes[1].next_pair().1).collect();
        assert_ne!(first, second, "sibling shards must not share a stream");
    }

    #[test]
    #[should_panic(expected = "shard count must be within")]
    fn split_rejects_more_shards_than_agents() {
        let _ = split(4, 0, 5);
    }

    #[test]
    fn owner_inverts_bounds() {
        for (n, shards) in [(2, 1), (2, 2), (10, 3), (16, 4), (100, 7), (31, 8)] {
            for s in 0..shards {
                let (start, end) = bounds(n, shards, s);
                for i in start..end {
                    assert_eq!(
                        owner(n, shards, i),
                        s,
                        "n={n} shards={shards}: agent {i} misrouted"
                    );
                }
            }
        }
    }

    #[test]
    fn owner_map_matches_the_division_formula() {
        for (n, shards) in [
            (2, 1),
            (2, 2),
            (10, 3),
            (16, 4),
            (100, 7),
            (31, 8),
            (1_000_003, 8),
            (65_536, 16),
        ] {
            let map = OwnerMap::new(n, shards);
            // Exhaustive for small n, boundary-focused for large n.
            let probes: Vec<usize> = if n <= 4096 {
                (0..n).collect()
            } else {
                (0..shards)
                    .flat_map(|s| {
                        let (start, end) = bounds(n, shards, s);
                        [start, start + 1, end - 1, (start + end) / 2]
                    })
                    .collect()
            };
            for i in probes {
                assert_eq!(
                    map.owner(i as u32),
                    owner(n, shards, i),
                    "n={n} shards={shards} i={i}"
                );
            }
        }
    }

    #[test]
    fn rounds_cover_every_shard_pair_exactly_once() {
        for shards in 2..=9 {
            let schedule = rounds(shards);
            let mut seen = HashSet::new();
            for round in &schedule {
                let mut in_round = HashSet::new();
                for &(a, b) in round {
                    assert!(a < b && b < shards, "invalid match ({a}, {b})");
                    assert!(in_round.insert(a), "shard {a} doubly booked in a round");
                    assert!(in_round.insert(b), "shard {b} doubly booked in a round");
                    assert!(seen.insert((a, b)), "match ({a}, {b}) repeated");
                }
            }
            assert_eq!(
                seen.len(),
                shards * (shards - 1) / 2,
                "shards={shards}: not all pairs scheduled"
            );
        }
    }

    #[test]
    fn no_exchange_rounds_for_a_single_shard() {
        assert!(rounds(0).is_empty());
        assert!(rounds(1).is_empty());
    }
}
