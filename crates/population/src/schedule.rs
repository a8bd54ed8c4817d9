//! Pair scheduling: the [`PairSource`] abstraction and the paper's
//! uniform random scheduler, [`Schedule`].
//!
//! A pair source owns whatever state it needs (an RNG, a sweep counter)
//! and produces the ordered pairs `(initiator, responder)` that drive a
//! simulation. Every source supports two consumption styles over the
//! *same* pair stream:
//!
//! * [`PairSource::next_pair`] — draw one pair, for scalar stepping;
//! * [`PairSource::sample_block`] — pre-sample a block of pairs in one
//!   tight loop, for the batched hot path
//!   ([`Simulator::run_batched`](crate::Simulator::run_batched)).
//!
//! Both styles consume pairs from the same underlying sequence in FIFO
//! order, so a simulation is **bit-for-bit trajectory-equivalent**
//! whether it is stepped one interaction at a time, run in batches, or
//! any interleaving of the two. Pre-sampling exists purely to make the
//! hot path faster: the source's state stays in registers across a whole
//! block instead of being reloaded per interaction, and the transition
//! loop that follows runs without the sampler's branches in it.
//!
//! [`Schedule`] is the canonical implementation — the paper's uniform
//! scheduler. Adversarial sources (biased, clustered/partitioned,
//! round-robin) live in the `scenarios` crate and plug into the same
//! [`Simulator`](crate::Simulator) via
//! [`Simulator::with_source`](crate::Simulator::with_source), which is
//! how protocols are run *off* the uniform-scheduler assumption. The
//! [`BlockBuffer`] helper implements the FIFO buffering contract once so
//! every source gets interleaving-safety for free.
//!
//! [`PairSource::skip`] advances a stream without producing its pairs,
//! for engines that fast-forward a certified-silent configuration. The
//! uniform sources skip in O(log k) by jumping their generator ahead
//! (Haramoto et al., 2008); other sources draw and discard.

mod jump;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// An ordered agent pair, stored compactly for block buffers.
pub type Pair = (u32, u32);

/// Default number of pairs sampled per block by the batched hot path:
/// 2¹² pairs = 32 KiB of buffer, sized to stay in L1.
pub const BLOCK_PAIRS: usize = 4096;

/// A producer of ordered interaction pairs `(initiator, responder)`.
///
/// This is the scheduler seam of the engine: [`Schedule`] implements the
/// paper's uniform scheduler, and the `scenarios` crate implements
/// adversarial ones. Implementations must uphold two contracts:
///
/// 1. **Validity** — every produced pair `(i, j)` satisfies
///    `i < n`, `j < n`, `i != j`.
/// 2. **Single stream** — [`next_pair`](PairSource::next_pair) and
///    [`sample_block`](PairSource::sample_block) consume the *same*
///    underlying pair sequence in FIFO order, so scalar and batched
///    execution (and any interleaving) follow the identical trajectory.
///    Embedding a [`BlockBuffer`] and drawing pairs through one
///    canonical function gives this property by construction.
pub trait PairSource {
    /// Population size the source draws pairs for.
    fn n(&self) -> usize;

    /// Draw the next ordered pair of the stream (scalar path).
    fn next_pair(&mut self) -> (usize, usize);

    /// Return the next at-most-`max` pairs of the stream as a block,
    /// pre-sampling a fresh buffer if the previous one is exhausted
    /// (batched path). The returned slice is nonempty for `max > 0`;
    /// callers loop until they have consumed as many pairs as they need.
    fn sample_block(&mut self, max: usize) -> &[Pair];

    /// Consume the next `count` pairs of the stream without returning
    /// them, leaving the source exactly where `count` draws would.
    /// The default draws and discards them block by block.
    fn skip(&mut self, count: u64) {
        let mut left = count;
        while left > 0 {
            left -= self
                .sample_block(left.min(BLOCK_PAIRS as u64) as usize)
                .len() as u64;
        }
    }
}

/// The FIFO block buffer shared by every [`PairSource`] implementation.
///
/// Holds pre-sampled pairs and serves them in order; when the buffer is
/// exhausted, the owner refills it from its canonical pair-drawing
/// function. Routing *both* the scalar and the batched path through the
/// same buffer is what makes interleaved consumption seamless.
#[derive(Debug, Clone, Default)]
pub struct BlockBuffer {
    block: Vec<Pair>,
    pos: usize,
}

impl BlockBuffer {
    /// New, empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serve one pair: from the buffer if nonempty, else freshly drawn.
    #[inline]
    pub fn next_pair(&mut self, draw: impl FnOnce() -> Pair) -> (usize, usize) {
        if self.pos < self.block.len() {
            let (i, j) = self.block[self.pos];
            self.pos += 1;
            (i as usize, j as usize)
        } else {
            let (i, j) = draw();
            (i as usize, j as usize)
        }
    }

    /// Serve the next at-most-`max` buffered pairs, refilling an
    /// exhausted buffer with `max.min(BLOCK_PAIRS)` draws first.
    #[inline]
    pub fn sample_block(&mut self, max: usize, mut draw: impl FnMut() -> Pair) -> &[Pair] {
        if self.pos >= self.block.len() {
            let count = max.min(BLOCK_PAIRS);
            self.block.clear();
            self.block.reserve(count);
            for _ in 0..count {
                self.block.push(draw());
            }
            self.pos = 0;
        }
        let start = self.pos;
        let end = self.block.len().min(start + max);
        self.pos = end;
        &self.block[start..end]
    }

    /// Number of pairs currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.block.len() - self.pos
    }

    /// Consume up to `max` buffered pairs, returning them.
    pub fn drain(&mut self, max: u64) -> &[Pair] {
        let start = self.pos;
        self.pos += self
            .buffered()
            .min(usize::try_from(max).unwrap_or(usize::MAX));
        &self.block[start..self.pos]
    }

    /// The buffered-but-unconsumed tail of the stream, in FIFO order —
    /// the part of a source's position that lives outside its RNG.
    /// Captured by [`ScheduleCursor`] so a restored source replays these
    /// pairs *before* drawing fresh ones, keeping resumption mid-block
    /// bit-exact.
    pub fn pending(&self) -> &[Pair] {
        &self.block[self.pos..]
    }

    /// A buffer whose unconsumed tail is exactly `pending` (used when
    /// restoring a source from a [`ScheduleCursor`]).
    pub fn with_pending(pending: Vec<Pair>) -> Self {
        Self {
            block: pending,
            pos: 0,
        }
    }
}

/// The serializable position of a pair source: the RNG state plus the
/// pre-sampled pairs that were buffered but not yet consumed when the
/// cursor was captured.
///
/// Both [`Schedule`] (where `start = 0`, `len = n`) and [`SubSchedule`]
/// export to this one shape, so a snapshot stores a `Vec<ScheduleCursor>`
/// with one entry per shard regardless of the execution path. The
/// restored source continues the pair stream **bit for bit**: it first
/// replays `pending`, then draws from the restored RNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleCursor {
    /// Raw xoshiro256++ state words of the source's RNG.
    pub rng: [u64; 4],
    /// Population size the source draws pairs for.
    pub n: u64,
    /// First initiator index of the source's range (0 for [`Schedule`]).
    pub start: u64,
    /// Length of the initiator range (`n` for [`Schedule`]).
    pub len: u64,
    /// Buffered-but-unconsumed pairs, FIFO order (usually empty: the
    /// engine checkpoints at block boundaries, but the format does not
    /// rely on that).
    pub pending: Vec<Pair>,
    /// Topology specification words, **empty for the uniform sources**
    /// ([`Schedule`], [`SubSchedule`]). A graph-restricted source (the
    /// `topology` crate's `GraphSchedule`) stores its generator
    /// specification here so the graph — a deterministic function of
    /// the spec — can be regenerated at restore time instead of being
    /// serialized edge by edge. Uniform sources reject cursors whose
    /// `topo` is non-empty: restoring a graph cursor on the clique
    /// would silently change the pair distribution.
    pub topo: Vec<u64>,
}

/// Pair sources whose position can be exported to a [`ScheduleCursor`]
/// and later restored bit-exactly — the scheduler half of the
/// checkpoint/restore seam. Implemented by [`Schedule`] and
/// [`SubSchedule`]; adversarial sources in `scenarios` are not
/// checkpointable (they are measurement tools, not long-run engines).
pub trait CursorSource: PairSource + Sized {
    /// Capture the source's current position.
    fn cursor(&self) -> ScheduleCursor;

    /// Rebuild a source at the captured position. The restored source
    /// continues the pair stream of the captured one bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is malformed (zero RNG state, out-of-range
    /// bounds, or a range shape the implementing type cannot represent).
    /// Callers that load cursors from untrusted bytes validate first
    /// (the snapshot loader checks CRCs and bounds before this runs).
    fn from_cursor(cursor: ScheduleCursor) -> Self;
}

/// Seeded generator of uniform ordered pairs of distinct agents.
#[derive(Debug, Clone)]
pub struct Schedule {
    rng: SmallRng,
    n: usize,
    buf: BlockBuffer,
}

/// Draw one uniform ordered pair of distinct agents from a single
/// 64-bit RNG output.
///
/// The initiator is uniform over `0..n` (low 32 bits); the responder is
/// uniform over the remaining `n − 1` agents (high 32 bits, drawn from
/// `0..n−1` and skipping the initiator). This is the paper's uniform
/// scheduler. Index reduction uses the widening-multiply map
/// `(x · n) >> 32`, whose bias is below `n · 2⁻³²` (< 10⁻⁴ for every
/// population size this repository simulates) — orders of magnitude
/// under the sampling noise of any experiment here, in exchange for one
/// RNG output and zero rejection branches per pair.
///
/// This is the one canonical consumption of the RNG per pair — the
/// scalar and the batched path both go through this exact function,
/// which is what makes them trajectory-equivalent.
#[inline]
fn draw_pair(rng: &mut SmallRng, n: usize) -> Pair {
    // The full-range special case of the sub-schedule draw — delegating
    // (rather than duplicating the index maps) is what keeps the
    // `shards = 1 ≡ run_batched` anchor bit-identical *by construction*;
    // `start = 0` and `len = n` constant-fold away.
    draw_sub_pair(rng, n, 0, n)
}

impl Schedule {
    /// Create a schedule for a population of `n` agents, seeded with
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (no pair of distinct agents exists) or
    /// `n > u32::MAX` (pairs are stored as `u32` indices).
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "population needs at least two agents");
        assert!(u32::try_from(n).is_ok(), "population size exceeds u32");
        Self {
            rng: SmallRng::seed_from_u64(seed),
            n,
            buf: BlockBuffer::new(),
        }
    }

    /// Population size this schedule draws pairs for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Draw the next ordered pair (scalar path). Consumes buffered pairs
    /// first so that scalar and batched consumption can be interleaved
    /// freely without perturbing the stream.
    #[inline]
    pub fn next_pair(&mut self) -> (usize, usize) {
        let (rng, n) = (&mut self.rng, self.n);
        self.buf.next_pair(|| draw_pair(rng, n))
    }

    /// Return the next at-most-`max` pairs of the stream as a block,
    /// pre-sampling a fresh buffer if the previous one is exhausted
    /// (batched path).
    ///
    /// The returned slice is nonempty for `max > 0`; callers loop until
    /// they have consumed as many pairs as they need.
    #[inline]
    pub fn sample_block(&mut self, max: usize) -> &[Pair] {
        let (rng, n) = (&mut self.rng, self.n);
        self.buf.sample_block(max, || draw_pair(rng, n))
    }

    /// Number of pairs currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.buffered()
    }
}

impl CursorSource for Schedule {
    fn cursor(&self) -> ScheduleCursor {
        ScheduleCursor {
            rng: self.rng.state(),
            n: self.n as u64,
            start: 0,
            len: self.n as u64,
            pending: self.buf.pending().to_vec(),
            topo: Vec::new(),
        }
    }

    fn from_cursor(cursor: ScheduleCursor) -> Self {
        assert!(
            cursor.start == 0 && cursor.len == cursor.n,
            "Schedule cursor must cover the full initiator range"
        );
        assert!(
            cursor.topo.is_empty(),
            "cursor carries a topology spec; restore it with GraphSchedule"
        );
        let n = usize::try_from(cursor.n).expect("population size exceeds usize");
        assert!(n >= 2, "population needs at least two agents");
        assert!(u32::try_from(n).is_ok(), "population size exceeds u32");
        Self {
            rng: SmallRng::from_state(cursor.rng),
            n,
            buf: BlockBuffer::with_pending(cursor.pending),
        }
    }
}

impl PairSource for Schedule {
    fn n(&self) -> usize {
        Schedule::n(self)
    }

    #[inline]
    fn next_pair(&mut self) -> (usize, usize) {
        Schedule::next_pair(self)
    }

    #[inline]
    fn sample_block(&mut self, max: usize) -> &[Pair] {
        Schedule::sample_block(self, max)
    }

    /// Drains the buffer, then jumps the generator past the rest: one
    /// `next_u64` per pair.
    fn skip(&mut self, count: u64) {
        let rest = count - self.buf.drain(count).len() as u64;
        jump::advance(&mut self.rng, rest);
    }
}

/// Seed stride between sibling [`SubSchedule`]s of one split: shard `s`
/// is seeded with `seed + s · STRIDE` (wrapping). `SmallRng`'s seeding
/// expands a seed into four *consecutive* SplitMix64 outputs, so the
/// stride is **four** SplitMix64 increments: sibling shards then draw
/// disjoint, consecutive four-output windows of the same SplitMix64
/// orbit — the reference "seed a family of generators from one
/// SplitMix64 stream" construction. (A stride of one increment would
/// make adjacent shards' state windows overlap in three of four
/// words.) Shard 0's seed is exactly the base seed, which is what makes
/// a 1-shard split reproduce [`Schedule`] bit for bit.
pub const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(4);

/// A range-restricted uniform sub-schedule: the initiator is uniform
/// over a contiguous slice `start..start+len` of the population, the
/// responder uniform over the remaining `n − 1` agents — the per-shard
/// pair stream of the sharded simulator (`crates/shard`).
///
/// The draw consumes exactly one RNG output per pair with the same
/// widening-multiply index maps as [`Schedule`], so a `SubSchedule`
/// covering the **full** range (`start = 0`, `len = n`) seeded with `s`
/// produces *bit for bit* the stream of `Schedule::new(n, s)` — the
/// anchor of the sharded engine's `shards = 1 ≡ run_batched`
/// equivalence. A balanced family of sub-schedules (one per shard,
/// each drawing the same number of pairs per block) approximates the
/// uniform scheduler: initiators are uniform within each shard and
/// shards are served equally, so the initiator marginal deviates from
/// uniform only through the ≤ 1 agent size imbalance between shards.
#[derive(Debug, Clone)]
pub struct SubSchedule {
    rng: SmallRng,
    n: usize,
    start: usize,
    len: usize,
    buf: BlockBuffer,
}

/// Draw one pair whose initiator is uniform over `start..start+len` and
/// whose responder is uniform over the other `n − 1` agents, from a
/// single 64-bit RNG output. This is the canonical pair draw:
/// [`draw_pair`] is its full-range special case (the uniform
/// scheduler), delegated rather than duplicated so the two can never
/// drift apart.
#[inline]
fn draw_sub_pair(rng: &mut SmallRng, n: usize, start: usize, len: usize) -> Pair {
    let bits = rng.next_u64();
    let i = start as u32 + (((bits & 0xFFFF_FFFF) * len as u64) >> 32) as u32;
    let r = (((bits >> 32) * (n as u64 - 1)) >> 32) as u32;
    let j = if r >= i { r + 1 } else { r };
    (i, j)
}

impl SubSchedule {
    /// A sub-schedule over the initiator range `start..start+len` of a
    /// population of `n` agents, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `n > u32::MAX`, the range is empty, or the
    /// range exceeds the population.
    pub fn new(n: usize, start: usize, len: usize, seed: u64) -> Self {
        assert!(n >= 2, "population needs at least two agents");
        assert!(u32::try_from(n).is_ok(), "population size exceeds u32");
        assert!(len >= 1, "initiator range must be nonempty");
        assert!(
            start.checked_add(len).is_some_and(|end| end <= n),
            "initiator range {start}..{} exceeds population {n}",
            start + len
        );
        Self {
            rng: SmallRng::seed_from_u64(seed),
            n,
            start,
            len,
            buf: BlockBuffer::new(),
        }
    }

    /// Split the uniform scheduler into `shards` balanced sub-schedules:
    /// shard `s` owns the contiguous initiator range
    /// `⌈s·n/shards⌉ .. ⌈(s+1)·n/shards⌉` (sizes differ by at most one)
    /// and is seeded `seed + s ·`[`SHARD_SEED_STRIDE`]. With
    /// `shards = 1` the single sub-schedule reproduces
    /// `Schedule::new(n, seed)` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `shards` is not in `1..=n`.
    pub fn split(n: usize, seed: u64, shards: usize) -> Vec<SubSchedule> {
        assert!(n >= 2, "population needs at least two agents");
        assert!(
            (1..=n).contains(&shards),
            "shard count must be within 1..=n"
        );
        (0..shards)
            .map(|s| {
                let start = (s * n).div_ceil(shards);
                let end = ((s + 1) * n).div_ceil(shards);
                let shard_seed = seed.wrapping_add((s as u64).wrapping_mul(SHARD_SEED_STRIDE));
                SubSchedule::new(n, start, end - start, shard_seed)
            })
            .collect()
    }

    /// The initiator range `[start, start + len)` this sub-schedule
    /// draws from.
    pub fn range(&self) -> (usize, usize) {
        (self.start, self.start + self.len)
    }

    /// [`skip`](PairSource::skip) `count` pairs, returning how many of
    /// them have their responder inside the initiator range. Telling
    /// takes every draw, so this steps the generator instead of jumping.
    pub fn skip_local(&mut self, count: u64) -> u64 {
        let (n, start, len) = (self.n, self.start, self.len);
        let local = |(_, j): Pair| u64::from((j as usize).wrapping_sub(start) < len);
        let drained = self.buf.drain(count);
        let mut hits: u64 = drained.iter().map(|&p| local(p)).sum();
        for _ in drained.len() as u64..count {
            hits += local(draw_sub_pair(&mut self.rng, n, start, len));
        }
        hits
    }
}

impl CursorSource for SubSchedule {
    fn cursor(&self) -> ScheduleCursor {
        ScheduleCursor {
            rng: self.rng.state(),
            n: self.n as u64,
            start: self.start as u64,
            len: self.len as u64,
            pending: self.buf.pending().to_vec(),
            topo: Vec::new(),
        }
    }

    fn from_cursor(cursor: ScheduleCursor) -> Self {
        assert!(
            cursor.topo.is_empty(),
            "cursor carries a topology spec; restore it with GraphSchedule"
        );
        let n = usize::try_from(cursor.n).expect("population size exceeds usize");
        let start = usize::try_from(cursor.start).expect("range start exceeds usize");
        let len = usize::try_from(cursor.len).expect("range length exceeds usize");
        assert!(n >= 2, "population needs at least two agents");
        assert!(u32::try_from(n).is_ok(), "population size exceeds u32");
        assert!(len >= 1, "initiator range must be nonempty");
        assert!(
            start.checked_add(len).is_some_and(|end| end <= n),
            "initiator range {start}..{} exceeds population {n}",
            start + len
        );
        Self {
            rng: SmallRng::from_state(cursor.rng),
            n,
            start,
            len,
            buf: BlockBuffer::with_pending(cursor.pending),
        }
    }
}

impl PairSource for SubSchedule {
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn next_pair(&mut self) -> (usize, usize) {
        let (rng, n, start, len) = (&mut self.rng, self.n, self.start, self.len);
        self.buf.next_pair(|| draw_sub_pair(rng, n, start, len))
    }

    #[inline]
    fn sample_block(&mut self, max: usize) -> &[Pair] {
        let (rng, n, start, len) = (&mut self.rng, self.n, self.start, self.len);
        self.buf
            .sample_block(max, || draw_sub_pair(rng, n, start, len))
    }

    /// Drains the buffer, then jumps the generator past the rest, like
    /// [`Schedule`]'s.
    fn skip(&mut self, count: u64) {
        let rest = count - self.buf.drain(count).len() as u64;
        jump::advance(&mut self.rng, rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_scalar(s: &mut Schedule, count: usize) -> Vec<(usize, usize)> {
        (0..count).map(|_| s.next_pair()).collect()
    }

    #[test]
    fn pairs_are_distinct_and_in_range() {
        let mut s = Schedule::new(17, 1);
        for _ in 0..10_000 {
            let (i, j) = s.next_pair();
            assert!(i < 17 && j < 17);
            assert_ne!(i, j);
        }
    }

    #[test]
    fn block_and_scalar_produce_the_same_stream() {
        let mut scalar = Schedule::new(100, 42);
        let mut blocked = Schedule::new(100, 42);
        let expected = drain_scalar(&mut scalar, 10_000);
        let mut got = Vec::new();
        while got.len() < 10_000 {
            let block = blocked.sample_block(10_000 - got.len());
            got.extend(block.iter().map(|&(i, j)| (i as usize, j as usize)));
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn interleaving_scalar_and_block_consumption_is_seamless() {
        let mut reference = Schedule::new(50, 7);
        let expected = drain_scalar(&mut reference, 5000);

        let mut mixed = Schedule::new(50, 7);
        let mut got = Vec::new();
        // Alternate: a few scalar draws, then a block, repeatedly — the
        // stream must be identical to pure scalar consumption.
        while got.len() < 5000 {
            for _ in 0..3 {
                if got.len() < 5000 {
                    got.push(mixed.next_pair());
                }
            }
            let want = (5000 - got.len()).min(37);
            if want > 0 {
                let block: Vec<Pair> = mixed.sample_block(want).to_vec();
                got.extend(block.iter().map(|&(i, j)| (i as usize, j as usize)));
            }
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn block_sizes_do_not_change_the_stream() {
        let take = |block_req: usize| {
            let mut s = Schedule::new(20, 9);
            let mut got = Vec::new();
            while got.len() < 3000 {
                let want = (3000 - got.len()).min(block_req);
                got.extend(s.sample_block(want).to_vec());
            }
            got
        };
        let a = take(1);
        let b = take(64);
        let c = take(4096);
        let d = take(1000);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(c, d);
    }

    #[test]
    fn initiator_distribution_is_uniform() {
        let n = 8;
        let mut s = Schedule::new(n, 3);
        let mut counts = vec![0u32; n];
        for _ in 0..80_000 {
            counts[s.next_pair().0] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "initiator count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn rejects_singleton_population() {
        let _ = Schedule::new(1, 0);
    }

    #[test]
    fn trait_consumption_matches_inherent_consumption() {
        let mut inherent = Schedule::new(30, 5);
        let mut via_trait = Schedule::new(30, 5);
        let dynamic: &mut dyn PairSource = &mut via_trait;
        assert_eq!(dynamic.n(), 30);
        for _ in 0..500 {
            assert_eq!(inherent.next_pair(), dynamic.next_pair());
        }
        let a: Vec<Pair> = inherent.sample_block(64).to_vec();
        let b: Vec<Pair> = dynamic.sample_block(64).to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn full_range_sub_schedule_matches_schedule_bit_for_bit() {
        // The anchor of the sharded engine's shards = 1 equivalence: a
        // sub-schedule over the whole population is the uniform
        // scheduler, same seed, same stream.
        let mut reference = Schedule::new(33, 1234);
        let mut sub = SubSchedule::new(33, 0, 33, 1234);
        for _ in 0..10_000 {
            assert_eq!(reference.next_pair(), sub.next_pair());
        }
    }

    #[test]
    fn split_with_one_shard_is_the_uniform_scheduler() {
        let mut shards = SubSchedule::split(20, 77, 1);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].range(), (0, 20));
        let mut reference = Schedule::new(20, 77);
        for _ in 0..3000 {
            assert_eq!(reference.next_pair(), shards[0].next_pair());
        }
    }

    #[test]
    fn split_ranges_are_balanced_and_cover_the_population() {
        for (n, shards) in [(10, 3), (16, 4), (7, 7), (100, 8), (5, 2)] {
            let subs = SubSchedule::split(n, 0, shards);
            let mut next = 0;
            for sub in &subs {
                let (start, end) = sub.range();
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
    fn sub_schedule_pairs_are_valid_and_initiators_stay_in_range() {
        let mut sub = SubSchedule::new(29, 10, 9, 5);
        for _ in 0..20_000 {
            let (i, j) = sub.next_pair();
            assert!((10..19).contains(&i), "initiator {i} out of range");
            assert!(j < 29, "responder {j} out of range");
            assert_ne!(i, j);
        }
    }

    #[test]
    fn sub_schedule_responders_reach_the_whole_population() {
        let n = 12;
        let mut sub = SubSchedule::new(n, 4, 2, 3);
        let mut seen = vec![false; n];
        for _ in 0..10_000 {
            seen[sub.next_pair().1] = true;
        }
        let reachable = seen.iter().filter(|&&b| b).count();
        assert!(reachable >= n - 1, "responders must span the population");
    }

    #[test]
    fn sub_schedule_block_and_scalar_share_the_stream() {
        let mut scalar = SubSchedule::new(40, 8, 12, 9);
        let mut blocked = SubSchedule::new(40, 8, 12, 9);
        let expected: Vec<(usize, usize)> = (0..3000).map(|_| scalar.next_pair()).collect();
        let mut got = Vec::new();
        while got.len() < 3000 {
            let block = blocked.sample_block(3000 - got.len()).to_vec();
            got.extend(block.iter().map(|&(i, j)| (i as usize, j as usize)));
        }
        assert_eq!(got, expected);
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
        let mut subs = SubSchedule::split(16, 11, 2);
        let (a, b) = subs.split_at_mut(1);
        let first: Vec<_> = (0..100).map(|_| a[0].next_pair().1).collect();
        let second: Vec<_> = (0..100).map(|_| b[0].next_pair().1).collect();
        assert_ne!(first, second, "sibling shards must not share a stream");
    }

    #[test]
    #[should_panic(expected = "exceeds population")]
    fn sub_schedule_rejects_out_of_bounds_range() {
        let _ = SubSchedule::new(10, 8, 4, 0);
    }

    #[test]
    #[should_panic(expected = "shard count must be within")]
    fn split_rejects_more_shards_than_agents() {
        let _ = SubSchedule::split(4, 0, 5);
    }

    #[test]
    fn schedule_cursor_round_trip_continues_the_stream() {
        let mut original = Schedule::new(64, 99);
        for _ in 0..1000 {
            original.next_pair();
        }
        let mut restored = Schedule::from_cursor(original.cursor());
        for _ in 0..5000 {
            assert_eq!(original.next_pair(), restored.next_pair());
        }
    }

    #[test]
    fn cursor_pending_pairs_replay_before_fresh_draws() {
        // A cursor whose `pending` is non-empty (the engine's own
        // buffers drain within each block, so this arises only from a
        // snapshot written by a differently-buffered implementation —
        // the format supports it regardless): the restored source must
        // replay the pending tail first, then continue from the RNG.
        let mut reference = Schedule::new(32, 5);
        let expected = drain_scalar(&mut reference, 100);

        // Reconstruct that exact position "5 pairs into the stream,
        // with those 5 pairs still buffered": RNG advanced past them,
        // pairs carried in `pending`.
        let mut advanced = Schedule::new(32, 5);
        let replay: Vec<Pair> = (0..5)
            .map(|_| {
                let (i, j) = advanced.next_pair();
                (i as u32, j as u32)
            })
            .collect();
        let mut cursor = advanced.cursor();
        cursor.pending = replay;

        let mut restored = Schedule::from_cursor(cursor);
        let got = drain_scalar(&mut restored, 100);
        assert_eq!(got, expected);
    }

    #[test]
    fn restored_schedule_mixed_consumption_matches() {
        // The restored source must honor the FIFO single-stream contract
        // across consumption styles, exactly like a fresh one.
        let mut a = Schedule::new(48, 21);
        for _ in 0..777 {
            a.next_pair();
        }
        let mut b = Schedule::from_cursor(a.cursor());
        let got_a = drain_scalar(&mut a, 4000);
        let mut got_b = Vec::new();
        while got_b.len() < 4000 {
            got_b.push(b.next_pair());
            let want = (4000 - got_b.len()).min(13);
            got_b.extend(
                b.sample_block(want)
                    .iter()
                    .map(|&(i, j)| (i as usize, j as usize)),
            );
        }
        assert_eq!(got_b, got_a);
    }

    #[test]
    fn sub_schedule_cursor_round_trip_continues_the_stream() {
        let mut original = SubSchedule::new(40, 10, 11, 123);
        for _ in 0..500 {
            original.next_pair();
        }
        let _ = original.sample_block(7); // leave a partial buffer behind
        let cursor = original.cursor();
        assert_eq!(cursor.start, 10);
        assert_eq!(cursor.len, 11);
        let mut restored = SubSchedule::from_cursor(cursor);
        assert_eq!(restored.range(), (10, 21));
        for _ in 0..5000 {
            assert_eq!(original.next_pair(), restored.next_pair());
        }
    }

    #[test]
    #[should_panic(expected = "full initiator range")]
    fn schedule_rejects_partial_range_cursor() {
        let sub = SubSchedule::new(20, 5, 5, 1);
        let _ = Schedule::from_cursor(sub.cursor());
    }

    #[test]
    #[should_panic(expected = "exceeds population")]
    fn sub_schedule_rejects_out_of_bounds_cursor() {
        let mut cursor = SubSchedule::new(20, 5, 5, 1).cursor();
        cursor.start = 18;
        let _ = SubSchedule::from_cursor(cursor);
    }

    /// A schedule `buffered` pairs into its stream with those pairs still
    /// pending in its buffer, as a restored cursor leaves it.
    fn with_pending(seed: u64, buffered: usize) -> Schedule {
        let mut s = Schedule::new(1000, seed);
        let pending: Vec<Pair> = (0..buffered)
            .map(|_| {
                let (i, j) = s.next_pair();
                (i as u32, j as u32)
            })
            .collect();
        let mut cursor = s.cursor();
        cursor.pending = pending;
        Schedule::from_cursor(cursor)
    }

    /// `skip(k)` leaves the source where `k` draws leave it: same RNG
    /// words, same pending pairs, same continuation.
    fn assert_skip_matches<S: CursorSource>(mut drawn: S, mut skipped: S, k: u64) {
        for _ in 0..k {
            drawn.next_pair();
        }
        skipped.skip(k);
        assert_eq!(skipped.cursor(), drawn.cursor(), "k = {k}");
        for _ in 0..10 {
            assert_eq!(skipped.next_pair(), drawn.next_pair(), "k = {k}");
        }
    }

    #[test]
    fn skip_equals_draws() {
        const BUFFERED: u64 = 37;
        let mut random = SmallRng::seed_from_u64(11);
        let fixed = [
            0,
            1,
            BUFFERED - 1,
            BUFFERED,
            BUFFERED + 1,
            255,
            256,
            4096,
            (1 << 16) - 1,
            (1 << 16) + 1,
            1 << 20,
        ];
        let drawn: Vec<u64> = (0..6).map(|_| random.next_u64() % (1 << 21)).collect();
        for (seed, k) in fixed.into_iter().chain(drawn).enumerate() {
            let seed = seed as u64;
            assert_skip_matches(
                with_pending(seed, BUFFERED as usize),
                with_pending(seed, BUFFERED as usize),
                k,
            );
            assert_skip_matches(Schedule::new(64, seed), Schedule::new(64, seed), k);
            assert_skip_matches(
                SubSchedule::new(64, 16, 16, seed),
                SubSchedule::new(64, 16, 16, seed),
                k,
            );
        }
    }

    /// A source that keeps the default `skip`.
    struct Plain(Schedule);

    impl PairSource for Plain {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn next_pair(&mut self) -> (usize, usize) {
            self.0.next_pair()
        }
        fn sample_block(&mut self, max: usize) -> &[Pair] {
            self.0.sample_block(max)
        }
    }

    #[test]
    fn default_skip_draws_and_discards() {
        for k in [0, 1, 4095, 4097, 10_000] {
            let mut drawn = with_pending(k, 5);
            let mut skipped = Plain(with_pending(k, 5));
            for _ in 0..k {
                drawn.next_pair();
            }
            skipped.skip(k);
            assert_eq!(skipped.0.cursor(), drawn.cursor(), "k = {k}");
        }
    }

    #[test]
    fn skip_local_counts_the_lane_local_responders() {
        let (start, len) = (10, 7);
        for k in [0, 3, 1000, 5000] {
            let mut drawn = SubSchedule::new(40, start, len, k);
            let _ = drawn.sample_block(1);
            let mut cursor = drawn.cursor();
            cursor.pending = vec![(12, 13), (11, 30)];
            let mut drawn = SubSchedule::from_cursor(cursor.clone());
            let mut skipped = SubSchedule::from_cursor(cursor);
            let local = (0..k)
                .filter(|_| (start..start + len).contains(&drawn.next_pair().1))
                .count() as u64;
            assert_eq!(skipped.skip_local(k), local, "k = {k}");
            assert_eq!(skipped.cursor(), drawn.cursor(), "k = {k}");
        }
    }

    #[test]
    fn block_buffer_interleaves_fifo() {
        // A counting draw function: the buffer must hand values back in
        // exactly the order they were drawn, across both styles.
        let mut next = 0u32;
        // Captures `next` by mutable reference: the counter advances
        // across every consumption style below.
        let mut draw = || {
            next += 1;
            (next, next + 1)
        };
        let mut buf = BlockBuffer::new();
        let first = buf.sample_block(3, &mut draw).to_vec();
        assert_eq!(first, vec![(1, 2), (2, 3), (3, 4)]);
        assert_eq!(buf.buffered(), 0);
        assert_eq!(buf.next_pair(&mut draw), (4, 5));
        let rest = buf.sample_block(2, &mut draw).to_vec();
        assert_eq!(rest, vec![(5, 6), (6, 7)]);
    }
}
