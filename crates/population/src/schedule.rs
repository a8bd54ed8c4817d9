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
//! any interleaving of the two. Pre-sampling keeps the source's state
//! in registers across a whole block, and the transition loop that
//! follows runs without the sampler's branches in it.
//!
//! A third style, [`PairSource::pairs`], serves the same block as an
//! iterator for a kernel to pull from
//! ([`Protocol::transition_from`](crate::Protocol::transition_from)).
//! Its default iterates a sampled block. [`Schedule`] overrides it to
//! draw each pair as it is pulled, so a kernel that opts in
//! (`StableRanking`'s) runs without writing the block to memory and
//! reading it back. Every other source, and every protocol that keeps
//! the default entry, stays on the buffer.
//!
//! [`Schedule`] is the canonical implementation — the paper's uniform
//! scheduler. Adversarial sources (biased,
//! clustered/partitioned, round-robin) live in the `scenarios` crate
//! and plug into the same [`Simulator`](crate::Simulator) via
//! [`Simulator::with_source`](crate::Simulator::with_source), which is
//! how protocols are run *off* the uniform-scheduler assumption. The
//! [`BlockBuffer`] helper implements the FIFO buffering contract once so
//! every source gets interleaving-safety for free.
//!
//! [`PairSource::skip`] advances a stream without producing its pairs,
//! for engines that fast-forward a certified-silent configuration.
//! Other sources draw and discard. [`Schedule`] skips in O(1): it
//! drains its buffered pairs, then adds the rest to a count of *owed*
//! draws kept next to its generator. The next read of the stream (a
//! `next_pair`, `sample_block` or `pairs`) settles the debt with one
//! O(log k) jump of the generator (Haramoto et al., 2008). A silent stretch that an
//! engine skips in many short calls therefore costs one jump, not one
//! per call. Because a skip drains the buffer before it owes, owed
//! draws imply an empty buffer, and the pending pairs always come first
//! in the stream. [`CursorSource::cursor`] reports the settled state,
//! jumped on a copy: a cursor holds the RNG words and pending pairs an
//! executing run would hold, so its format has no field for the debt.

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
/// 2. **Single stream** — [`next_pair`](PairSource::next_pair),
///    [`sample_block`](PairSource::sample_block) and
///    [`pairs`](PairSource::pairs) consume the *same* underlying pair
///    sequence in FIFO order, so scalar and batched execution (and any
///    interleaving) follow the identical trajectory. Embedding a
///    [`BlockBuffer`] and drawing pairs through one canonical function
///    gives this property by construction.
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

    /// The next at-most-`max` pairs of the stream as an iterator: the
    /// same pairs, and as many, as [`sample_block`](PairSource::sample_block)
    /// would return. This is the feed a block kernel pulls from
    /// ([`Protocol::transition_from`](crate::Protocol::transition_from)).
    /// The default iterates a sampled block; [`Schedule`] overrides it
    /// to draw each pair as it is pulled, so the pairs never pass
    /// through its buffer. The iterator must be run to completion: its
    /// length is the number of pairs taken from the stream.
    fn pairs(&mut self, max: usize) -> impl ExactSizeIterator<Item = Pair> + '_
    where
        Self: Sized,
    {
        self.sample_block(max).iter().copied()
    }

    /// Consume the next `count` pairs of the stream without returning
    /// them, leaving the source exactly where `count` draws would.
    /// The default draws and discards them block by block. The uniform
    /// source only records the draws as owed and pays them with one jump
    /// when the stream is next read, so consecutive skips cost one jump
    /// together.
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
/// [`Schedule`]'s [`pairs`](PairSource::pairs) feed bypasses the
/// buffer for fresh draws but serves its pending pairs first, so it
/// keeps the same FIFO order.
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
/// [`Schedule`] exports its initiator range in it (`start = 0`, `len = n`
/// for the full range; an older build's sharded engine wrote one cursor
/// per lane). The restored source continues the pair stream **bit for
/// bit**: it first replays `pending`, then draws from the restored RNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleCursor {
    /// Raw xoshiro256++ state words of the source's RNG, with any draws
    /// a uniform source owes already paid.
    pub rng: [u64; 4],
    /// Population size the source draws pairs for.
    pub n: u64,
    /// First initiator index of the source's range (0 for the full range).
    pub start: u64,
    /// Length of the initiator range (`n` for the full range).
    pub len: u64,
    /// Buffered-but-unconsumed pairs, FIFO order (usually empty: the
    /// engine checkpoints at block boundaries, but the format does not
    /// rely on that).
    pub pending: Vec<Pair>,
    /// Topology specification words, **empty for the uniform source**
    /// ([`Schedule`]). A graph-restricted source (the
    /// `topology` crate's `GraphSchedule`) stores its generator
    /// specification here so the graph — a deterministic function of
    /// the spec — can be regenerated at restore time instead of being
    /// serialized edge by edge. The uniform source rejects cursors whose
    /// `topo` is non-empty: restoring a graph cursor on the clique
    /// would silently change the pair distribution.
    pub topo: Vec<u64>,
}

/// Pair sources whose position can be exported to a [`ScheduleCursor`]
/// and later restored bit-exactly — the scheduler half of the
/// checkpoint/restore seam. Implemented by [`Schedule`] and the
/// `topology` crate's `GraphSchedule`; adversarial sources in `scenarios` are not
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

/// [`Schedule`]'s xoshiro256++ generator and the draws skips
/// have owed it.
///
/// A skip adds to `owed`; [`settled`](Self::settled) pays the whole
/// debt with one [`jump::advance`] before the next draw. The schedule
/// owes only once its buffer is drained, so `owed > 0` implies an empty
/// buffer.
#[derive(Debug, Clone)]
struct Generator {
    rng: SmallRng,
    owed: u64,
}

impl Generator {
    fn new(rng: SmallRng) -> Self {
        Self { rng, owed: 0 }
    }

    /// The generator with every owed draw paid; every draw goes
    /// through here.
    #[inline]
    fn settled(&mut self) -> &mut SmallRng {
        if self.owed > 0 {
            self.pay();
        }
        &mut self.rng
    }

    #[cold]
    #[inline(never)]
    fn pay(&mut self) {
        jump::advance(&mut self.rng, std::mem::take(&mut self.owed));
    }

    /// Owe `count` more draws.
    fn owe(&mut self, count: u64) {
        if self.owed.checked_add(count).is_none() {
            self.pay();
        }
        self.owed += count;
    }

    /// The state words of the settled generator, jumped on a copy.
    fn state(&self) -> [u64; 4] {
        self.clone().settled().state()
    }
}

/// Seeded generator of uniform ordered pairs of distinct agents: the
/// paper's uniform scheduler.
///
/// The initiator is uniform over a contiguous range `start..start+len`
/// of the population and the responder uniform over the other `n − 1`
/// agents. [`Schedule::new`] covers the full range, and so does every
/// cursor this build writes; only a cursor of an older build's sharded
/// lane restores a narrower one.
#[derive(Debug, Clone)]
pub struct Schedule {
    rng: Generator,
    n: usize,
    start: usize,
    len: usize,
    buf: BlockBuffer,
}

/// Draw one pair whose initiator is uniform over `start..start+len` and
/// whose responder is uniform over the other `n − 1` agents, from a
/// single 64-bit RNG output.
///
/// The initiator comes from the low 32 bits; the responder from the
/// high 32 bits, drawn from `0..n−1` and skipping the initiator. Index
/// reduction uses the widening-multiply map `(x · m) >> 32`, whose bias
/// is below `n · 2⁻³²` (< 10⁻⁴ for every population size this
/// repository simulates) — orders of magnitude under the sampling noise
/// of any experiment here, in exchange for one RNG output and zero
/// rejection branches per pair.
///
/// This is the one canonical consumption of the RNG per pair — every
/// consumption style goes through this exact function, which is what
/// makes them trajectory-equivalent.
#[inline]
fn draw_pair(rng: &mut SmallRng, n: usize, start: usize, len: usize) -> Pair {
    let bits = rng.next_u64();
    let i = start as u32 + (((bits & 0xFFFF_FFFF) * len as u64) >> 32) as u32;
    let r = (((bits >> 32) * (n as u64 - 1)) >> 32) as u32;
    let j = if r >= i { r + 1 } else { r };
    (i, j)
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
        Self::build(SmallRng::seed_from_u64(seed), n, 0, n, Vec::new())
    }

    /// The one constructor check, shared by [`new`](Self::new) and
    /// [`from_cursor`](CursorSource::from_cursor).
    fn build(rng: SmallRng, n: usize, start: usize, len: usize, pending: Vec<Pair>) -> Self {
        assert!(n >= 2, "population needs at least two agents");
        assert!(u32::try_from(n).is_ok(), "population size exceeds u32");
        assert!(len >= 1, "initiator range must be nonempty");
        assert!(
            start.checked_add(len).is_some_and(|end| end <= n),
            "initiator range {start}..{} exceeds population {n}",
            start + len
        );
        Self {
            rng: Generator::new(rng),
            n,
            start,
            len,
            buf: BlockBuffer::with_pending(pending),
        }
    }

    /// Population size this schedule draws pairs for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The initiator range `[start, start + len)` this schedule draws
    /// from.
    pub fn range(&self) -> (usize, usize) {
        (self.start, self.start + self.len)
    }

    /// Draw the next ordered pair (scalar path). Consumes buffered pairs
    /// first so that scalar and batched consumption can be interleaved
    /// freely without perturbing the stream.
    #[inline]
    pub fn next_pair(&mut self) -> (usize, usize) {
        let (rng, n, start, len) = (self.rng.settled(), self.n, self.start, self.len);
        self.buf.next_pair(|| draw_pair(rng, n, start, len))
    }

    /// Return the next at-most-`max` pairs of the stream as a block,
    /// pre-sampling a fresh buffer if the previous one is exhausted
    /// (batched path).
    ///
    /// The returned slice is nonempty for `max > 0`; callers loop until
    /// they have consumed as many pairs as they need.
    #[inline]
    pub fn sample_block(&mut self, max: usize) -> &[Pair] {
        let (rng, n, start, len) = (self.rng.settled(), self.n, self.start, self.len);
        self.buf.sample_block(max, || draw_pair(rng, n, start, len))
    }

    /// Number of pairs currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.buffered()
    }
}

/// [`Schedule`]'s pair feed: either the `pending` buffered pairs or
/// `fresh` pairs drawn one per pull, never both.
struct Drawn<'a> {
    pending: std::slice::Iter<'a, Pair>,
    rng: &'a mut SmallRng,
    n: usize,
    start: usize,
    len: usize,
    fresh: usize,
}

impl Iterator for Drawn<'_> {
    type Item = Pair;

    #[inline]
    fn next(&mut self) -> Option<Pair> {
        // Testing the fresh count first keeps the buffer check out of
        // the drawing loop.
        if self.fresh > 0 {
            self.fresh -= 1;
            return Some(draw_pair(self.rng, self.n, self.start, self.len));
        }
        self.pending.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.pending.len() + self.fresh;
        (len, Some(len))
    }
}

impl ExactSizeIterator for Drawn<'_> {}

impl CursorSource for Schedule {
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
        Self::build(
            SmallRng::from_state(cursor.rng),
            n,
            start,
            len,
            cursor.pending,
        )
    }
}

impl PairSource for Schedule {
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn next_pair(&mut self) -> (usize, usize) {
        Schedule::next_pair(self)
    }

    #[inline]
    fn sample_block(&mut self, max: usize) -> &[Pair] {
        Schedule::sample_block(self, max)
    }

    /// Serves the buffered pairs (only a restored cursor leaves any)
    /// exactly as [`sample_block`](Schedule::sample_block) would, and
    /// otherwise draws `max.min(BLOCK_PAIRS)` pairs lazily.
    #[inline]
    fn pairs(&mut self, max: usize) -> impl ExactSizeIterator<Item = Pair> + '_ {
        let pending = self.buf.drain(max as u64);
        let fresh = if pending.is_empty() {
            max.min(BLOCK_PAIRS)
        } else {
            0
        };
        Drawn {
            pending: pending.iter(),
            rng: self.rng.settled(),
            n: self.n,
            start: self.start,
            len: self.len,
            fresh,
        }
    }

    /// Drains the buffer, then owes the generator the rest: one
    /// `next_u64` per pair, paid when the stream is next read.
    fn skip(&mut self, count: u64) {
        let rest = count - self.buf.drain(count).len() as u64;
        self.rng.owe(rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A schedule whose initiators lie in `start..start+len`, as an
    /// older build's sharded lane cursor restores it.
    fn lane(n: usize, start: usize, len: usize, seed: u64) -> Schedule {
        let mut cursor = Schedule::new(n, seed).cursor();
        (cursor.start, cursor.len) = (start as u64, len as u64);
        Schedule::from_cursor(cursor)
    }

    fn drain_scalar(s: &mut Schedule, count: usize) -> Vec<(usize, usize)> {
        (0..count).map(|_| s.next_pair()).collect()
    }

    #[test]
    fn pairs_are_distinct_and_in_range() {
        for (mut s, initiators) in [(Schedule::new(17, 1), 0..17), (lane(29, 10, 9, 5), 10..19)] {
            let n = s.n();
            for _ in 0..20_000 {
                let (i, j) = s.next_pair();
                assert!(initiators.contains(&i), "initiator {i} out of range");
                assert!(j < n, "responder {j} out of range");
                assert_ne!(i, j);
            }
        }
    }

    #[test]
    fn block_and_scalar_produce_the_same_stream() {
        for (n, start, len, seed) in [(100, 0, 100, 42), (40, 8, 12, 9)] {
            let mut scalar = lane(n, start, len, seed);
            let mut blocked = lane(n, start, len, seed);
            let expected = drain_scalar(&mut scalar, 10_000);
            let mut got = Vec::new();
            while got.len() < 10_000 {
                let block = blocked.sample_block(10_000 - got.len());
                got.extend(block.iter().map(|&(i, j)| (i as usize, j as usize)));
            }
            assert_eq!(got, expected);
        }
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
    fn lane_responders_reach_the_whole_population() {
        let n = 12;
        let mut s = lane(n, 4, 2, 3);
        let mut seen = vec![false; n];
        for _ in 0..10_000 {
            seen[s.next_pair().1] = true;
        }
        let reachable = seen.iter().filter(|&&b| b).count();
        assert!(reachable >= n - 1, "responders must span the population");
    }

    #[test]
    fn schedule_cursor_round_trip_continues_the_stream() {
        for (n, start, len, seed) in [(64, 0, 64, 99), (40, 10, 11, 123)] {
            let mut original = lane(n, start, len, seed);
            for _ in 0..1000 {
                original.next_pair();
            }
            let _ = original.sample_block(7); // leave a partial buffer behind
            let cursor = original.cursor();
            assert_eq!((cursor.start, cursor.len), (start as u64, len as u64));
            let mut restored = Schedule::from_cursor(cursor);
            assert_eq!(restored.range(), (start, start + len));
            for _ in 0..5000 {
                assert_eq!(original.next_pair(), restored.next_pair());
            }
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
    #[should_panic(expected = "exceeds population")]
    fn rejects_out_of_bounds_cursor() {
        let mut cursor = lane(20, 5, 5, 1).cursor();
        cursor.start = 18;
        let _ = Schedule::from_cursor(cursor);
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
            assert_skip_matches(lane(64, 16, 16, seed), lane(64, 16, 16, seed), k);
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

    /// Skip lengths around the buffer, the jump threshold and beyond.
    const SKIPS: [u64; 7] = [0, 1, 511, 512, (1 << 14) - 1, 1 << 14, 1 << 20];

    /// `source` with its next `count` pairs drawn and left pending, as a
    /// restored cursor of a differently buffered source holds them.
    fn pend(source: &Schedule, count: usize) -> Schedule {
        let mut ahead = source.clone();
        let mut pending: Vec<Pair> = (0..count)
            .map(|_| {
                let (i, j) = ahead.next_pair();
                (i as u32, j as u32)
            })
            .collect();
        let mut cursor = ahead.cursor();
        pending.append(&mut cursor.pending);
        cursor.pending = pending;
        Schedule::from_cursor(cursor)
    }

    /// Run a random script of `ops` operations on `fast` and on `twin`,
    /// which draws every pair that `fast` skips. After each operation
    /// the two must report the same cursor and the same next pairs, read
    /// from copies so that `fast`'s owed draws stay owed.
    fn run_script(mut fast: Schedule, mut twin: Schedule, script: &mut SmallRng, ops: usize) {
        let mut roll = |below: u64| script.next_u64() % below;
        for step in 0..ops {
            let op = roll(7);
            match op {
                0 | 1 => {
                    for _ in 0..=roll(4) {
                        let k = match roll(9) {
                            7 => roll(1 << 18),
                            8 => roll(fast.cursor().pending.len() as u64 + 1),
                            i => SKIPS[i as usize],
                        };
                        fast.skip(k);
                        for _ in 0..k {
                            twin.next_pair();
                        }
                    }
                }
                2 => assert_eq!(fast.next_pair(), twin.next_pair(), "step {step}"),
                3 => {
                    let m = 1 + roll(5000) as usize;
                    let got = fast.sample_block(m).to_vec();
                    assert_eq!(got, twin.sample_block(m), "step {step}");
                }
                4 => {
                    let m = 1 + roll(5000) as usize;
                    let take = roll(m as u64 + 1) as usize;
                    let got: Vec<Pair> = fast.pairs(m).take(take).collect();
                    let want: Vec<Pair> = twin.pairs(m).take(take).collect();
                    assert_eq!(got, want, "step {step}");
                }
                5 => {
                    fast = if roll(2) == 0 {
                        fast.clone()
                    } else {
                        Schedule::from_cursor(fast.cursor())
                    };
                }
                _ => {
                    let count = roll(600) as usize;
                    fast = pend(&fast, count);
                    twin = pend(&twin, count);
                }
            }
            assert_eq!(fast.cursor(), twin.cursor(), "step {step}, op {op}");
            let (mut a, mut b) = (fast.clone(), twin.clone());
            for _ in 0..3 {
                assert_eq!(a.next_pair(), b.next_pair(), "step {step}, op {op}");
            }
        }
    }

    #[test]
    fn owed_draws_match_a_twin_that_draws_every_pair() {
        let mut script = SmallRng::seed_from_u64(17);
        for seed in 0..12 {
            let n = 2 + (script.next_u64() % 2000) as usize;
            run_script(
                Schedule::new(n, seed),
                Schedule::new(n, seed),
                &mut script,
                40,
            );
            let len = 1 + (script.next_u64() % n as u64) as usize;
            let start = (script.next_u64() % (n - len + 1) as u64) as usize;
            run_script(
                lane(n, start, len, seed),
                lane(n, start, len, seed),
                &mut script,
                40,
            );
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
