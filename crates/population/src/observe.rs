//! Composable run observers.
//!
//! Every consumer of the engine used to hand-roll its own polling loop:
//! convergence checks here, threshold crossings there, time-series
//! sampling somewhere else. The [`Observer`] trait replaces those loops
//! with small, composable values that the engine polls at checkpoints
//! (every `check_every` interactions, plus once before the first step):
//!
//! * [`Convergence`] — stop when a predicate over the configuration
//!   first holds, recording the hitting time;
//! * [`Silence`] — stop when the configuration is *silent* (no ordered
//!   pair would change state; the paper's absorbing criterion);
//! * [`Sampler`] — invoke a closure at every checkpoint (time series);
//! * [`Series`] — record `(t, metric)` rows at every checkpoint;
//! * [`Thresholds`] — record the first time a monotone metric reaches
//!   each of a list of targets (Figure 3's fraction crossings);
//! * [`Meter`] — count checkpoints and remember the last observed time.
//!
//! Observers compose as tuples: `(&mut a, &mut b)` polls both and stops
//! as soon as *any* member requests a stop. The engine entry point is
//! [`Simulator::run_observed`](crate::Simulator::run_observed);
//! [`run_until`](crate::Simulator::run_until) is thin sugar over this
//! pipeline.

use crate::protocol::{Packed, PackedProtocol, Protocol};
use crate::silence::is_silent;

/// Verdict returned by an observer at a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep running.
    Continue,
    /// Stop the run; the engine reports convergence at this checkpoint.
    Stop,
}

impl Control {
    /// True iff this is [`Control::Stop`].
    pub fn is_stop(self) -> bool {
        matches!(self, Control::Stop)
    }
}

/// A checkpoint callback polled by the engine.
pub trait Observer<P: Protocol> {
    /// Inspect the configuration at interaction count `t`. Returning
    /// [`Control::Stop`] ends the run.
    fn observe(&mut self, protocol: &P, t: u64, states: &[P::State]) -> Control;
}

impl<P: Protocol, O: Observer<P> + ?Sized> Observer<P> for &mut O {
    fn observe(&mut self, protocol: &P, t: u64, states: &[P::State]) -> Control {
        (**self).observe(protocol, t, states)
    }
}

macro_rules! impl_observer_tuple {
    ($($name:ident . $idx:tt),+) => {
        impl<P: Protocol, $($name: Observer<P>),+> Observer<P> for ($($name,)+) {
            fn observe(&mut self, protocol: &P, t: u64, states: &[P::State]) -> Control {
                let mut stop = false;
                $(stop |= self.$idx.observe(protocol, t, states).is_stop();)+
                if stop { Control::Stop } else { Control::Continue }
            }
        }
    };
}
impl_observer_tuple!(A.0);
impl_observer_tuple!(A.0, B.1);
impl_observer_tuple!(A.0, B.1, C.2);
impl_observer_tuple!(A.0, B.1, C.2, D.3);

/// Stops when a predicate over the configuration first holds; records
/// the checkpoint time at which it did.
#[derive(Debug)]
pub struct Convergence<F> {
    pred: F,
    hit: Option<u64>,
}

impl<F> Convergence<F> {
    /// Observe with predicate `pred`.
    pub fn new(pred: F) -> Self {
        Self { pred, hit: None }
    }

    /// Checkpoint time at which the predicate first held, if it did.
    /// Overshoots the true hitting time by less than the polling period.
    pub fn converged_at(&self) -> Option<u64> {
        self.hit
    }
}

impl<P: Protocol, F: FnMut(&[P::State]) -> bool> Observer<P> for Convergence<F> {
    fn observe(&mut self, _protocol: &P, t: u64, states: &[P::State]) -> Control {
        if self.hit.is_none() && (self.pred)(states) {
            self.hit = Some(t);
        }
        if self.hit.is_some() {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

/// Stops when the configuration is silent (no ordered pair would change
/// state). The check is `O(n²)` transitions per checkpoint — poll it
/// sparsely on large populations.
#[derive(Debug, Default)]
pub struct Silence {
    hit: Option<u64>,
}

impl Silence {
    /// New silence detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checkpoint time at which silence was first observed, if any.
    pub fn silent_at(&self) -> Option<u64> {
        self.hit
    }
}

impl<P: Protocol> Observer<P> for Silence {
    fn observe(&mut self, protocol: &P, t: u64, states: &[P::State]) -> Control {
        if self.hit.is_none() && is_silent(protocol, states) {
            self.hit = Some(t);
        }
        if self.hit.is_some() {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

/// Invokes a closure at every checkpoint; never stops the run.
#[derive(Debug)]
pub struct Sampler<F> {
    f: F,
}

impl<F> Sampler<F> {
    /// Observe with callback `f(t, states)`.
    pub fn new(f: F) -> Self {
        Self { f }
    }
}

impl<P: Protocol, F: FnMut(u64, &[P::State])> Observer<P> for Sampler<F> {
    fn observe(&mut self, _protocol: &P, t: u64, states: &[P::State]) -> Control {
        (self.f)(t, states);
        Control::Continue
    }
}

/// Records `(t, metric(states))` at every checkpoint; never stops.
#[derive(Debug)]
pub struct Series<F, T> {
    metric: F,
    rows: Vec<(u64, T)>,
}

impl<F, T> Series<F, T> {
    /// Record the given metric at every checkpoint.
    pub fn new(metric: F) -> Self {
        Self {
            metric,
            rows: Vec::new(),
        }
    }

    /// Resume recording with previously captured rows — the restore
    /// side of checkpointing a long *measured* run (the `snapshot`
    /// crate's observer-partials codec round-trips `rows` through the
    /// OBSERVER snapshot section).
    pub fn with_rows(metric: F, rows: Vec<(u64, T)>) -> Self {
        Self { metric, rows }
    }

    /// The recorded `(t, value)` rows.
    pub fn rows(&self) -> &[(u64, T)] {
        &self.rows
    }

    /// Consume the observer, returning the recorded rows.
    pub fn into_rows(self) -> Vec<(u64, T)> {
        self.rows
    }
}

impl<P: Protocol, F: FnMut(&[P::State]) -> T, T> Observer<P> for Series<F, T> {
    fn observe(&mut self, _protocol: &P, t: u64, states: &[P::State]) -> Control {
        let v = (self.metric)(states);
        self.rows.push((t, v));
        Control::Continue
    }
}

/// Records the first checkpoint time at which a monotone metric reaches
/// each of a list of non-decreasing targets, stopping once all targets
/// are crossed. (Figure 3's "time to rank `c·n` agents".)
#[derive(Debug)]
pub struct Thresholds<F> {
    metric: F,
    targets: Vec<u64>,
    crossings: Vec<Option<u64>>,
}

impl<F> Thresholds<F> {
    /// Track when `metric(states)` first reaches each value in
    /// `targets`.
    pub fn new(metric: F, targets: Vec<u64>) -> Self {
        let crossings = vec![None; targets.len()];
        Self {
            metric,
            targets,
            crossings,
        }
    }

    /// Resume tracking with previously captured crossings — the
    /// restore side of checkpointing a long measured run (see
    /// [`Series::with_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if `crossings.len() != targets.len()`: a crossing list
    /// from a different target set cannot be adopted.
    pub fn with_crossings(metric: F, targets: Vec<u64>, crossings: Vec<Option<u64>>) -> Self {
        assert_eq!(
            targets.len(),
            crossings.len(),
            "crossings must match targets one-to-one"
        );
        Self {
            metric,
            targets,
            crossings,
        }
    }

    /// The tracked targets.
    pub fn targets(&self) -> &[u64] {
        &self.targets
    }

    /// Crossing time per target (`None` where the budget ran out first).
    pub fn crossings(&self) -> &[Option<u64>] {
        &self.crossings
    }

    /// Consume the observer, returning the crossing times.
    pub fn into_crossings(self) -> Vec<Option<u64>> {
        self.crossings
    }

    /// Have all targets been crossed?
    pub fn complete(&self) -> bool {
        self.crossings.iter().all(|c| c.is_some())
    }
}

impl<P: Protocol, F: FnMut(&[P::State]) -> u64> Observer<P> for Thresholds<F> {
    fn observe(&mut self, _protocol: &P, t: u64, states: &[P::State]) -> Control {
        let value = (self.metric)(states);
        for (i, &target) in self.targets.iter().enumerate() {
            if self.crossings[i].is_none() && value >= target {
                self.crossings[i] = Some(t);
            }
        }
        if self.complete() {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

/// Adapts an observer written against a protocol's structured states to
/// a run over the [`Packed`] words: at every checkpoint the
/// configuration is unpacked into a reused scratch buffer and handed to
/// the inner observer.
///
/// This is the observation end of the packed-representation contract —
/// the hot loop never unpacks; only the (sparse) checkpoints pay the
/// codec cost, `O(n)` per poll. Predicates that can read packed words
/// directly (e.g. `is_valid_ranking` over a word type implementing
/// `RankOutput`) don't need this adapter at all.
#[derive(Debug)]
pub struct Unpacked<P: PackedProtocol, O> {
    inner: O,
    scratch: Vec<P::State>,
}

impl<P: PackedProtocol, O> Unpacked<P, O> {
    /// Wrap a structured-state observer for a packed run.
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            scratch: Vec::new(),
        }
    }

    /// The wrapped observer (e.g. to read its recorded results).
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Consume the adapter, returning the wrapped observer.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<P: PackedProtocol, O: Observer<P>> Observer<Packed<P>> for Unpacked<P, O> {
    fn observe(&mut self, protocol: &Packed<P>, t: u64, words: &[P::Packed]) -> Control {
        self.scratch.clear();
        self.scratch
            .extend(words.iter().map(|&w| protocol.inner().unpack(w)));
        self.inner.observe(protocol.inner(), t, &self.scratch)
    }
}

/// A checkpoint observer evaluated through per-shard summaries — the
/// observation seam of the sharded simulator (`crates/shard`).
///
/// A plain [`Observer`] needs the whole configuration as one slice,
/// which a sharded run can only provide by concatenating its per-shard
/// state vectors (an `O(n)` copy per checkpoint). A `ShardObserver`
/// instead splits observation into two stages:
///
/// 1. [`summarize`](ShardObserver::summarize) — a pure function of one
///    shard's slice, producing a small [`Summary`](ShardObserver::Summary)
///    (a rank bitmap, a distinct-state multiset, a partial count…).
///    Summaries are `Send`, so shards can summarize concurrently.
/// 2. [`merge`](ShardObserver::merge) — combines the per-shard
///    summaries into the global verdict at interaction count `t`.
///
/// The contract, property-tested for the implementations here: merging
/// the per-shard summaries of any partition of a configuration yields
/// **exactly** the verdict of the corresponding whole-configuration
/// observer ([`ShardedRanking`] ≡ [`Convergence`] over
/// `is_valid_ranking`, [`ShardedSilence`] ≡ [`Silence`]).
pub trait ShardObserver<P: Protocol> {
    /// The per-shard partial observation.
    type Summary: Send;

    /// Summarize one shard's slice. `start` is the global index of the
    /// slice's first agent (shards partition the population
    /// contiguously and are presented in index order).
    fn summarize(&self, protocol: &P, start: usize, states: &[P::State]) -> Self::Summary;

    /// Merge the per-shard summaries (in shard order) into the global
    /// verdict at interaction count `t`. Returning [`Control::Stop`]
    /// ends the run.
    fn merge(&mut self, protocol: &P, t: u64, summaries: Vec<Self::Summary>) -> Control;

    /// Evaluate the observer on a whole configuration in one step —
    /// summarize the full slice as a single shard and merge it. This is
    /// what makes a `ShardObserver` usable (and testable) against
    /// unsharded runs.
    fn observe_whole(&mut self, protocol: &P, t: u64, states: &[P::State]) -> Control {
        let summary = self.summarize(protocol, 0, states);
        self.merge(protocol, t, vec![summary])
    }
}

/// Per-shard summary of [`ShardedRanking`]: which in-range ranks the
/// shard's agents output, and whether the shard already disproves
/// validity on its own.
#[derive(Debug, Clone)]
pub struct RankSummary {
    /// Bitmap over ranks `1..=n` (bit `r − 1` set iff some agent in the
    /// shard outputs rank `r`).
    mask: Vec<u64>,
    /// An agent was unranked, out of range, or a duplicate *within* the
    /// shard — the configuration cannot be a valid ranking.
    invalid: bool,
}

/// Stops when the ranks across all shards form a permutation of
/// `1..=n` — the shard-local/merged equivalent of
/// [`Convergence`] over [`crate::is_valid_ranking`].
///
/// Each shard contributes a rank bitmap; the merge checks that no shard
/// saw an invalid or duplicate rank and that the bitmaps are pairwise
/// disjoint. Since every agent must then hold a distinct in-range rank
/// and there are exactly `n` agents, disjointness alone implies the
/// permutation — no final popcount needed.
#[derive(Debug, Default)]
pub struct ShardedRanking {
    hit: Option<u64>,
}

impl ShardedRanking {
    /// New detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checkpoint time at which the merged verdict first was "valid
    /// ranking", if any.
    pub fn converged_at(&self) -> Option<u64> {
        self.hit
    }
}

impl<P: Protocol> ShardObserver<P> for ShardedRanking
where
    P::State: crate::RankOutput,
{
    type Summary = RankSummary;

    fn summarize(&self, protocol: &P, _start: usize, states: &[P::State]) -> RankSummary {
        use crate::RankOutput;
        let n = protocol.n();
        let mut mask = vec![0u64; n.div_ceil(64)];
        let mut invalid = false;
        for s in states {
            match s.rank() {
                Some(r) if r >= 1 && (r as usize) <= n => {
                    let (word, bit) = ((r as usize - 1) / 64, (r as usize - 1) % 64);
                    if mask[word] & (1 << bit) != 0 {
                        invalid = true; // duplicate within the shard
                    }
                    mask[word] |= 1 << bit;
                }
                _ => invalid = true,
            }
        }
        RankSummary { mask, invalid }
    }

    fn merge(&mut self, _protocol: &P, t: u64, summaries: Vec<RankSummary>) -> Control {
        if self.hit.is_none() && merge_disjoint(summaries) {
            self.hit = Some(t);
        }
        if self.hit.is_some() {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

/// Stops when every *honest* agent holds a distinct in-range rank —
/// the stabilization target of a population containing persistent
/// (Byzantine) adversaries ([`crate::is_valid_honest_ranking`]).
///
/// The observer works on any state type implementing
/// [`HonestOutput`](crate::HonestOutput) (the `scenarios` crate's
/// `ByzState` wrapper is the canonical one) and comes in both engine
/// flavors: as a whole-configuration [`Observer`] for sequential runs,
/// and as a [`ShardObserver`] for the sharded engine's copy-free
/// `run_merged` path. Each shard contributes a bitmap of the ranks its
/// honest agents output (plus an invalid flag for unranked /
/// out-of-range / shard-local duplicates); the merge requires the
/// bitmaps to be pairwise disjoint. Unlike [`ShardedRanking`], no
/// completeness is required — adversaries may leave ranks unclaimed.
/// Both evaluation paths are property-tested against the brute-force
/// honest-subset check in `tests/byzantine.rs`.
#[derive(Debug, Default)]
pub struct HonestRanking {
    hit: Option<u64>,
}

impl HonestRanking {
    /// New detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checkpoint time at which the honest agents first held valid
    /// distinct ranks, if they did.
    pub fn converged_at(&self) -> Option<u64> {
        self.hit
    }

    fn settle(&mut self, valid: bool, t: u64) -> Control {
        if self.hit.is_none() && valid {
            self.hit = Some(t);
        }
        if self.hit.is_some() {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

impl<P: Protocol> Observer<P> for HonestRanking
where
    P::State: crate::HonestOutput,
{
    fn observe(&mut self, _protocol: &P, t: u64, states: &[P::State]) -> Control {
        let valid = crate::is_valid_honest_ranking(states);
        self.settle(valid, t)
    }
}

impl<P: Protocol> ShardObserver<P> for HonestRanking
where
    P::State: crate::HonestOutput,
{
    type Summary = RankSummary;

    fn summarize(&self, protocol: &P, _start: usize, states: &[P::State]) -> RankSummary {
        use crate::{HonestOutput, RankOutput};
        let n = protocol.n();
        let mut mask = vec![0u64; n.div_ceil(64)];
        let mut invalid = false;
        for s in states.iter().filter(|s| s.is_honest()) {
            match s.rank() {
                Some(r) if r >= 1 && (r as usize) <= n => {
                    let (word, bit) = ((r as usize - 1) / 64, (r as usize - 1) % 64);
                    if mask[word] & (1 << bit) != 0 {
                        invalid = true; // honest duplicate within the shard
                    }
                    mask[word] |= 1 << bit;
                }
                _ => invalid = true,
            }
        }
        RankSummary { mask, invalid }
    }

    fn merge(&mut self, _protocol: &P, t: u64, summaries: Vec<RankSummary>) -> Control {
        let valid = merge_disjoint(summaries);
        self.settle(valid, t)
    }
}

/// Merge rank-bitmap summaries: valid iff no summary carries the
/// invalid flag and the bitmaps are pairwise disjoint (shared by
/// [`ShardedRanking`] and [`HonestRanking`], whose merges differ only
/// in what counts as invalid within a shard).
fn merge_disjoint(summaries: Vec<RankSummary>) -> bool {
    let mut seen: Option<Vec<u64>> = None;
    for s in summaries {
        if s.invalid {
            return false;
        }
        match &mut seen {
            None => seen = Some(s.mask),
            Some(acc) => {
                for (a, m) in acc.iter_mut().zip(&s.mask) {
                    if *a & m != 0 {
                        return false; // duplicate across shards
                    }
                    *a |= m;
                }
            }
        }
    }
    true
}

/// Stops when the merged configuration is silent — the shard-local
/// equivalent of [`Silence`].
///
/// Silence depends only on the *multiset of states present*: an ordered
/// pair of states `(x, y)` is executable iff `x ≠ y` and both occur, or
/// `x = y` occurs at least twice. Each shard therefore summarizes its
/// slice as a sorted list of distinct states with occurrence counts
/// (saturated at 2 — higher multiplicities change nothing); the merge
/// combines the multisets and probes every executable state pair
/// against the transition function. Cost is `O(d²)` transitions for `d`
/// distinct states — same worst case as [`crate::silence::is_silent`],
/// so poll it as sparsely.
#[derive(Debug, Default)]
pub struct ShardedSilence {
    hit: Option<u64>,
}

impl ShardedSilence {
    /// New silence detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checkpoint time at which silence was first observed, if any.
    pub fn silent_at(&self) -> Option<u64> {
        self.hit
    }
}

impl<P: Protocol> ShardObserver<P> for ShardedSilence
where
    P::State: Ord + Send,
{
    type Summary = Vec<(P::State, u32)>;

    fn summarize(&self, _protocol: &P, _start: usize, states: &[P::State]) -> Self::Summary {
        let mut sorted: Vec<P::State> = states.to_vec();
        sorted.sort_unstable();
        let mut out: Vec<(P::State, u32)> = Vec::new();
        for s in sorted {
            match out.last_mut() {
                Some((last, count)) if *last == s => *count = (*count + 1).min(2),
                _ => out.push((s, 1)),
            }
        }
        out
    }

    fn merge(&mut self, protocol: &P, t: u64, summaries: Vec<Self::Summary>) -> Control {
        if self.hit.is_none() {
            let mut all: Vec<(P::State, u32)> = Vec::new();
            for summary in summaries {
                for (s, c) in summary {
                    all.push((s, c));
                }
            }
            all.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            all.dedup_by(|next, acc| {
                if next.0 == acc.0 {
                    acc.1 = (acc.1 + next.1).min(2);
                    true
                } else {
                    false
                }
            });
            let silent = 'probe: {
                for (xi, (x, cx)) in all.iter().enumerate() {
                    for (yi, (y, _)) in all.iter().enumerate() {
                        if xi == yi && *cx < 2 {
                            continue; // a lone agent cannot meet itself
                        }
                        let mut u = x.clone();
                        let mut v = y.clone();
                        protocol.transition(&mut u, &mut v);
                        if u != *x || v != *y {
                            break 'probe false;
                        }
                    }
                }
                true
            };
            if silent {
                self.hit = Some(t);
            }
        }
        if self.hit.is_some() {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

/// Counts checkpoints and remembers the first and last observed
/// interaction counts; never stops.
#[derive(Debug, Default)]
pub struct Meter {
    checkpoints: u64,
    first: Option<u64>,
    last: u64,
}

impl Meter {
    /// New, empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of checkpoints observed.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Interactions elapsed between the first and last checkpoint.
    pub fn interactions_seen(&self) -> u64 {
        self.last - self.first.unwrap_or(self.last)
    }
}

impl<P: Protocol> Observer<P> for Meter {
    fn observe(&mut self, _protocol: &P, t: u64, _states: &[P::State]) -> Control {
        self.checkpoints += 1;
        self.first.get_or_insert(t);
        self.last = t;
        Control::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::epidemic::Epidemic;
    use crate::{Simulator, StopReason};

    fn epidemic_sim(n: usize, m: usize, seed: u64) -> Simulator<Epidemic> {
        let protocol = Epidemic::new(n);
        let init = protocol.initial(m);
        Simulator::new(protocol, init, seed)
    }

    #[test]
    fn convergence_observer_records_hit_time() {
        let mut sim = epidemic_sim(32, 32, 5);
        let mut conv = Convergence::new(Epidemic::complete);
        let stop = sim.run_observed(1_000_000, 32, &mut conv);
        let t = conv.converged_at().expect("epidemic completes");
        assert_eq!(stop, StopReason::Converged(t));
        assert_eq!(t, sim.interactions());
    }

    #[test]
    fn silence_observer_stops_absorbed_runs() {
        let mut sim = epidemic_sim(16, 16, 2);
        let mut silence = Silence::new();
        let stop = sim.run_observed(1_000_000, 16, &mut silence);
        assert!(stop.converged_at().is_some());
        assert_eq!(silence.silent_at(), stop.converged_at());
    }

    #[test]
    fn series_collects_monotone_epidemic_counts() {
        let mut sim = epidemic_sim(64, 64, 3);
        let mut series = Series::new(|s: &[_]| Epidemic::infected_count(s) as u64);
        sim.run_observed(2000, 100, &mut series);
        let rows = series.rows();
        assert_eq!(rows.first().map(|r| r.0), Some(0));
        assert!(rows.windows(2).all(|w| w[0].1 <= w[1].1), "monotone");
        assert!(rows.len() >= 21, "start + 20 checkpoints");
    }

    #[test]
    fn thresholds_record_ordered_crossings() {
        let mut sim = epidemic_sim(64, 64, 7);
        let mut th = Thresholds::new(
            |s: &[_]| Epidemic::infected_count(s) as u64,
            vec![16, 32, 48, 64],
        );
        let stop = sim.run_observed(10_000_000, 16, &mut th);
        assert!(stop.converged_at().is_some(), "all thresholds crossed");
        let times: Vec<u64> = th.crossings().iter().map(|c| c.expect("crossed")).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }

    #[test]
    fn tuple_composition_stops_on_first_member() {
        let mut sim = epidemic_sim(32, 32, 11);
        let mut conv = Convergence::new(Epidemic::complete);
        let mut meter = Meter::new();
        let stop = sim.run_observed(1_000_000, 32, &mut (&mut conv, &mut meter));
        assert!(stop.converged_at().is_some());
        // The meter saw the initial checkpoint plus one per burst.
        assert!(meter.checkpoints() >= 2);
        assert_eq!(meter.interactions_seen(), sim.interactions());
    }

    /// Partition `states` into `shards` contiguous balanced slices,
    /// summarize each, and merge — the exact evaluation a sharded run
    /// performs at a checkpoint.
    fn merged_verdict<P: Protocol, O: ShardObserver<P>>(
        obs: &mut O,
        protocol: &P,
        t: u64,
        states: &[P::State],
        shards: usize,
    ) -> Control {
        let n = states.len();
        let summaries: Vec<O::Summary> = (0..shards)
            .map(|s| {
                let (start, end) = ((s * n).div_ceil(shards), ((s + 1) * n).div_ceil(shards));
                obs.summarize(protocol, start, &states[start..end])
            })
            .collect();
        obs.merge(protocol, t, summaries)
    }

    /// A protocol whose states output their value as a rank.
    struct Ranks(usize);
    impl Protocol for Ranks {
        type State = u64;
        fn n(&self) -> usize {
            self.0
        }
        fn transition(&self, _: &mut u64, _: &mut u64) -> bool {
            false
        }
    }
    impl crate::RankOutput for u64 {
        fn rank(&self) -> Option<u64> {
            if *self == 0 {
                None
            } else {
                Some(*self)
            }
        }
    }

    #[test]
    fn sharded_ranking_agrees_with_is_valid_ranking() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        for case in 0..200 {
            let n = rng.random_range(1..=24usize);
            let protocol = Ranks(n);
            // Mix of permutations (shuffled) and noisy configurations so
            // both verdicts occur frequently.
            let states: Vec<u64> = if case % 3 == 0 {
                let mut perm: Vec<u64> = (1..=n as u64).collect();
                for i in (1..perm.len()).rev() {
                    let j = rng.random_range(0..=i);
                    perm.swap(i, j);
                }
                perm
            } else {
                (0..n)
                    .map(|_| rng.random_range(0..=(n as u64 + 2)))
                    .collect()
            };
            let expected = crate::is_valid_ranking(&states);
            for shards in [1, 2, 3, n] {
                if shards > n {
                    continue;
                }
                let mut obs = ShardedRanking::new();
                let verdict = merged_verdict(&mut obs, &protocol, 7, &states, shards);
                assert_eq!(
                    verdict.is_stop(),
                    expected,
                    "case {case}: n={n} shards={shards} states={states:?}"
                );
                assert_eq!(obs.converged_at().is_some(), expected);
            }
        }
    }

    #[test]
    fn sharded_silence_agrees_with_is_silent() {
        use crate::silence::is_silent;
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(9);
        for case in 0..120 {
            let n = rng.random_range(2..=16usize);
            let protocol = Epidemic::new(n);
            let infected = rng.random_range(1..=n);
            // Shuffled epidemic configuration: silent iff all or none
            // infected (modulo the one-way rule: all-false is silent,
            // any mix is not).
            let mut states = protocol.initial(infected);
            for i in (1..states.len()).rev() {
                let j = rng.random_range(0..=i);
                states.swap(i, j);
            }
            let expected = is_silent(&protocol, &states);
            for shards in [1, 2, n] {
                let mut obs = ShardedSilence::new();
                let verdict = merged_verdict(&mut obs, &protocol, 3, &states, shards);
                assert_eq!(
                    verdict.is_stop(),
                    expected,
                    "case {case}: n={n} shards={shards} states={states:?}"
                );
            }
        }
    }

    #[test]
    fn sharded_silence_counts_same_state_pairs() {
        // Two agents in the *same* active state must be probed against
        // each other: (true, true) is silent for the epidemic, but a
        // protocol where equal states interact is not. Use a counter
        // protocol where (x, x) changes state.
        struct Tick;
        impl Protocol for Tick {
            type State = u8;
            fn n(&self) -> usize {
                4
            }
            fn transition(&self, u: &mut u8, v: &mut u8) -> bool {
                if *u == *v && *u == 1 {
                    *v = 2;
                    return true;
                }
                false
            }
        }
        let mut obs = ShardedSilence::new();
        // A single 1 cannot meet itself: silent.
        let lone = vec![0u8, 1, 0, 2];
        assert!(obs.observe_whole(&Tick, 0, &lone).is_stop());
        // Two 1s interact: not silent — and the duplicates land in
        // different shards, so only the merged multiset can see it.
        let mut obs = ShardedSilence::new();
        let dup = vec![1u8, 0, 1, 0];
        assert!(!merged_verdict(&mut obs, &Tick, 0, &dup, 2).is_stop());
    }

    #[test]
    fn meter_counts_budgeted_checkpoints() {
        let mut sim = epidemic_sim(16, 1, 1);
        let mut meter = Meter::new();
        let stop = sim.run_observed(500, 100, &mut meter);
        assert_eq!(stop, StopReason::BudgetExhausted);
        assert_eq!(meter.checkpoints(), 6); // t = 0, 100, ..., 500
        assert_eq!(meter.interactions_seen(), 500);
    }
}
