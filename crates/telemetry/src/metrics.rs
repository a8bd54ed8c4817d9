//! The unified metrics registry: named relaxed-atomic [`Counter`]s and
//! log₂-bucketed [`Histogram`]s with a snapshot API for emission.
//!
//! Handles are `Arc`-backed: a component registers its metrics once at
//! construction ([`Registry::counter`] / [`Registry::histogram`] take
//! `&mut self`) and keeps the returned handle for lock-free hot-path
//! updates (`Relaxed` RMWs — exactly the cost of the ad-hoc `AtomicU64`
//! fields this registry absorbed), while the registry retains a second
//! handle for enumeration and [`Snapshot`] capture. Cross-thread
//! semantics match the old fields too: totals are exact once a run has
//! joined; mid-run reads may lag.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets: one for zero plus one per power of two
/// (`u64` has 64 of them).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Map a recorded value to its bucket index: bucket 0 holds exactly the
/// value 0; bucket `k ≥ 1` holds `[2^(k-1), 2^k)`.
#[inline]
fn bucket_of(value: u64) -> usize {
    match value {
        0 => 0,
        v => 1 + v.ilog2() as usize,
    }
}

struct CounterCell {
    name: &'static str,
    value: AtomicU64,
}

/// A named monotone counter. Cloning clones the *handle*: both handles
/// update the same cell (and the registry that created it sees every
/// update).
#[derive(Clone)]
pub struct Counter(Arc<CounterCell>);

impl Counter {
    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.0.name
    }

    /// Add `delta` (relaxed).
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add 1 (relaxed).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (relaxed).
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({} = {})", self.name(), self.get())
    }
}

struct HistogramCell {
    name: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A named log₂-bucketed histogram: bucket 0 counts zeros, bucket
/// `k ≥ 1` counts values in `[2^(k-1), 2^k)`. Fixed storage (65
/// buckets), relaxed updates, `Arc`-backed handles like [`Counter`].
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.0.name
    }

    /// Record one observation of `value` (three relaxed RMWs).
    #[inline]
    pub fn record(&self, value: u64) {
        self.0.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Snapshot this histogram (non-empty buckets only).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            name: self.0.name,
            count: self.count(),
            sum: self.sum(),
            buckets: self
                .0
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(k, b)| {
                    let c = b.load(Ordering::Relaxed);
                    (c > 0).then_some((k as u32, c))
                })
                .collect(),
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Histogram({}, count = {})", self.name(), self.count())
    }
}

/// A point-in-time copy of one histogram, as captured by
/// [`Histogram::snapshot`]: `buckets` holds `(bucket index, count)`
/// pairs for the non-empty buckets, in index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The registered name.
    pub name: &'static str,
    /// Total observations.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// `(bucket index, count)` for each non-empty bucket.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// The half-open value range `[lo, hi)` covered by bucket `k`
    /// (bucket 0 is the degenerate `[0, 1)`).
    pub fn bucket_range(k: u32) -> (u64, u64) {
        match k {
            0 => (0, 1),
            k => (1 << (k - 1), (1u64 << (k - 1)).saturating_mul(2)),
        }
    }

    /// Render the histogram as an aligned ASCII bar chart, one bucket
    /// per line — the shared presentation used by `examples/trace.rs`
    /// and the `ssr-trace` summarizer.
    pub fn render_ascii(&self) -> String {
        let max = self.buckets.iter().map(|&(_, c)| c).max().unwrap_or(0);
        let mut out = String::new();
        for &(k, c) in &self.buckets {
            let (lo, hi) = Self::bucket_range(k);
            let bar = "#".repeat(((c * 40).div_ceil(max.max(1))) as usize);
            let label = if k == 0 {
                "0".to_string()
            } else {
                format!("[{lo}, {hi})")
            };
            out.push_str(&format!("  {label:>24} {c:>10} {bar}\n"));
        }
        out
    }
}

/// The registry: the single place a run's metrics live, enumerable for
/// emission. Registration happens at construction time (`&mut self`);
/// updates go through the returned handles; reads and snapshots take
/// `&self`.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Vec<Counter>,
    histograms: Vec<Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or re-obtain) the counter named `name` and return a
    /// hot-path handle to it. Registering an existing name returns a
    /// handle to the *same* cell, so components can share a counter by
    /// agreeing on its name.
    pub fn counter(&mut self, name: &'static str) -> Counter {
        if let Some(c) = self.counters.iter().find(|c| c.name() == name) {
            return c.clone();
        }
        let c = Counter(Arc::new(CounterCell {
            name,
            value: AtomicU64::new(0),
        }));
        self.counters.push(c.clone());
        c
    }

    /// Register (or re-obtain) the histogram named `name`; same sharing
    /// semantics as [`counter`](Registry::counter).
    pub fn histogram(&mut self, name: &'static str) -> Histogram {
        if let Some(h) = self.histograms.iter().find(|h| h.name() == name) {
            return h.clone();
        }
        let h = Histogram(Arc::new(HistogramCell {
            name,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }));
        self.histograms.push(h.clone());
        h
    }

    /// The current value of the counter named `name`, if registered.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name() == name)
            .map(Counter::get)
    }

    /// The registered counters, in registration order.
    pub fn counters(&self) -> impl Iterator<Item = &Counter> {
        self.counters.iter()
    }

    /// The registered histograms, in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = &Histogram> {
        self.histograms.iter()
    }

    /// Capture every metric's current value for emission.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.iter().map(|c| (c.name(), c.get())).collect(),
            histograms: self.histograms.iter().map(Histogram::snapshot).collect(),
        }
    }
}

/// A point-in-time copy of a whole [`Registry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` per counter, in registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// One [`HistogramSnapshot`] per histogram, in registration order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// The snapshotted value of the counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The snapshotted histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_cell() {
        let mut reg = Registry::new();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.add(3);
        b.inc();
        assert_eq!(reg.get("hits"), Some(4));
        assert_eq!(a.get(), 4);
        assert_eq!(reg.counters().count(), 1, "same name, one cell");
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut reg = Registry::new();
        let h = reg.histogram("lat");
        for v in [0, 1, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 9);
        // 0→b0; 1,1→b1; 2,3→b2; 4,7→b3; 8→b4; MAX→b64.
        assert_eq!(
            snap.buckets,
            vec![(0, 1), (1, 2), (2, 2), (3, 2), (4, 1), (64, 1)]
        );
        assert_eq!(HistogramSnapshot::bucket_range(3), (4, 8));
        assert_eq!(HistogramSnapshot::bucket_range(0), (0, 1));
    }

    #[test]
    fn snapshot_is_a_stable_copy() {
        let mut reg = Registry::new();
        let c = reg.counter("events");
        let h = reg.histogram("gaps");
        c.add(5);
        h.record(16);
        let snap = reg.snapshot();
        c.add(100);
        h.record(1);
        assert_eq!(snap.counter("events"), Some(5));
        assert_eq!(snap.histogram("gaps").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn render_ascii_labels_ranges() {
        let mut reg = Registry::new();
        let h = reg.histogram("x");
        h.record(0);
        h.record(5);
        let text = h.snapshot().render_ascii();
        assert!(text.contains("[4, 8)"), "{text}");
        assert!(text.lines().count() == 2, "{text}");
    }
}
