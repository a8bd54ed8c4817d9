//! Layer timing for the traced pass.
//!
//! Every timed call pushes a frame on a thread-local stack; when it
//! returns, its duration is added to its layer's total and to the
//! parent frame's child time, so a layer's *self* time is its calls'
//! duration minus the nested calls of other layers. The root frame spans
//! the whole timed phase: its self time is the benchmark's own glue
//! between library calls, reported as unaccounted time, so a library
//! layer the wrappers miss shows up there or in the driver's self time.
//!
//! Per-block calls (schedule draws, kernel blocks, recorder blocks) are
//! aggregated into counters and log₂ histograms. Coarse calls (episodes,
//! polls, faults, saves) are also kept as spans, capped at
//! [`SPAN_CAP`], and written out with the layer table at exit.
//!
//! Outside a traced pass [`timed`] is a thread-local check and a direct
//! call. The engines call every traced layer on the thread that drives
//! them (an active probe keeps the sharded engine on one thread), so one
//! stack per thread sees every nested call.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Layers, named by the crate and seam they time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Benchmark glue outside any library call (the root frame).
    Glue,
    /// One workload episode: a seed, a fault recovery, a window.
    Episode,
    /// A sequential `Simulator::run_*` call, minus nested layers.
    Driver,
    /// A `ShardedSimulator::run_*` call, minus nested layers.
    Shard,
    /// `PairSource::sample_block` on the uniform `Schedule`.
    Schedule,
    /// `Protocol::transition_block` on the `Packed<StableRanking>` kernel.
    Kernel,
    /// `Observer::observe`: the validity poll.
    Observe,
    /// `FaultHook::fire` through `UnpackedHook<FaultPlan>`.
    Fault,
    /// `Checkpointer::save` on the `SnapshotSink`.
    Save,
    /// A second encode of the saved frame, made by the traced wrapper
    /// only, to split a save into encode and write time.
    Encode,
    /// `Probe` calls into the telemetry `Recorder`.
    Recorder,
}

const LAYERS: usize = 11;

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Glue,
        Layer::Episode,
        Layer::Driver,
        Layer::Shard,
        Layer::Schedule,
        Layer::Kernel,
        Layer::Observe,
        Layer::Fault,
        Layer::Save,
        Layer::Encode,
        Layer::Recorder,
    ];

    /// The metric prefix of this layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Glue => "trace.unaccounted",
            Layer::Episode => "bench.episode",
            Layer::Driver => "population.driver",
            Layer::Shard => "shard.run",
            Layer::Schedule => "population.schedule",
            Layer::Kernel => "ranking.kernel",
            Layer::Observe => "population.observe",
            Layer::Fault => "scenarios.fault",
            Layer::Save => "snapshot.save",
            Layer::Encode => "snapshot.encode",
            Layer::Recorder => "telemetry.recorder",
        }
    }

    /// Coarse layers keep one span per call.
    fn spanned(self) -> bool {
        matches!(
            self,
            Layer::Episode | Layer::Observe | Layer::Fault | Layer::Save | Layer::Encode
        )
    }

    /// Layers whose every call duration is kept for exact percentiles.
    fn sampled(self) -> bool {
        matches!(self, Layer::Save | Layer::Encode)
    }
}

/// Most spans kept per pass; later spans are counted, not stored.
const SPAN_CAP: usize = 1 << 18;

/// Aggregates of one layer.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Calls made.
    pub calls: u64,
    /// Work items handled (pairs for schedule and kernel, bytes for encode).
    pub items: u64,
    /// Summed call durations.
    pub total_ns: u64,
    /// Summed call durations minus nested calls of other layers.
    pub self_ns: u64,
    /// Call durations, bucketed by ⌊log₂ ns⌋.
    pub hist: [u64; 64],
    /// Every call duration, for [`Layer::sampled`] layers.
    pub samples: Vec<u64>,
}

impl Default for Stats {
    fn default() -> Self {
        Self {
            calls: 0,
            items: 0,
            total_ns: 0,
            self_ns: 0,
            hist: [0; 64],
            samples: Vec::new(),
        }
    }
}

/// One recorded coarse call.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start_ns: u64,
    dur_ns: u64,
    /// Index of the enclosing recorded span, if any.
    parent: Option<u32>,
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
    span: Option<u32>,
}

struct Trace {
    epoch: Instant,
    stack: Vec<Frame>,
    stats: [Stats; LAYERS],
    spans: Vec<Span>,
    spans_dropped: u64,
    kernel_changed: u64,
    exchange_pairs: u64,
}

thread_local! {
    static TRACE: RefCell<Option<Trace>> = const { RefCell::new(None) };
}

/// The finished trace of one pass.
#[derive(Debug)]
pub struct Report {
    /// Wall time of the root frame.
    pub wall_ns: u64,
    /// Per-layer aggregates, indexed like [`Layer::ALL`].
    stats: Vec<Stats>,
    /// Interactions the kernel reported as state-changing.
    pub kernel_changed: u64,
    /// Cross-shard pairs reported through `Probe::exchange`.
    pub exchange_pairs: u64,
    spans: Vec<Span>,
    spans_dropped: u64,
}

/// Start a traced pass on this thread: the root frame opens now.
pub fn begin() {
    let now = Instant::now();
    TRACE.with_borrow_mut(|t| {
        *t = Some(Trace {
            epoch: now,
            stack: vec![Frame {
                layer: Layer::Glue,
                start: now,
                child_ns: 0,
                span: None,
            }],
            stats: Default::default(),
            spans: Vec::new(),
            spans_dropped: 0,
            kernel_changed: 0,
            exchange_pairs: 0,
        })
    });
}

/// Close the root frame and return the pass's report.
///
/// # Panics
///
/// Panics if no pass is open or a timed call is still open.
pub fn finish() -> Report {
    exit();
    let t = TRACE
        .with_borrow_mut(Option::take)
        .expect("finish without begin");
    assert!(t.stack.is_empty(), "timed call still open at finish");
    let stats = t.stats.to_vec();
    Report {
        wall_ns: stats[0].total_ns,
        stats,
        kernel_changed: t.kernel_changed,
        exchange_pairs: t.exchange_pairs,
        spans: t.spans,
        spans_dropped: t.spans_dropped,
    }
}

/// Is a traced pass open on this thread?
pub fn active() -> bool {
    TRACE.with_borrow(Option::is_some)
}

/// Run `f` as one call of `layer`. A direct call outside a traced pass.
#[inline]
pub fn timed<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !active() {
        return f();
    }
    enter(layer);
    let r = f();
    exit();
    r
}

/// Add `items` units of work to `layer`'s count.
pub fn add_items(layer: Layer, items: u64) {
    TRACE.with_borrow_mut(|t| {
        if let Some(t) = t {
            t.stats[layer as usize].items += items;
        }
    });
}

/// Count state-changing interactions reported by the kernel.
pub fn add_changed(changed: u64) {
    TRACE.with_borrow_mut(|t| {
        if let Some(t) = t {
            t.kernel_changed += changed;
        }
    });
}

/// Count cross-shard pairs reported by the sharded engine.
pub fn add_exchange(pairs: u64) {
    TRACE.with_borrow_mut(|t| {
        if let Some(t) = t {
            t.exchange_pairs += pairs;
        }
    });
}

fn enter(layer: Layer) {
    let start = Instant::now();
    TRACE.with_borrow_mut(|t| {
        let t = t.as_mut().expect("enter outside a traced pass");
        let span = if layer.spanned() {
            if t.spans.len() < SPAN_CAP {
                let parent = t.stack.iter().rev().find_map(|f| f.span);
                t.spans.push(Span {
                    layer,
                    start_ns: nanos(start - t.epoch),
                    dur_ns: 0,
                    parent,
                });
                Some((t.spans.len() - 1) as u32)
            } else {
                t.spans_dropped += 1;
                None
            }
        } else {
            None
        };
        t.stack.push(Frame {
            layer,
            start,
            child_ns: 0,
            span,
        });
    });
}

fn exit() {
    let end = Instant::now();
    TRACE.with_borrow_mut(|t| {
        let t = t.as_mut().expect("exit outside a traced pass");
        let frame = t.stack.pop().expect("exit without enter");
        let dur = nanos(end - frame.start);
        let s = &mut t.stats[frame.layer as usize];
        s.calls += 1;
        s.total_ns += dur;
        s.self_ns += dur.saturating_sub(frame.child_ns);
        s.hist[(63 - dur.max(1).leading_zeros()) as usize] += 1;
        if frame.layer.sampled() {
            s.samples.push(dur);
        }
        if let Some(i) = frame.span {
            t.spans[i as usize].dur_ns = dur;
        }
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ns += dur;
        }
    });
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Report {
    /// Aggregates of `layer`.
    pub fn layer(&self, layer: Layer) -> &Stats {
        &self.stats[layer as usize]
    }

    /// `layer`'s self time as a share of the pass's wall time.
    pub fn share(&self, layer: Layer) -> f64 {
        self.layer(layer).self_ns as f64 / self.wall_ns.max(1) as f64
    }

    /// Wall time not covered by any library layer: the root frame's and
    /// the episodes' self time.
    pub fn unaccounted_ns(&self) -> u64 {
        self.layer(Layer::Glue).self_ns + self.layer(Layer::Episode).self_ns
    }

    /// The layer table and the kept spans, as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"wall_ns\":{},\"kernel_changed\":{},\"exchange_pairs\":{},\"spans\":{},\"spans_dropped\":{}}}",
            self.wall_ns,
            self.kernel_changed,
            self.exchange_pairs,
            self.spans.len(),
            self.spans_dropped
        );
        for layer in Layer::ALL {
            let s = self.layer(layer);
            let hist: Vec<String> = s.hist.iter().map(u64::to_string).collect();
            let _ = writeln!(
                out,
                "{{\"layer\":\"{}\",\"calls\":{},\"items\":{},\"total_ns\":{},\"self_ns\":{},\"log2_ns_hist\":[{}]}}",
                layer.name(),
                s.calls,
                s.items,
                s.total_ns,
                s.self_ns,
                hist.join(",")
            );
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"layer\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"parent\":{parent}}}",
                s.layer.name(),
                s.start_ns,
                s.dur_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_nested_layers_and_shares_sum_to_one() {
        begin();
        timed(Layer::Driver, || {
            timed(Layer::Kernel, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let r = finish();
        let driver = r.layer(Layer::Driver);
        let kernel = r.layer(Layer::Kernel);
        assert_eq!((driver.calls, kernel.calls), (1, 1));
        assert_eq!(driver.self_ns, driver.total_ns - kernel.total_ns);
        let sum: u64 = Layer::ALL.iter().map(|&l| r.layer(l).self_ns).sum();
        assert_eq!(sum, r.wall_ns);
    }

    #[test]
    fn untraced_calls_are_direct() {
        assert!(!active());
        assert_eq!(timed(Layer::Kernel, || 7), 7);
    }
}
