//! Benchmark-owned wrappers over the library's public seams.
//!
//! The untraced pass runs the library's own types on the hot path
//! (`Packed<StableRanking>` over a `Schedule`); the traced pass swaps in
//! [`TimedKernel`] and [`TimedSource`], which forward every call and time
//! each block. Hooks called once per burst or block (observer, fault
//! hook, checkpointer, probe) go through [`Tap`] in both passes: outside
//! a traced pass it costs one thread-local check per call. The observer
//! and probe taps are also where the untraced pass takes its host-speed
//! calibration samples (`calibrate::tick`).

use population::observe::Control;
use population::schedule::Pair;
use population::{
    is_valid_ranking, Checkpointer, CursorSource, FaultHook, FaultState, Frame, HookState,
    Observer, Packed, PairSource, Probe, Protocol, Schedule, ScheduleCursor, WordState,
};
use ranking::stable::{PackedState, StableRanking};
use snapshot::{Meta, SimSnapshot};

use crate::calibrate::{self, Mark};
use crate::trace::{self, Layer};

/// The protocol every workload runs.
pub type Kernel = Packed<StableRanking>;

/// A protocol the workloads can drive: the packed kernel or its timed
/// wrapper.
pub trait Engine: Protocol<State = PackedState> + WordState + Sync {
    /// The library protocol underneath.
    fn kernel(&self) -> &Kernel;
}

impl Engine for Kernel {
    fn kernel(&self) -> &Kernel {
        self
    }
}

/// The two passes: which protocol and pair source the hot path uses.
pub trait Mode {
    /// Whether this pass records a layer trace.
    const TRACED: bool;
    /// Protocol type.
    type P: Engine;
    /// Pair source type.
    type S: CursorSource;
    /// Wrap the protocol for this pass.
    fn protocol(kernel: Kernel) -> Self::P;
    /// Wrap the pair source for this pass.
    fn source(schedule: Schedule) -> Self::S;
}

/// The untraced pass: the library's types, unwrapped.
pub struct Plain;

impl Mode for Plain {
    const TRACED: bool = false;
    type P = Kernel;
    type S = Schedule;
    fn protocol(kernel: Kernel) -> Kernel {
        kernel
    }
    fn source(schedule: Schedule) -> Schedule {
        schedule
    }
}

/// The traced pass: timed wrappers on the hot path.
pub struct Traced;

impl Mode for Traced {
    const TRACED: bool = true;
    type P = TimedKernel;
    type S = TimedSource;
    fn protocol(kernel: Kernel) -> TimedKernel {
        TimedKernel(kernel)
    }
    fn source(schedule: Schedule) -> TimedSource {
        TimedSource(schedule)
    }
}

/// `Packed<StableRanking>` with every block timed. Per-pair calls (the
/// sharded engine's exchange pairs) forward untimed.
#[derive(Debug, Clone)]
pub struct TimedKernel(Kernel);

impl Protocol for TimedKernel {
    type State = PackedState;

    fn n(&self) -> usize {
        self.0.n()
    }

    #[inline]
    fn transition(&self, u: &mut PackedState, v: &mut PackedState) -> bool {
        self.0.transition(u, v)
    }

    fn transition_block(&self, states: &mut [PackedState], pairs: &[Pair]) -> u64 {
        let changed = trace::timed(Layer::Kernel, || self.0.transition_block(states, pairs));
        trace::add_items(Layer::Kernel, pairs.len() as u64);
        trace::add_changed(changed);
        changed
    }
}

impl WordState for TimedKernel {
    fn state_to_word(&self, state: &PackedState) -> u64 {
        self.0.state_to_word(state)
    }

    fn state_from_word(&self, word: u64) -> Result<PackedState, String> {
        self.0.state_from_word(word)
    }
}

impl Engine for TimedKernel {
    fn kernel(&self) -> &Kernel {
        &self.0
    }
}

/// The uniform `Schedule` with every block draw timed.
#[derive(Debug, Clone)]
pub struct TimedSource(Schedule);

impl PairSource for TimedSource {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn next_pair(&mut self) -> (usize, usize) {
        self.0.next_pair()
    }

    fn sample_block(&mut self, max: usize) -> &[Pair] {
        let block = trace::timed(Layer::Schedule, || self.0.sample_block(max));
        trace::add_items(Layer::Schedule, block.len() as u64);
        block
    }
}

impl CursorSource for TimedSource {
    fn cursor(&self) -> ScheduleCursor {
        self.0.cursor()
    }

    fn from_cursor(cursor: ScheduleCursor) -> Self {
        TimedSource(Schedule::from_cursor(cursor))
    }
}

/// The validity poll: continues until the configuration is a valid
/// ranking (`population::is_valid_ranking`, O(n)).
#[derive(Debug, Default)]
pub struct ValidPoll;

impl<P: Protocol<State = PackedState>> Observer<P> for ValidPoll {
    fn observe(&mut self, _protocol: &P, _t: u64, states: &[PackedState]) -> Control {
        if is_valid_ranking(states) {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

/// A hook seen through the benchmark: times observer polls, fault
/// firings, checkpoint saves and probe calls in the traced pass, marks
/// the start of every fault firing in both passes, and gives the
/// calibrator a chance to sample at every poll and probed block.
#[derive(Debug)]
pub struct Tap<H> {
    /// The library hook.
    pub inner: H,
    /// When each fault fired, in firing order.
    pub fired_at: Vec<Mark>,
}

impl<H> Tap<H> {
    /// Wrap `inner`.
    pub fn new(inner: H) -> Self {
        Self {
            inner,
            fired_at: Vec::new(),
        }
    }
}

impl<P: Protocol, O: Observer<P>> Observer<P> for Tap<O> {
    fn observe(&mut self, protocol: &P, t: u64, states: &[P::State]) -> Control {
        calibrate::tick();
        trace::timed(Layer::Observe, || self.inner.observe(protocol, t, states))
    }
}

/// Fault hooks are written against `Packed<StableRanking>`
/// (`UnpackedHook<FaultPlan>`); the tap hands them the kernel under
/// either pass's protocol.
impl<P: Engine, H: FaultHook<Kernel>> FaultHook<P> for Tap<H> {
    fn next_fire(&mut self, now: u64) -> Option<u64> {
        self.inner.next_fire(now)
    }

    fn fire(&mut self, protocol: &P, t: u64, states: &mut [PackedState]) {
        self.fired_at.push(calibrate::mark());
        trace::timed(Layer::Fault, || {
            self.inner.fire(protocol.kernel(), t, states)
        });
    }
}

impl<H: HookState> HookState for Tap<H> {
    fn export_state(&self) -> Option<FaultState> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &FaultState) -> Result<(), String> {
        self.inner.import_state(state)
    }
}

impl<C: Checkpointer> Checkpointer for Tap<C> {
    const ACTIVE: bool = C::ACTIVE;

    fn next_due(&mut self, now: u64) -> Option<u64> {
        self.inner.next_due(now)
    }

    fn save(&mut self, frame: &Frame, fault: Option<&FaultState>) {
        if trace::active() {
            // The sink encodes and writes in one call; encoding a copy
            // here splits its cost into encode and write time.
            let copy = SimSnapshot {
                meta: Meta::bare("perfbench", 0),
                frame: frame.clone(),
                fault: fault.cloned(),
                observer: Vec::new(),
                dynpop: Vec::new(),
            };
            let bytes = trace::timed(Layer::Encode, || copy.encode().len());
            trace::add_items(Layer::Encode, bytes as u64);
        }
        trace::timed(Layer::Save, || self.inner.save(frame, fault));
    }
}

impl<P: Protocol, B: Probe<P>> Probe<P> for Tap<B> {
    const ACTIVE: bool = B::ACTIVE;

    fn block(
        &mut self,
        protocol: &P,
        t: u64,
        changed: u64,
        shard: usize,
        start: usize,
        lane: &[P::State],
    ) {
        calibrate::tick();
        trace::timed(Layer::Recorder, || {
            self.inner.block(protocol, t, changed, shard, start, lane)
        });
        trace::add_items(Layer::Recorder, 1);
    }

    fn exchange(&mut self, protocol: &P, t: u64, pairs: u64) {
        trace::add_exchange(pairs);
        trace::timed(Layer::Recorder, || self.inner.exchange(protocol, t, pairs));
    }

    fn checkpoint(&mut self, protocol: &P, t: u64, stopping: bool) {
        trace::timed(Layer::Recorder, || {
            self.inner.checkpoint(protocol, t, stopping)
        });
    }

    fn fault(&mut self, protocol: &P, t: u64, states: &[P::State]) {
        trace::timed(Layer::Recorder, || self.inner.fault(protocol, t, states));
    }
}
