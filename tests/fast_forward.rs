//! Silent fast-forward is exact: an engine that skips certified-silent
//! stretches ends every run exactly where an engine that executes every
//! interaction does.
//!
//! The reference runs the protocol through [`Executes`], which
//! forwards only the methods that execute interactions (the drawn pair
//! feed of `transition_from` among them), so it never certifies and
//! never skips. The certified run forwards everything
//! through [`Certifies`], which also counts the pairs it is credited
//! with skipping, so each case can show that it really skipped.
//!
//! Both start from a legal (silent) configuration under a fault plan
//! whose faults fire inside silent stretches. Every subset of the run
//! driver's hook slots (faults, saves, poll, probe) runs on the
//! sequential engine and on the sharded API at 1, 2 and 4 shards, with
//! one and two workers, which must end on the sequential engine's
//! frames. The two runs must agree on the final frame
//! (states, RNG words, pending pairs), the dispatch mix, the reset count,
//! and everything the hooks saw. More cases resume from a checkpoint
//! taken mid-silence (a sharded run's checkpoint resumes on the
//! sequential engine) and from cursors holding pending pairs, and run the
//! structured `StableState` path and the two-agent population, which
//! certify too. One more case
//! skips several runs in a row, so the uniform pair source owes their
//! draws, and checks the frame, a save, a fault and a resume taken
//! while the draws are still owed. The dynamic engine runs the
//! sequential engine's block loop, so it skips too: a quiescent run from
//! the clean start, and a churning run under a fault plan, end where the
//! executing run does, down to the engine's own DYNPOP section.

use std::sync::atomic::{AtomicU64, Ordering};

use silent_ranking::dynamic::{ChurnConfig, DynRanking, DynamicPopulation};
use silent_ranking::population::observe::Control;
use silent_ranking::population::schedule::{Pair, Schedule};
use silent_ranking::population::{
    drive, is_valid_ranking, Capture, CursorSource, Every, FaultHook, FaultState, Frame, HookState,
    MemoryCheckpointer, NoFaults, NoPoll, NoSaves, NullProbe, Observer, Packed, PairSource,
    Protocol, Simulator, UnpackedHook, WordState,
};
use silent_ranking::ranking::stable::{PackedState, StableRanking, StableState};
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::{ranking_faults, FaultPlan};
use silent_ranking::shard::ShardedSimulator;
use silent_ranking::telemetry::{EventKind, Recorder};

type P = Packed<StableRanking>;

const N: usize = 16;
const SEED: u64 = 5;
const BUDGET: u64 = 120_000;
/// Both faults land in silence: the run starts legal, and the first
/// recovery takes about 20 000 interactions at this size.
const FAULT_AT: [u64; 2] = [10_000, 60_000];
/// Saves share both fault times.
const SAVE_EVERY: u64 = 10_000;
const POLL_EVERY: u64 = 7_000;

const FAULTS: u8 = 1;
const SAVES: u8 = 2;
const POLL: u8 = 4;
const PROBE: u8 = 8;

/// A protocol seen through one of the two test wrappers.
trait Wrapper: Protocol + WordState + Sync {
    type Inner: Protocol<State = Self::State>;

    fn inner(&self) -> &Self::Inner;

    /// Null pairs credited by skips so far.
    fn credited(&self) -> u64;
}

/// A protocol without its certificate: only the methods that execute
/// interactions are forwarded.
#[derive(Debug)]
struct Executes<Q>(Q);

impl<Q: Protocol> Protocol for Executes<Q> {
    type State = Q::State;

    fn n(&self) -> usize {
        self.0.n()
    }

    fn transition(&self, u: &mut Q::State, v: &mut Q::State) -> bool {
        self.0.transition(u, v)
    }

    fn transition_block(&self, states: &mut [Q::State], pairs: &[Pair]) -> u64 {
        self.0.transition_block(states, pairs)
    }

    fn transition_from<const MARK: bool, S: PairSource>(
        &self,
        states: &mut [Q::State],
        source: &mut S,
        max: usize,
        marks: &mut [u64],
    ) -> (usize, u64) {
        self.0
            .transition_from::<MARK, S>(states, source, max, marks)
    }
}

impl<Q: WordState> WordState for Executes<Q> {
    fn state_to_word(&self, state: &Q::State) -> u64 {
        self.0.state_to_word(state)
    }

    fn state_from_word(&self, word: u64) -> Result<Q::State, String> {
        self.0.state_from_word(word)
    }
}

impl<Q: WordState + Sync> Wrapper for Executes<Q> {
    type Inner = Q;

    fn inner(&self) -> &Q {
        &self.0
    }

    fn credited(&self) -> u64 {
        0
    }
}

/// A protocol with every method forwarded, counting the null pairs it
/// is credited with.
#[derive(Debug)]
struct Certifies<Q>(Q, AtomicU64);

impl<Q: Protocol> Protocol for Certifies<Q> {
    type State = Q::State;

    fn n(&self) -> usize {
        self.0.n()
    }

    fn transition(&self, u: &mut Q::State, v: &mut Q::State) -> bool {
        self.0.transition(u, v)
    }

    fn transition_block(&self, states: &mut [Q::State], pairs: &[Pair]) -> u64 {
        self.0.transition_block(states, pairs)
    }

    fn transition_from<const MARK: bool, S: PairSource>(
        &self,
        states: &mut [Q::State],
        source: &mut S,
        max: usize,
        marks: &mut [u64],
    ) -> (usize, u64) {
        self.0
            .transition_from::<MARK, S>(states, source, max, marks)
    }

    fn silent(&self, states: &[Q::State]) -> bool {
        self.0.silent(states)
    }

    fn count_null(&self, pairs: u64) {
        self.1.fetch_add(pairs, Ordering::Relaxed);
        self.0.count_null(pairs);
    }
}

impl<Q: WordState> WordState for Certifies<Q> {
    fn state_to_word(&self, state: &Q::State) -> u64 {
        self.0.state_to_word(state)
    }

    fn state_from_word(&self, word: u64) -> Result<Q::State, String> {
        self.0.state_from_word(word)
    }
}

impl<Q: WordState + Sync> Wrapper for Certifies<Q> {
    type Inner = Q;

    fn inner(&self) -> &Q {
        &self.0
    }

    fn credited(&self) -> u64 {
        self.1.load(Ordering::Relaxed)
    }
}

impl<Q: DynRanking> DynRanking for Executes<Q> {
    fn with_params(params: Params) -> Self {
        Executes(Q::with_params(params))
    }

    fn fresh(&self, coin: bool) -> Q::State {
        self.0.fresh(coin)
    }

    fn ranked(&self, rank: u64) -> Q::State {
        self.0.ranked(rank)
    }
}

impl<Q: DynRanking> DynRanking for Certifies<Q> {
    fn with_params(params: Params) -> Self {
        certifies(Q::with_params(params))
    }

    fn fresh(&self, coin: bool) -> Q::State {
        self.0.fresh(coin)
    }

    fn ranked(&self, rank: u64) -> Q::State {
        self.0.ranked(rank)
    }
}

/// The packed kernel under either wrapper.
trait Kernel: Wrapper<Inner = P> + Protocol<State = PackedState> {}

impl<W: Wrapper<Inner = P> + Protocol<State = PackedState>> Kernel for W {}

fn protocol() -> StableRanking {
    StableRanking::new(Params::new(N))
}

fn packed() -> P {
    Packed(protocol())
}

fn executes() -> Executes<P> {
    Executes(packed())
}

fn certifies<Q>(q: Q) -> Certifies<Q> {
    Certifies(q, AtomicU64::new(0))
}

fn legal() -> Vec<PackedState> {
    packed().pack_all(&protocol().legal())
}

/// A rank duplication, then a rank erasure, each in a silent stretch.
fn faults() -> FaultPlan<StableState> {
    FaultPlan::new(SEED ^ 0xFF)
        .once(FAULT_AT[0], ranking_faults::duplicate_rank(1))
        .once(FAULT_AT[1], ranking_faults::erase_rank(&protocol(), 2))
}

/// A fault hook on the wrapped protocol, handed the inner one.
struct Plan<H>(H);

impl Plan<UnpackedHook<FaultPlan<StableState>>> {
    fn new() -> Self {
        Plan(UnpackedHook::new(faults()))
    }

    fn fired(&self) -> Vec<u64> {
        self.0.inner().fired().iter().map(|f| f.at).collect()
    }
}

impl<W: Wrapper, H: FaultHook<W::Inner>> FaultHook<W> for Plan<H> {
    fn next_fire(&mut self, now: u64) -> Option<u64> {
        self.0.next_fire(now)
    }

    fn fire(&mut self, protocol: &W, t: u64, states: &mut [W::State]) {
        self.0.fire(protocol.inner(), t, states);
    }
}

impl<H: HookState> HookState for Plan<H> {
    fn export_state(&self) -> Option<FaultState> {
        self.0.export_state()
    }

    fn import_state(&mut self, state: &FaultState) -> Result<(), String> {
        self.0.import_state(state)
    }
}

/// An observer that never stops and records when it was polled.
#[derive(Default)]
struct Polls(Vec<u64>);

impl<Q: Protocol> Observer<Q> for Polls {
    fn observe(&mut self, _protocol: &Q, t: u64, _states: &[Q::State]) -> Control {
        self.0.push(t);
        Control::Continue
    }
}

type PackedPlan = Plan<UnpackedHook<FaultPlan<StableState>>>;

/// Everything a run produced.
#[derive(Debug, PartialEq)]
struct Outcome {
    frame: Frame,
    mix: [u64; 4],
    resets: u64,
    fired: Vec<u64>,
    saves: Vec<Frame>,
    polls: Vec<u64>,
    events: Vec<(u64, EventKind)>,
}

/// Bind `$v` to `$on_hook` when `$on`, else to `$off_hook`, and evaluate
/// `$body` under that binding (the body is expanded once per type).
macro_rules! pick {
    ($on:expr, $on_hook:expr, $off_hook:expr, |$v:ident| $body:expr) => {
        if $on {
            let $v = $on_hook;
            $body
        } else {
            let $v = $off_hook;
            $body
        }
    };
}

/// Drive `engine` from its current count to [`BUDGET`] under the hook
/// subset `mask`, with `plan` in the faults slot.
fn run<E>(engine: &mut E, mask: u8, mut plan: PackedPlan) -> Outcome
where
    E: Capture,
    E::Protocol: Kernel,
{
    let count = BUDGET - engine.interactions();
    let mut ckpt = MemoryCheckpointer::every(SAVE_EVERY);
    let mut polls = Polls::default();
    let mut rec = Recorder::new();
    pick!(mask & FAULTS != 0, &mut plan, &mut NoFaults, |h| {
        pick!(mask & SAVES != 0, &mut ckpt, &mut NoSaves, |c| {
            pick!(
                mask & POLL != 0,
                &mut Every(POLL_EVERY, &mut polls),
                &mut NoPoll,
                |o| {
                    pick!(mask & PROBE != 0, &mut rec, &mut NullProbe, |b| {
                        drive(engine, count, h, c, o, b);
                    })
                }
            )
        })
    });
    let kernel = engine.protocol().inner().inner();
    Outcome {
        frame: engine.frame(),
        mix: kernel.dispatch_mix(),
        resets: kernel.resets_triggered(),
        fired: plan.fired(),
        saves: ckpt.saved.into_iter().map(|(f, _)| f).collect(),
        polls: polls.0,
        events: rec.events().into_iter().map(|e| (e.t, e.kind)).collect(),
    }
}

/// `(shards, workers)` of the sharded API.
const SHARDED: [(usize, usize); 5] = [(1, 1), (2, 1), (2, 2), (4, 1), (4, 2)];

fn sequential<Q: Kernel>(q: Q) -> Simulator<Q> {
    Simulator::new(q, legal(), SEED)
}

fn sharded<Q: Kernel>(q: Q, (shards, workers): (usize, usize)) -> ShardedSimulator<Q> {
    ShardedSimulator::new(q, legal(), SEED, shards).with_workers(workers)
}

/// The certified sequential engine resumed at `frame`.
fn resume_certified(frame: &Frame) -> Simulator<Certifies<P>> {
    Simulator::resume(
        certifies(packed()),
        decode(frame),
        Schedule::from_cursor(frame.cursors[0].clone()),
        frame.interactions,
    )
}

/// Final frame, dispatch mix and reset count of one run.
type End = (Frame, [u64; 4], u64);

/// Run every hook subset on a certified engine and on its reference,
/// and compare; returns each subset's end, in mask order. A probe adds
/// no split point, so a subset with the probe must also end where the
/// same subset without it does: unprobed runs execute in stretches
/// between certificate tries, probed runs do not.
fn every_subset<C, R>(label: &str, certified: impl Fn() -> C, reference: impl Fn() -> R) -> Vec<End>
where
    C: Capture<Protocol = Certifies<P>>,
    R: Capture<Protocol = Executes<P>>,
{
    let mut frames = Vec::new();
    for mask in 0..16 {
        let mut c = certified();
        let mut r = reference();
        let got = run(&mut c, mask, PackedPlan::new());
        let want = run(&mut r, mask, PackedPlan::new());
        assert_eq!(got, want, "{label} mask={mask:04b}");
        let skipped = c.protocol().credited();
        if mask & PROBE != 0 {
            assert_eq!(
                skipped, 0,
                "{label} mask={mask:04b}: probed runs never skip"
            );
        } else {
            assert!(skipped > 0, "{label} mask={mask:04b}: nothing skipped");
        }
        if mask & FAULTS != 0 {
            assert_eq!(want.fired, FAULT_AT, "{label} mask={mask:04b}");
            assert!(
                want.mix[0] > 0,
                "{label} mask={mask:04b}: the faults must break silence"
            );
        }
        assert!(
            c.view(is_valid_ranking),
            "{label} mask={mask:04b}: the run must end recovered"
        );
        frames.push((want.frame, want.mix, want.resets));
    }
    for mask in 0..PROBE as usize {
        assert_eq!(
            frames[mask],
            frames[mask | PROBE as usize],
            "{label} mask={mask:04b}: the probe moved the trajectory"
        );
    }
    frames
}

#[test]
fn every_hook_subset_fast_forwards_exactly_on_the_sequential_engine() {
    every_subset(
        "sequential",
        || sequential(certifies(packed())),
        || sequential(executes()),
    );
}

#[test]
fn every_hook_subset_fast_forwards_exactly_on_the_sharded_engine() {
    let want = every_subset(
        "sequential",
        || sequential(certifies(packed())),
        || sequential(executes()),
    );
    for shape in SHARDED {
        let label = format!("(shards, workers)={shape:?}");
        let got = every_subset(
            &label,
            || sharded(certifies(packed()), shape),
            || sharded(executes(), shape),
        );
        assert_eq!(got, want, "{label}: the sequential engine's ends");
    }
}

/// Resume a certified engine from `frame`, with the plan at `fault`.
fn resumed_outcome<E: Capture<Protocol = Certifies<P>>>(
    mut engine: E,
    fault: &Option<FaultState>,
) -> Outcome {
    let mut plan = PackedPlan::new();
    plan.import_state(fault.as_ref().expect("the plan exports its state"))
        .expect("fault state restores");
    run(&mut engine, FAULTS | SAVES, plan)
}

fn decode(frame: &Frame) -> Vec<PackedState> {
    let q = packed();
    frame
        .words
        .iter()
        .map(|&w| q.state_from_word(w).expect("valid word"))
        .collect()
}

#[test]
fn a_resume_from_a_checkpoint_taken_mid_silence_continues_exactly() {
    let mid_silence = |saves: &[(Frame, Option<FaultState>)]| {
        saves
            .iter()
            .find(|(f, _)| f.interactions > FAULT_AT[0] && is_valid_ranking(&decode(f)))
            .expect("the first recovery ends before the second fault")
            .clone()
    };

    let mut whole = sequential(certifies(packed()));
    let mut saves = MemoryCheckpointer::every(SAVE_EVERY);
    drive(
        &mut whole,
        BUDGET,
        &mut PackedPlan::new(),
        &mut saves,
        &mut NoPoll,
        &mut NullProbe,
    );
    let (frame, fault) = mid_silence(&saves.saved);
    let got = resumed_outcome(resume_certified(&frame), &fault);
    let want = run(
        &mut sequential(executes()),
        FAULTS | SAVES,
        PackedPlan::new(),
    );
    assert_eq!(got.frame, want.frame, "sequential");
    assert_eq!(got.fired, want.fired, "sequential");

    for shape in SHARDED {
        let mut whole = sharded(certifies(packed()), shape);
        let mut saves = MemoryCheckpointer::every(SAVE_EVERY);
        drive(
            &mut whole,
            BUDGET,
            &mut PackedPlan::new(),
            &mut saves,
            &mut NoPoll,
            &mut NullProbe,
        );
        let (frame, fault) = mid_silence(&saves.saved);
        let got = resumed_outcome(resume_certified(&frame), &fault);
        let want = run(
            &mut sharded(executes(), shape),
            FAULTS | SAVES,
            PackedPlan::new(),
        );
        assert_eq!(got.frame, want.frame, "(shards, workers)={shape:?}");
        assert_eq!(got.fired, want.fired, "(shards, workers)={shape:?}");
        let later: Vec<&Frame> = want
            .saves
            .iter()
            .filter(|f| f.interactions >= frame.interactions)
            .collect();
        assert_eq!(got.saves.iter().collect::<Vec<_>>(), later, "{shape:?}");
    }
}

/// `cursor` with its next `k` pairs drawn and left pending, as a
/// restored snapshot of a differently buffered source would hold them.
fn with_pending<S: CursorSource>(mut source: S, k: usize) -> S {
    let pending: Vec<Pair> = (0..k)
        .map(|_| {
            let (i, j) = source.next_pair();
            (i as u32, j as u32)
        })
        .collect();
    let mut cursor = source.cursor();
    cursor.pending = pending;
    S::from_cursor(cursor)
}

const PENDING: usize = 100;

#[test]
fn a_cursor_restored_with_pending_pairs_fast_forwards_exactly() {
    fn sequential_pending<Q: Kernel>(q: Q) -> Simulator<Q> {
        let source = with_pending(Schedule::new(N, SEED), PENDING);
        Simulator::resume(q, legal(), source, 0)
    }

    every_subset(
        "sequential, pending",
        || sequential_pending(certifies(packed())),
        || sequential_pending(executes()),
    );
}

/// The structured states certify too: a valid ranking of `StableState`s
/// skips, and ends where the executing run does.
#[test]
fn the_structured_states_fast_forward_exactly() {
    let mut got = Simulator::new(certifies(protocol()), protocol().legal(), SEED);
    let mut want = Simulator::new(Executes(protocol()), protocol().legal(), SEED);
    drive(
        &mut got,
        BUDGET,
        &mut Plan(faults()),
        &mut NoSaves,
        &mut NoPoll,
        &mut NullProbe,
    );
    drive(
        &mut want,
        BUDGET,
        &mut Plan(faults()),
        &mut NoSaves,
        &mut NoPoll,
        &mut NullProbe,
    );
    assert_eq!(got.frame(), want.frame());
    assert_eq!(
        got.protocol().0.resets_triggered(),
        want.protocol().0.resets_triggered()
    );
    assert!(got.protocol().credited() > 0, "nothing skipped");
    assert!(
        got.protocol().credited() < BUDGET,
        "the faults must break silence"
    );
    assert!(is_valid_ranking(got.states()));
}

/// The two-agent population certifies too: the kernel counts its
/// classes like any other size, so skipped stretches credit the
/// dispatch mix exactly as executing them does.
#[test]
fn two_agents_fast_forward_exactly() {
    let p = || Packed(StableRanking::new(Params::new(2)));
    let legal = p().pack_all(&p().inner().legal());
    let plan = || {
        Plan(UnpackedHook::new(
            FaultPlan::new(SEED).once(FAULT_AT[0], ranking_faults::duplicate_rank(1)),
        ))
    };
    let mut got = Simulator::new(certifies(p()), legal.clone(), SEED);
    let mut want = Simulator::new(Executes(p()), legal, SEED);
    drive(
        &mut got,
        BUDGET,
        &mut plan(),
        &mut NoSaves,
        &mut NoPoll,
        &mut NullProbe,
    );
    drive(
        &mut want,
        BUDGET,
        &mut plan(),
        &mut NoSaves,
        &mut NoPoll,
        &mut NullProbe,
    );
    assert_eq!(got.frame(), want.frame());
    let (g, w) = (got.protocol().0.inner(), want.protocol().0.inner());
    assert_eq!(g.dispatch_mix(), w.dispatch_mix());
    assert_eq!(g.dispatch_mix().iter().sum::<u64>(), BUDGET);
    assert_eq!(g.resets_triggered(), w.resets_triggered());
    assert!(w.resets_triggered() > 0, "the fault must break silence");
    assert!(got.protocol().credited() > 0, "nothing skipped");
    assert!(is_valid_ranking(got.states()));
}

/// Runs made as separate calls on a silent configuration: each skips
/// all of its pairs, so the draws the pair source owes pile up across
/// them until the stream is next read.
const PILE: [u64; 4] = [1, 511, 4_096, 20_000];

/// A rank erasure in the silent stretch after the [`PILE`] runs.
fn piled_plan() -> PackedPlan {
    Plan(UnpackedHook::new(
        FaultPlan::new(SEED ^ 0xFF).once(45_000, ranking_faults::erase_rank(&protocol(), 2)),
    ))
}

/// Run the [`PILE`] on `engine`, then a faulted, saving run to
/// [`BUDGET`] whose first save lands right after the pile. Returns the
/// frame after the pile, the pairs credited to skips by then, and what
/// the rest of the run saw.
fn pile_up<E>(engine: &mut E) -> (Frame, u64, Outcome)
where
    E: Capture,
    E::Protocol: Kernel,
{
    for count in PILE {
        drive(
            engine,
            count,
            &mut NoFaults,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );
    }
    let piled = engine.frame();
    let credited = engine.protocol().credited();
    (piled, credited, run(engine, FAULTS | SAVES, piled_plan()))
}

/// A certified engine that owes its pile of draws must read the same
/// frame, save the same frames, take the same fault and resume (on the
/// sequential engine) from its first save to the same end as the engine
/// executing every pair.
fn owed_draws_settle_exactly<C, R>(label: &str, mut certified: C, mut reference: R)
where
    C: Capture<Protocol = Certifies<P>>,
    R: Capture<Protocol = Executes<P>>,
{
    let (got_piled, credited, got) = pile_up(&mut certified);
    let (want_piled, _, want) = pile_up(&mut reference);
    let piled: u64 = PILE.iter().sum();
    assert_eq!(credited, piled, "{label}: every piled run must skip");
    assert_eq!(got_piled, want_piled, "{label}: frame after the pile");
    assert_eq!(want.saves[0].interactions, piled, "{label}");
    assert_eq!(got, want, "{label}: saves, fault and end");
    assert_eq!(want.fired, [45_000], "{label}");
    assert!(want.mix[0] > 0, "{label}: the fault must break silence");

    let mut resumed = resume_certified(&got.saves[0]);
    let again = run(&mut resumed, FAULTS | SAVES, piled_plan());
    assert_eq!(again.frame, want.frame, "{label}: resumed end");
    assert_eq!(again.fired, want.fired, "{label}: resumed fault");
    assert_eq!(again.saves, want.saves, "{label}: resumed saves");
}

#[test]
fn owed_draws_pile_up_across_runs_and_settle_exactly() {
    owed_draws_settle_exactly(
        "sequential",
        sequential(certifies(packed())),
        sequential(executes()),
    );
    owed_draws_settle_exactly(
        "four shards",
        sharded(certifies(packed()), (4, 2)),
        sharded(executes(), (4, 2)),
    );
}

/// A dynamic population of `N` fresh electors under `config`.
fn dynamic<Q: DynRanking>(config: ChurnConfig) -> DynamicPopulation<Q> {
    DynamicPopulation::new(Params::new(N), config, SEED)
}

#[test]
fn the_dynamic_engine_fast_forwards_exactly_from_the_clean_start() {
    let mut got = dynamic::<Certifies<P>>(ChurnConfig::quiescent());
    let mut want = dynamic::<Executes<P>>(ChurnConfig::quiescent());
    got.run(BUDGET);
    want.run(BUDGET);
    assert_eq!(got.frame(), want.frame());
    assert_eq!(got.section(), want.section());
    assert!(is_valid_ranking(got.states()), "the run must stabilize");
    assert!(got.protocol().credited() > 0, "nothing skipped");
}

#[test]
fn the_dynamic_engine_fast_forwards_exactly_under_churn_and_faults() {
    // About one arrival and one departure per 100 000 interactions. An
    // arrival leases the rank a departure released, so the live ranks
    // are 1..=16 again between the lifecycle events, and some of the
    // rank erasures land in those silent stretches.
    let churn = ChurnConfig {
        hibernate_prob: 0.0,
        ..ChurnConfig::poisson(10.0, 1_600_000.0)
    };
    let budget = 10 * BUDGET;
    let plan = || {
        Plan(UnpackedHook::new(FaultPlan::new(SEED ^ 0xFF).periodic(
            50_000,
            100_000,
            ranking_faults::erase_rank(&protocol(), 2),
        )))
    };
    let mut got = dynamic::<Certifies<P>>(churn.clone());
    let mut want = dynamic::<Executes<P>>(churn);
    let (mut got_plan, mut want_plan) = (plan(), plan());
    drive(
        &mut got,
        budget,
        &mut got_plan,
        &mut NoSaves,
        &mut NoPoll,
        &mut NullProbe,
    );
    drive(
        &mut want,
        budget,
        &mut want_plan,
        &mut NoSaves,
        &mut NoPoll,
        &mut NullProbe,
    );
    assert_eq!(got.frame(), want.frame());
    assert_eq!(got.section(), want.section());
    assert_eq!(got_plan.fired(), want_plan.fired());
    assert_eq!(want_plan.fired().len(), 12);
    let metrics = want.metrics().snapshot();
    for counter in ["dyn_joins", "dyn_leaves"] {
        assert!(metrics.counter(counter).unwrap_or(0) > 0, "no {counter}");
    }
    assert!(got.protocol().credited() > 0, "nothing skipped");
}
