use crate::checkpoint::{Checkpointer, Frame, HookState, WordState};
use crate::drive::{drive, Capture, Engine, Every, NoPoll, NoSaves};
use crate::observe::{Convergence, Observer};
use crate::pairs::pair_mut;
use crate::probe::{NullProbe, Probe};
use crate::protocol::{Packed, PackedProtocol, Protocol};
use crate::schedule::{CursorSource, PairSource, Schedule, BLOCK_PAIRS};
use crate::silence::Certificate;

/// Why a bounded run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// An observer requested a stop; the payload is the number of
    /// interactions executed at the checkpoint where it did. Because
    /// observers are polled every `check_every` interactions, the
    /// reported time overshoots the true hitting time by less than
    /// `check_every`.
    Converged(u64),
    /// The interaction budget was exhausted without an observer stop.
    BudgetExhausted,
}

impl StopReason {
    /// The convergence time, if the run converged.
    pub fn converged_at(self) -> Option<u64> {
        match self {
            StopReason::Converged(t) => Some(t),
            StopReason::BudgetExhausted => None,
        }
    }
}

/// A hook for injecting faults into a run at exact interaction counts.
///
/// The engine itself knows nothing about fault semantics; it only agrees
/// to (a) ask the hook where it next wants control and (b) hand it
/// mutable access to the configuration when the run reaches that point.
/// The `scenarios` crate's `FaultPlan` is the canonical implementation.
/// A hook fills the faults slot of [`drive`]; an empty plan leaves the
/// run bit-for-bit trajectory-equivalent to
/// [`Simulator::run_batched`] (faults only ever mutate states, never
/// the pair stream).
pub trait FaultHook<P: Protocol> {
    /// `false` for [`NoFaults`]: the driver then never asks the hook for
    /// a fire time, so the disabled hook costs nothing.
    const ACTIVE: bool = true;

    /// The earliest interaction count at (or after) `now` where the hook
    /// wants to fire, or `None` if it never will again. The engine stops
    /// the batched loop exactly there.
    fn next_fire(&mut self, now: u64) -> Option<u64>;

    /// Fire at interaction count `t` (i.e. after `t` interactions have
    /// executed), mutating the configuration in place.
    ///
    /// Implementations **must advance** past `t`: a subsequent
    /// [`next_fire`](FaultHook::next_fire)`(t)` must return a time
    /// strictly greater than `t` (or `None`), otherwise the engine would
    /// loop forever at one interaction count.
    fn fire(&mut self, protocol: &P, t: u64, states: &mut [P::State]);
}

/// The trivial hook: never fires. [`drive`] with this hook and the
/// other slots empty is exactly [`Simulator::run_batched`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl<P: Protocol> FaultHook<P> for NoFaults {
    const ACTIVE: bool = false;

    fn next_fire(&mut self, _now: u64) -> Option<u64> {
        None
    }

    fn fire(&mut self, _protocol: &P, _t: u64, _states: &mut [P::State]) {}
}

/// Adapts a [`FaultHook`] written against a protocol's structured
/// states to a run over the [`Packed`] words: the configuration is
/// unpacked at the fault boundary, handed to the inner hook, and
/// re-packed.
///
/// This is the fault-injection end of the packed-representation
/// contract — the hot loop stays on flat words, and the (rare) fault
/// firings pay the codec cost. Because the inner hook sees exactly the
/// states it would see in an unpacked run (and its own RNG is
/// untouched), a packed faulted run is trajectory-equivalent to the
/// unpacked one under the same seeds.
#[derive(Debug)]
pub struct UnpackedHook<H> {
    inner: H,
}

impl<H> UnpackedHook<H> {
    /// Wrap a structured-state hook for a packed run.
    pub fn new(inner: H) -> Self {
        Self { inner }
    }

    /// The wrapped hook (e.g. to read a `FaultPlan`'s firing log).
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Mutable access to the wrapped hook (e.g. to restore a
    /// `FaultPlan`'s checkpointed state).
    pub fn inner_mut(&mut self) -> &mut H {
        &mut self.inner
    }
}

impl<P: PackedProtocol, H: FaultHook<P>> FaultHook<Packed<P>> for UnpackedHook<H> {
    const ACTIVE: bool = H::ACTIVE;

    fn next_fire(&mut self, now: u64) -> Option<u64> {
        self.inner.next_fire(now)
    }

    fn fire(&mut self, protocol: &Packed<P>, t: u64, words: &mut [P::Packed]) {
        let mut states: Vec<P::State> = words.iter().map(|&w| protocol.inner().unpack(w)).collect();
        self.inner.fire(protocol.inner(), t, &mut states);
        for (w, s) in words.iter_mut().zip(&states) {
            *w = protocol.inner().pack(s);
        }
    }
}

/// A seeded, deterministic executor for a [`Protocol`].
///
/// Pair selection lives in a [`PairSource`] — by default a [`Schedule`]
/// (the paper's *uniform scheduler*), but any implementation can be
/// plugged in via [`with_source`](Simulator::with_source) (the
/// `scenarios` crate provides biased, clustered, and round-robin
/// adversarial sources). The simulator applies the protocol's transition
/// function to each scheduled pair. Two execution paths share the same
/// pair stream:
///
/// * [`step`](Simulator::step) — one interaction at a time;
/// * [`run_batched`](Simulator::run_batched) — the hot path: pairs are
///   pre-sampled in blocks and applied in a tight loop. **Bit-for-bit
///   trajectory-equivalent** to scalar stepping under the same seed.
///
/// [`run_until`](Simulator::run_until) runs until a predicate on the
/// configuration holds. Every other combination of faults, saves,
/// observer polls and probes is one call of [`drive`], which fills the
/// unused slots with [`NoFaults`], [`NoSaves`], [`NoPoll`] and
/// [`NullProbe`].
///
/// ```
/// use population::{Protocol, Simulator};
///
/// struct Max;
/// impl Protocol for Max {
///     type State = u32;
///     fn n(&self) -> usize {
///         8
///     }
///     fn transition(&self, u: &mut u32, v: &mut u32) -> bool {
///         let m = (*u).max(*v);
///         let changed = *u != m || *v != m;
///         *u = m;
///         *v = m;
///         changed
///     }
/// }
///
/// let mut sim = Simulator::new(Max, (0..8).collect(), 1);
/// sim.run_batched(10_000);
/// assert!(sim.states().iter().all(|&s| s == 7));
/// ```
#[derive(Debug)]
pub struct Simulator<P: Protocol, S: PairSource = Schedule> {
    protocol: P,
    states: Vec<P::State>,
    schedule: S,
    interactions: u64,
    silence: Certificate,
}

impl<P: Protocol> Simulator<P> {
    /// Create a simulator over `initial` states whose schedule is the
    /// uniform scheduler, deterministically seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len() != protocol.n()` or the population has
    /// fewer than two agents (no pair can interact).
    pub fn new(protocol: P, initial: Vec<P::State>, seed: u64) -> Self {
        let schedule = Schedule::new(initial.len().max(2), seed);
        Self::with_source(protocol, initial, schedule)
    }
}

impl<P: Protocol, S: PairSource> Simulator<P, S> {
    /// Create a simulator over `initial` states driven by an arbitrary
    /// [`PairSource`] — the entry point for running a protocol off the
    /// uniform-scheduler assumption (see the `scenarios` crate).
    ///
    /// # Panics
    ///
    /// Panics if `initial.len() != protocol.n()`, if the population has
    /// fewer than two agents, or if `source.n()` disagrees with the
    /// population size.
    pub fn with_source(protocol: P, initial: Vec<P::State>, source: S) -> Self {
        assert_eq!(
            initial.len(),
            protocol.n(),
            "initial configuration size must match protocol.n()"
        );
        assert!(initial.len() >= 2, "population needs at least two agents");
        assert_eq!(
            source.n(),
            initial.len(),
            "pair source population size must match the configuration"
        );
        Self {
            protocol,
            states: initial,
            schedule: source,
            interactions: 0,
            silence: Certificate::default(),
        }
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Current configuration.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Number of interactions executed so far.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Execute one interaction; returns `true` iff a state changed.
    pub fn step(&mut self) -> bool {
        let (i, j) = self.schedule.next_pair();
        self.interactions += 1;
        let (u, v) = pair_mut(&mut self.states, i, j);
        self.protocol.transition(u, v)
    }

    /// Execute exactly `count` interactions through the batched hot
    /// path. Trajectory-equivalent to calling [`step`](Simulator::step)
    /// `count` times (same seed ⇒ same pairs ⇒ same configuration), but
    /// substantially faster: pairs run in blocks of [`BLOCK_PAIRS`]
    /// through [`Protocol::transition_from`], which by default
    /// pre-samples each block and hands it whole to
    /// [`Protocol::transition_block`](Protocol::transition_block). For
    /// plain protocols that is the copy-free scalar loop (split-borrow
    /// via [`pair_mut`], no per-pair clones); [`Packed`] protocols
    /// (e.g. `StableRanking`) execute the block through their in-order
    /// [`PackedProtocol`] kernel instead, which on the uniform [`Schedule`] pulls each
    /// pair as it is drawn — same trajectory bit for bit. Null
    /// interactions dirty no cache lines on either path
    /// (kernels skip the write-back of unchanged words); this is why
    /// the `changed` flag's "no false negatives" contract exists.
    pub fn run_batched(&mut self, count: u64) {
        drive(
            self,
            count,
            &mut NoFaults,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );
    }

    /// Drive the simulation under an [`Observer`]: the observer is
    /// polled once before the first step, then every `check_every`
    /// interactions and at the end of the budget, until it stops the
    /// run or `max_interactions` have been executed. This is [`drive`]
    /// with an [`Every`] poll, kept because the repository benchmark
    /// (`perfbench/`) calls it.
    ///
    /// # Panics
    ///
    /// Panics if `check_every == 0`.
    pub fn run_observed<O: Observer<P>>(
        &mut self,
        max_interactions: u64,
        check_every: u64,
        observer: &mut O,
    ) -> StopReason {
        let mut poll = Every(check_every, observer);
        drive(
            self,
            max_interactions,
            &mut NoFaults,
            &mut NoSaves,
            &mut poll,
            &mut NullProbe,
        )
    }

    /// Run until `converged` returns true (polled every `check_every`
    /// interactions, and once before the first step) or until
    /// `max_interactions` have been executed. Sugar for
    /// [`run_observed`](Simulator::run_observed) with a
    /// [`Convergence`] observer.
    ///
    /// # Panics
    ///
    /// Panics if `check_every == 0`.
    pub fn run_until(
        &mut self,
        converged: impl FnMut(&[P::State]) -> bool,
        max_interactions: u64,
        check_every: u64,
    ) -> StopReason {
        let mut observer = Convergence::new(converged);
        self.run_observed(max_interactions, check_every, &mut observer)
    }

    /// Consume the simulator, returning the final configuration.
    pub fn into_states(self) -> Vec<P::State> {
        self.states
    }

    /// The pair source driving this simulator (e.g. to capture its
    /// cursor for a checkpoint).
    pub fn source(&self) -> &S {
        &self.schedule
    }
}

impl<P: Protocol, S: CursorSource> Simulator<P, S> {
    /// Resume a simulator at a captured position: `states` and `source`
    /// come from a restored [`Frame`], `interactions` is the count at
    /// capture time. The resumed run continues the captured one
    /// **bit for bit** (the FIFO pair stream makes the trajectory
    /// independent of where the run was split).
    ///
    /// # Panics
    ///
    /// Same validity requirements as
    /// [`with_source`](Simulator::with_source).
    pub fn resume(protocol: P, states: Vec<P::State>, source: S, interactions: u64) -> Self {
        let mut sim = Self::with_source(protocol, states, source);
        sim.interactions = interactions;
        sim
    }
}

impl<P: WordState, S: CursorSource> Simulator<P, S> {
    /// Capture the run's position as a [`Frame`]: interaction count,
    /// encoded configuration words, and the scheduler cursor.
    pub fn frame(&self) -> Frame {
        Frame {
            interactions: self.interactions,
            words: self
                .states
                .iter()
                .map(|s| self.protocol.state_to_word(s))
                .collect(),
            cursors: vec![self.schedule.cursor()],
        }
    }

    /// [`drive`] with a fault hook and periodic state saves at exact
    /// interaction counts. At a count where both are due
    /// the fault fires first, so the saved frame holds the post-fault
    /// configuration and a hook already advanced past it: a resume
    /// replays nothing. Saving is trajectory-inert here, because the
    /// pair stream is FIFO (property-tested in
    /// `tests/snapshot_resume.rs`). Kept because the repository
    /// benchmark (`perfbench/`) calls it.
    pub fn run_faulted_checkpointed<H, C>(&mut self, count: u64, hook: &mut H, ckpt: &mut C)
    where
        H: FaultHook<P> + HookState,
        C: Checkpointer,
    {
        drive(self, count, hook, ckpt, &mut NoPoll, &mut NullProbe);
    }
}

/// The sequential block loop: advance `states` by `count` interactions
/// drawn from `source`, adding them to `interactions`.
///
/// Without an active probe, a configuration the protocol certifies
/// silent ([`Protocol::silent`], cached in `silence`) skips the rest of
/// `count`: the pair source jumps past it and the protocol credits the
/// null pairs. Until then the blocks run through
/// [`Protocol::transition_from`] in stretches that end where the
/// certificate is due for another try. The caller clears `silence`
/// whenever it edits `states`.
///
/// An active probe is handed a boundary after every block; the blocks
/// then run through `transition_from` with `MARK`, and each boundary
/// hands the probe the agents marked during that block (see
/// [`Probe::block`]). The first boundary of every call hands it the
/// whole configuration, since whatever edited `states` between calls
/// marked nothing.
pub fn advance_blocks<P: Protocol, S: PairSource, B: Probe<P>>(
    protocol: &P,
    states: &mut [P::State],
    source: &mut S,
    silence: &mut Certificate,
    interactions: &mut u64,
    count: u64,
    probe: &mut B,
) {
    let end = *interactions + count;
    if B::ACTIVE {
        // Every agent starts marked, so the first boundary hands over
        // the whole configuration.
        let mut marks = vec![!0u64; states.len().div_ceil(64)];
        while *interactions < end {
            let want = (end - *interactions).min(BLOCK_PAIRS as u64) as usize;
            let (pairs, changed) =
                protocol.transition_from::<true, _>(states, source, want, &mut marks);
            *interactions += pairs as u64;
            hand_marked(protocol, states, &mut marks, *interactions, changed, probe);
        }
        return;
    }
    while *interactions < end {
        let now = *interactions;
        if silence.check(now, states.len(), || protocol.silent(states)) {
            let remaining = end - now;
            source.skip(remaining);
            protocol.count_null(remaining);
            *interactions = end;
            return;
        }
        let mut remaining = (end - now).min(silence.retry_in(now, BLOCK_PAIRS as u64));
        while remaining > 0 {
            let want = remaining.min(BLOCK_PAIRS as u64) as usize;
            let (pairs, _) = protocol.transition_from::<false, _>(states, source, want, &mut []);
            *interactions += pairs as u64;
            remaining -= pairs as u64;
        }
    }
}

/// One probe boundary over the marked agents: one [`Probe::block`] per
/// run of adjacent marked agents, in ascending index order, the first
/// carrying `changed` and the rest 0; one call with an empty lane if
/// nothing is marked. Clears `marks`.
fn hand_marked<P: Protocol, B: Probe<P>>(
    protocol: &P,
    states: &[P::State],
    marks: &mut [u64],
    t: u64,
    mut changed: u64,
    probe: &mut B,
) {
    let mut emit = |start: usize, end: usize| {
        let carried = std::mem::take(&mut changed);
        probe.block(protocol, t, carried, 0, start, &states[start..end]);
    };
    // The run being extended: runs that meet at a word edge are one.
    let mut run: Option<(usize, usize)> = None;
    for (w, slot) in marks.iter_mut().enumerate() {
        // Most words are clear after one block: skip them without a
        // store, so a boundary costs a read of the marks, not a rewrite.
        if *slot == 0 {
            continue;
        }
        let mut bits = std::mem::take(slot);
        while bits != 0 {
            let low = bits.trailing_zeros() as usize;
            let ones = (!(bits >> low)).trailing_zeros() as usize;
            // Clear the lowest run of ones.
            bits &= bits.wrapping_add(bits & bits.wrapping_neg());
            // A protocol that marks every agent also marks the bits past
            // the last one.
            let (start, end) = (w * 64 + low, (w * 64 + low + ones).min(states.len()));
            run = match run {
                Some((s, e)) if e == start => Some((s, end)),
                Some((s, e)) => {
                    emit(s, e);
                    Some((start, end))
                }
                None => Some((start, end)),
            };
        }
    }
    let (s, e) = run.unwrap_or((0, 0));
    emit(s, e);
}

impl<P: Protocol, S: PairSource> Engine for Simulator<P, S> {
    type Protocol = P;

    fn protocol(&self) -> &P {
        &self.protocol
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn advance<B: Probe<P>>(&mut self, count: u64, probe: &mut B) {
        advance_blocks(
            &self.protocol,
            &mut self.states,
            &mut self.schedule,
            &mut self.silence,
            &mut self.interactions,
            count,
            probe,
        );
    }

    fn view<R>(&self, f: impl FnOnce(&[P::State]) -> R) -> R {
        f(&self.states)
    }

    fn edit(&mut self, f: impl FnOnce(&P, &mut [P::State])) {
        self.silence.clear();
        f(&self.protocol, &mut self.states);
    }
}

impl<P: WordState, S: CursorSource> Capture for Simulator<P, S> {
    fn frame(&self) -> Frame {
        Simulator::frame(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::Sampler;

    /// Counts interactions on each side; never changes "converged" flag.
    struct Count;
    impl Protocol for Count {
        type State = (u64, u64);
        fn n(&self) -> usize {
            16
        }
        fn transition(&self, u: &mut Self::State, v: &mut Self::State) -> bool {
            u.0 += 1;
            v.1 += 1;
            true
        }
    }

    #[test]
    fn same_seed_same_trajectory() {
        let mut a = Simulator::new(Count, vec![(0, 0); 16], 42);
        let mut b = Simulator::new(Count, vec![(0, 0); 16], 42);
        a.run_batched(5000);
        b.run_batched(5000);
        assert_eq!(a.states(), b.states());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Simulator::new(Count, vec![(0, 0); 16], 1);
        let mut b = Simulator::new(Count, vec![(0, 0); 16], 2);
        a.run_batched(5000);
        b.run_batched(5000);
        assert_ne!(a.states(), b.states());
    }

    #[test]
    fn batched_equals_scalar_stepping() {
        let mut scalar = Simulator::new(Count, vec![(0, 0); 16], 42);
        let mut batched = Simulator::new(Count, vec![(0, 0); 16], 42);
        for _ in 0..9999 {
            scalar.step();
        }
        batched.run_batched(9999);
        assert_eq!(scalar.states(), batched.states());
        assert_eq!(scalar.interactions(), batched.interactions());
        // And the streams stay aligned afterwards.
        scalar.step();
        batched.step();
        assert_eq!(scalar.states(), batched.states());
    }

    #[test]
    fn mixed_scalar_and_batched_execution_is_equivalent() {
        let mut pure = Simulator::new(Count, vec![(0, 0); 16], 7);
        let mut mixed = Simulator::new(Count, vec![(0, 0); 16], 7);
        pure.run_batched(10_000);
        for _ in 0..123 {
            mixed.step();
        }
        mixed.run_batched(7000);
        for _ in 0..77 {
            mixed.step();
        }
        mixed.run_batched(2800);
        assert_eq!(mixed.interactions(), 10_000);
        assert_eq!(pure.states(), mixed.states());
    }

    #[test]
    fn interaction_counter_advances() {
        let mut sim = Simulator::new(Count, vec![(0, 0); 16], 3);
        sim.run_batched(123);
        assert_eq!(sim.interactions(), 123);
        sim.step();
        assert_eq!(sim.interactions(), 124);
    }

    #[test]
    fn pair_selection_is_roughly_uniform() {
        // Every agent should be initiator and responder about equally often:
        // 60k interactions over 16 agents = 3750 expected per role per agent.
        let mut sim = Simulator::new(Count, vec![(0, 0); 16], 7);
        sim.run_batched(60_000);
        for &(ini, res) in sim.states() {
            assert!(
                (2800..4700).contains(&ini),
                "initiator count {ini} far from expectation 3750"
            );
            assert!(
                (2800..4700).contains(&res),
                "responder count {res} far from expectation 3750"
            );
        }
    }

    #[test]
    fn initiator_totals_match_interactions() {
        let mut sim = Simulator::new(Count, vec![(0, 0); 16], 9);
        sim.run_batched(1000);
        let total: u64 = sim.states().iter().map(|s| s.0).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn run_until_converges_immediately_if_predicate_holds() {
        let mut sim = Simulator::new(Count, vec![(0, 0); 16], 5);
        let stop = sim.run_until(|_| true, 1000, 10);
        assert_eq!(stop, StopReason::Converged(0));
        assert_eq!(sim.interactions(), 0);
    }

    #[test]
    fn run_until_respects_budget() {
        let mut sim = Simulator::new(Count, vec![(0, 0); 16], 5);
        let stop = sim.run_until(|_| false, 250, 100);
        assert_eq!(stop, StopReason::BudgetExhausted);
        assert_eq!(sim.interactions(), 250);
    }

    #[test]
    fn run_until_overshoot_bounded_by_check_every() {
        // Converges when total initiator count reaches 77; polling every 50
        // must report within 50 interactions of the true hitting time.
        let mut sim = Simulator::new(Count, vec![(0, 0); 16], 5);
        let stop = sim.run_until(|s| s.iter().map(|x| x.0).sum::<u64>() >= 77, 10_000, 50);
        let t = stop.converged_at().expect("must converge");
        assert!((77..77 + 50).contains(&t), "t = {t}");
    }

    #[test]
    fn sampler_observes_start_and_end() {
        let mut sim = Simulator::new(Count, vec![(0, 0); 16], 5);
        let mut samples = Vec::new();
        let mut sampler = Sampler::new(|t, _: &[(u64, u64)]| samples.push(t));
        sim.run_observed(200, 60, &mut sampler);
        assert_eq!(samples, vec![0, 60, 120, 180, 200]);
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn rejects_tiny_population() {
        struct One;
        impl Protocol for One {
            type State = ();
            fn n(&self) -> usize {
                1
            }
            fn transition(&self, _: &mut (), _: &mut ()) -> bool {
                false
            }
        }
        let _ = Simulator::new(One, vec![()], 0);
    }

    #[test]
    #[should_panic(expected = "must match protocol.n()")]
    fn rejects_mismatched_initial_configuration() {
        let _ = Simulator::new(Count, vec![(0, 0); 5], 0);
    }

    #[test]
    #[should_panic(expected = "pair source population size")]
    fn rejects_mismatched_pair_source() {
        let _ = Simulator::with_source(Count, vec![(0, 0); 16], Schedule::new(8, 0));
    }

    #[test]
    fn with_source_uniform_schedule_equals_new() {
        let mut a = Simulator::new(Count, vec![(0, 0); 16], 11);
        let mut b = Simulator::with_source(Count, vec![(0, 0); 16], Schedule::new(16, 11));
        a.run_batched(4000);
        b.run_batched(4000);
        assert_eq!(a.states(), b.states());
    }

    #[test]
    fn run_faulted_with_no_faults_equals_run_batched() {
        let mut plain = Simulator::new(Count, vec![(0, 0); 16], 9);
        let mut faulted = Simulator::new(Count, vec![(0, 0); 16], 9);
        plain.run_batched(12_345);
        drive(
            &mut faulted,
            12_345,
            &mut NoFaults,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );
        assert_eq!(plain.states(), faulted.states());
        assert_eq!(plain.interactions(), faulted.interactions());
    }

    /// A hook that zeroes every counter at a fixed list of times.
    struct ZeroAt {
        times: Vec<u64>,
        fired: Vec<u64>,
    }

    impl FaultHook<Count> for ZeroAt {
        fn next_fire(&mut self, now: u64) -> Option<u64> {
            self.times.iter().copied().find(|&t| t >= now)
        }

        fn fire(&mut self, _p: &Count, t: u64, states: &mut [(u64, u64)]) {
            states.iter_mut().for_each(|s| *s = (0, 0));
            self.fired.push(t);
            self.times.retain(|&x| x > t);
        }
    }

    #[test]
    fn faults_fire_at_exact_interaction_counts() {
        let mut sim = Simulator::new(Count, vec![(0, 0); 16], 4);
        let mut hook = ZeroAt {
            times: vec![0, 100, 250, 1000],
            fired: Vec::new(),
        };
        drive(
            &mut sim,
            1000,
            &mut hook,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );
        assert_eq!(hook.fired, vec![0, 100, 250, 1000]);
        assert_eq!(sim.interactions(), 1000);
        // The t = 1000 fault fires after the last interaction, so the
        // final configuration is all-zero.
        assert!(sim.states().iter().all(|&s| s == (0, 0)));
    }

    /// `Count` marking a scripted set of agents per block: the sets of
    /// consecutive blocks cycle through `sets`.
    struct Marking {
        sets: Vec<Vec<usize>>,
        blocks: std::cell::Cell<usize>,
    }

    impl Protocol for Marking {
        type State = (u64, u64);
        fn n(&self) -> usize {
            130
        }
        fn transition(&self, u: &mut Self::State, v: &mut Self::State) -> bool {
            Count.transition(u, v)
        }
        fn transition_from<const MARK: bool, S: PairSource>(
            &self,
            states: &mut [Self::State],
            source: &mut S,
            max: usize,
            marks: &mut [u64],
        ) -> (usize, u64) {
            if MARK {
                let k = self.blocks.replace(self.blocks.get() + 1);
                for &i in &self.sets[k % self.sets.len()] {
                    marks[i / 64] |= 1 << (i % 64);
                }
            }
            Count.transition_from::<false, _>(states, source, max, marks)
        }
    }

    /// Logs every block call as `(t, changed, start, lane length)`.
    #[derive(Default)]
    struct Lanes(Vec<(u64, u64, usize, usize)>);

    impl<P: Protocol> Probe<P> for Lanes {
        fn block(
            &mut self,
            _: &P,
            t: u64,
            changed: u64,
            _: usize,
            start: usize,
            lane: &[P::State],
        ) {
            self.0.push((t, changed, start, lane.len()));
        }
    }

    #[test]
    fn a_probe_sees_the_whole_configuration_first_then_the_marked_runs() {
        let b = BLOCK_PAIRS as u64;
        let protocol = Marking {
            sets: vec![
                vec![],
                vec![],
                vec![0, 2, 1],
                vec![],
                vec![3, 63, 64, 65, 127, 128, 129],
            ],
            blocks: Default::default(),
        };
        let mut sim = Simulator::new(protocol, vec![(0, 0); 130], 1);
        let mut lanes = Lanes::default();
        // Blocks 0–2, then blocks 3–4 in a second segment.
        drive(
            &mut sim,
            3 * b,
            &mut NoFaults,
            &mut NoSaves,
            &mut NoPoll,
            &mut lanes,
        );
        drive(
            &mut sim,
            b + 10,
            &mut NoFaults,
            &mut NoSaves,
            &mut NoPoll,
            &mut lanes,
        );
        assert_eq!(
            lanes.0,
            [
                // The first boundary of a segment: everyone.
                (b, b, 0, 130),
                // Block 1 marks nobody: one empty call.
                (2 * b, b, 0, 0),
                // Block 2 marks agents 0–2: one run.
                (3 * b, b, 0, 3),
                // A new segment starts with everyone again.
                (4 * b, b, 0, 130),
                // Block 4 (10 pairs): runs merge across word edges,
                // and the boundary's count rides on its first call.
                (4 * b + 10, 10, 3, 1),
                (4 * b + 10, 0, 63, 3),
                (4 * b + 10, 0, 127, 3),
            ]
        );
    }

    #[test]
    fn fault_state_mutation_does_not_perturb_the_pair_stream() {
        // Interaction counting restarts after the mid-run zeroing fault;
        // totals over the remaining 600 interactions must still add up,
        // and the pairs chosen must match the unfaulted run's stream.
        let mut sim = Simulator::new(Count, vec![(0, 0); 16], 4);
        let mut hook = ZeroAt {
            times: vec![400],
            fired: Vec::new(),
        };
        drive(
            &mut sim,
            1000,
            &mut hook,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );
        let total: u64 = sim.states().iter().map(|s| s.0).sum();
        assert_eq!(total, 600);
    }
}
