//! The sharded API over the sequential engine.

use population::schedule::BLOCK_PAIRS;
use population::{
    drive, Capture, Checkpointer, Engine, Every, FaultHook, Frame, HookState, NoFaults, NoPoll,
    NoSaves, NullProbe, Observer, Probe, Protocol, Simulator, StopReason, WordState,
};

/// The sharded simulator's API over one [`Simulator`]: for every shard
/// and worker count, a run is the sequential engine's run for the same
/// protocol, initial configuration and seed, bit for bit.
///
/// # Execution model
///
/// Every interaction runs through the sequential engine's block loop
/// ([`population::advance_blocks`]) on the calling thread: one uniform
/// [`Schedule`](population::Schedule) stream, the protocol's block kernel,
/// and the exact silent fast-forward. Checkpoints, faults, observers and
/// probes compose through the run driver exactly as on [`Simulator`],
/// and saving is trajectory-inert.
///
/// `shards` sets one thing: an active probe sees one
/// [`Probe::block`] per `shards ×`[`BLOCK_PAIRS`] pairs (and one at the
/// end of every run segment), with shard index 0, start 0 and the whole
/// configuration as its lane, and `changed` summed over those pairs. A
/// recorder that scans the configuration per block call therefore scans
/// as often as it did on the lanes of the retired sharded trajectory.
///
/// `workers` defaults to the machine's parallelism capped at the shard
/// count ([`population::runner::available_workers`], overridable with
/// `SSR_WORKERS`) and is reported by [`workers`](Self::workers). Nothing
/// runs on more than one thread today: the consumer this count waits
/// for is an executor that runs each block's independent pairs on
/// several workers and keeps the sequential trajectory (ROADMAP,
/// "Hardware-gated: parallelism within one run").
#[derive(Debug)]
pub struct ShardedSimulator<P: Protocol> {
    sim: Simulator<P>,
    shards: usize,
    workers: usize,
}

impl<P: Protocol> ShardedSimulator<P> {
    /// The sharded API over `Simulator::new(protocol, initial, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len() != protocol.n()`, the population has
    /// fewer than two agents, or `shards` is not in `1..=n`.
    pub fn new(protocol: P, initial: Vec<P::State>, seed: u64, shards: usize) -> Self {
        Self::wrap(Simulator::new(protocol, initial, seed), shards)
    }

    /// The sharded API over an existing simulator, e.g. one resumed from
    /// a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is not in `1..=n`.
    pub fn wrap(sim: Simulator<P>, shards: usize) -> Self {
        assert!(
            (1..=sim.states().len()).contains(&shards),
            "shard count must be within 1..=n"
        );
        Self {
            sim,
            shards,
            workers: population::runner::available_workers().get().min(shards),
        }
    }

    /// Pin the number of worker threads (clamped to the shard count).
    /// The trajectory never depends on it.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "at least one worker is required");
        self.workers = workers;
        self
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> &P {
        self.sim.protocol()
    }

    /// Number of interactions executed so far.
    pub fn interactions(&self) -> u64 {
        self.sim.interactions()
    }

    /// The worker count (after clamping to the shard count).
    pub fn workers(&self) -> usize {
        self.workers.min(self.shards)
    }

    /// The full configuration, in agent-index order.
    pub fn states(&self) -> &[P::State] {
        self.sim.states()
    }

    /// Consume the wrapper, returning the final configuration.
    pub fn into_states(self) -> Vec<P::State> {
        self.sim.into_states()
    }

    /// Execute exactly `count` interactions.
    pub fn run(&mut self, count: u64) {
        self.run_probed(count, &mut NullProbe);
    }

    /// Drive the run under a whole-configuration [`Observer`]: polled
    /// once up front, then every `check_every` interactions and at the
    /// end of the budget, until it stops the run.
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

    /// Run until `converged` holds over the configuration (polled every
    /// `check_every` interactions) or the budget is exhausted.
    pub fn run_until(
        &mut self,
        converged: impl FnMut(&[P::State]) -> bool,
        max_interactions: u64,
        check_every: u64,
    ) -> StopReason {
        let mut observer = population::observe::Convergence::new(converged);
        self.run_observed(max_interactions, check_every, &mut observer)
    }

    /// Execute exactly `count` interactions, handing the configuration
    /// to `hook` at every interaction count where it asks to fire.
    pub fn run_faulted<H: FaultHook<P>>(&mut self, count: u64, hook: &mut H) {
        self.run_faulted_probed(count, hook, &mut NullProbe);
    }

    /// Execute exactly `count` interactions while reporting blocks to
    /// `probe` at the sharded cadence (see the type-level docs).
    pub fn run_probed<B: Probe<P>>(&mut self, count: u64, probe: &mut B) {
        self.run_faulted_probed(count, &mut NoFaults, probe);
    }

    /// [`run_faulted`](Self::run_faulted) with a probe seam:
    /// [`Probe::fault`] fires after every firing with the post-fault
    /// configuration.
    pub fn run_faulted_probed<H: FaultHook<P>, B: Probe<P>>(
        &mut self,
        count: u64,
        hook: &mut H,
        probe: &mut B,
    ) {
        drive(self, count, hook, &mut NoSaves, &mut NoPoll, probe);
    }
}

/// Forwards one [`Probe::block`] per `every` executed pairs, and one at
/// `end`, with the `changed` counts summed over the pairs it covers.
struct Coarse<'a, B> {
    inner: &'a mut B,
    every: u64,
    end: u64,
    /// The interaction count of the last forwarded block.
    last: u64,
    changed: u64,
}

impl<P: Protocol, B: Probe<P>> Probe<P> for Coarse<'_, B> {
    fn block(
        &mut self,
        protocol: &P,
        t: u64,
        changed: u64,
        _shard: usize,
        _start: usize,
        states: &[P::State],
    ) {
        self.changed += changed;
        if t - self.last >= self.every || t == self.end {
            let changed = std::mem::take(&mut self.changed);
            self.inner.block(protocol, t, changed, 0, 0, states);
            self.last = t;
        }
    }
}

impl<P: Protocol> Engine for ShardedSimulator<P> {
    type Protocol = P;

    fn protocol(&self) -> &P {
        self.sim.protocol()
    }

    fn interactions(&self) -> u64 {
        self.sim.interactions()
    }

    /// The sequential engine's advance. An active probe is handed one
    /// block per `shards` schedule blocks; the unprobed path is
    /// [`Simulator`]'s own.
    fn advance<B: Probe<P>>(&mut self, count: u64, probe: &mut B) {
        if !B::ACTIVE {
            return self.sim.advance(count, probe);
        }
        let now = self.sim.interactions();
        let mut coarse = Coarse {
            inner: probe,
            every: (self.shards * BLOCK_PAIRS) as u64,
            end: now + count,
            last: now,
            changed: 0,
        };
        self.sim.advance(count, &mut coarse);
    }

    fn view<R>(&self, f: impl FnOnce(&[P::State]) -> R) -> R {
        self.sim.view(f)
    }

    fn edit(&mut self, f: impl FnOnce(&P, &mut [P::State])) {
        self.sim.edit(f);
    }
}

impl<P: WordState> ShardedSimulator<P> {
    /// Capture the run's position: the sequential engine's [`Frame`],
    /// with its one scheduler cursor.
    pub fn frame(&self) -> Frame {
        self.sim.frame()
    }

    /// [`run_faulted`](Self::run_faulted) with saves through `ckpt` at
    /// every interaction count where it asks for one. At equal times the
    /// fault fires first, so a frame saved at `t` reflects the
    /// post-fault configuration. Saving is trajectory-inert.
    pub fn run_faulted_checkpointed<H, C>(&mut self, count: u64, hook: &mut H, ckpt: &mut C)
    where
        H: FaultHook<P> + HookState,
        C: Checkpointer,
    {
        drive(self, count, hook, ckpt, &mut NoPoll, &mut NullProbe);
    }
}

impl<P: WordState> Capture for ShardedSimulator<P> {
    fn frame(&self) -> Frame {
        self.sim.frame()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts interactions on each side.
    struct Count(usize);
    impl Protocol for Count {
        type State = (u64, u64);
        fn n(&self) -> usize {
            self.0
        }
        fn transition(&self, u: &mut Self::State, v: &mut Self::State) -> bool {
            u.0 += 1;
            v.1 += 1;
            true
        }
    }

    fn init(n: usize) -> Vec<(u64, u64)> {
        vec![(0, 0); n]
    }

    #[test]
    fn every_shard_and_worker_count_is_the_sequential_run() {
        let mut reference = Simulator::new(Count(16), init(16), 42);
        reference.run(12_345);
        for shards in [1, 2, 3, 16] {
            for workers in [1, 2, 8] {
                let mut sim =
                    ShardedSimulator::new(Count(16), init(16), 42, shards).with_workers(workers);
                sim.run(12_345);
                assert_eq!(sim.states(), reference.states(), "shards={shards}");
                assert_eq!(sim.interactions(), 12_345);
                assert_eq!(sim.workers(), workers.min(shards));
            }
        }
    }

    /// Tallies block calls and their `changed` counts.
    #[derive(Default)]
    struct Tally {
        blocks: Vec<u64>,
        changed: u64,
    }

    impl Probe<Count> for Tally {
        fn block(
            &mut self,
            _p: &Count,
            t: u64,
            changed: u64,
            shard: usize,
            start: usize,
            lane: &[(u64, u64)],
        ) {
            assert_eq!((shard, start, lane.len()), (0, 0, 20));
            self.blocks.push(t);
            self.changed += changed;
        }
    }

    #[test]
    fn a_probe_sees_one_block_per_shards_schedule_blocks() {
        let block = BLOCK_PAIRS as u64;
        for shards in [1, 3] {
            let mut plain = Simulator::new(Count(20), init(20), 13);
            plain.run(25_000);
            let mut probed = ShardedSimulator::new(Count(20), init(20), 13, shards);
            let mut tally = Tally::default();
            // Two segments: the cadence restarts at the second one.
            probed.run_probed(20_000, &mut tally);
            probed.run_probed(5_000, &mut tally);
            assert_eq!(probed.states(), plain.states(), "shards={shards}");
            let every = shards as u64 * block;
            let mut want: Vec<u64> = (1..=20_000 / every).map(|k| k * every).collect();
            want.push(20_000);
            want.extend((1..=5_000 / every).map(|k| 20_000 + k * every));
            want.push(25_000);
            want.dedup();
            assert_eq!(tally.blocks, want, "shards={shards}");
            // Count's transition always changes a state.
            assert_eq!(tally.changed, 25_000);
        }
    }

    #[test]
    #[should_panic(expected = "shard count must be within")]
    fn rejects_zero_shards() {
        let _ = ShardedSimulator::new(Count(8), init(8), 0, 0);
    }

    #[test]
    #[should_panic(expected = "shard count must be within")]
    fn rejects_more_shards_than_agents() {
        let _ = ShardedSimulator::new(Count(8), init(8), 0, 9);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_workers() {
        let _ = ShardedSimulator::new(Count(8), init(8), 0, 2).with_workers(0);
    }
}
