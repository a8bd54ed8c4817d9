//! The sharded API over the sequential engine.

use population::{
    drive, Capture, Engine, FaultHook, Frame, NoPoll, NoSaves, Probe, Protocol, Simulator,
    WordState,
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
/// An active probe gets what it gets on [`Simulator`]: one boundary
/// after every schedule block, showing what [`Probe::block`] promises.
/// `shards` changes nothing in a run. It is validated by the
/// constructor and bounds [`workers`](Self::workers), and nothing else.
///
/// `workers` defaults to the machine's parallelism capped at the shard
/// count ([`population::runner::available_workers`], overridable with
/// `SSR_WORKERS`) and is reported by [`workers`](Self::workers). Nothing
/// runs on more than one thread today: the consumer this count waits
/// for is an executor that runs each block's independent pairs on
/// several workers and keeps the sequential trajectory (ROADMAP A, the
/// parked level-0 executor).
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
        let sim = Simulator::new(protocol, initial, seed);
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

    /// Execute exactly `count` interactions, handing the configuration
    /// to `hook` at every interaction count where it asks to fire and
    /// reporting every schedule block to `probe`. [`Probe::fault`] fires
    /// after every firing with the post-fault configuration.
    pub fn run_faulted_probed<H: FaultHook<P>, B: Probe<P>>(
        &mut self,
        count: u64,
        hook: &mut H,
        probe: &mut B,
    ) {
        drive(self, count, hook, &mut NoSaves, &mut NoPoll, probe);
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

    fn advance<B: Probe<P>>(&mut self, count: u64, probe: &mut B) {
        self.sim.advance(count, probe);
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
}

impl<P: WordState> Capture for ShardedSimulator<P> {
    fn frame(&self) -> Frame {
        self.sim.frame()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::schedule::BLOCK_PAIRS;
    use population::{NoFaults, NullProbe};

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
        reference.run_batched(12_345);
        for shards in [1, 2, 3, 16] {
            for workers in [1, 2, 8] {
                let mut sim =
                    ShardedSimulator::new(Count(16), init(16), 42, shards).with_workers(workers);
                sim.run_faulted_probed(12_345, &mut NoFaults, &mut NullProbe);
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
    fn a_probe_sees_one_block_per_schedule_block_at_any_shard_count() {
        let block = BLOCK_PAIRS as u64;
        for shards in [1, 3] {
            let mut plain = Simulator::new(Count(20), init(20), 13);
            plain.run_batched(25_000);
            let mut probed = ShardedSimulator::new(Count(20), init(20), 13, shards);
            let mut tally = Tally::default();
            // Two segments: the blocks restart at the second one.
            probed.run_faulted_probed(20_000, &mut NoFaults, &mut tally);
            probed.run_faulted_probed(5_000, &mut NoFaults, &mut tally);
            assert_eq!(probed.states(), plain.states(), "shards={shards}");
            let mut want: Vec<u64> = (1..=20_000 / block).map(|k| k * block).collect();
            want.push(20_000);
            want.extend((1..=5_000 / block).map(|k| 20_000 + k * block));
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
