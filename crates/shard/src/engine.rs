//! The sharded single-run simulator.

use std::sync::{Barrier, Mutex};

use population::observe::Convergence;
use population::schedule::{Pair, ScheduleCursor, BLOCK_PAIRS};
use population::silence::Certificate;
use population::{
    drive, Capture, Checkpointer, CursorSource, Engine, Every, FaultHook, Frame, HookState,
    NoFaults, NoPoll, NoSaves, NullProbe, Observer, PairSource, Probe, Protocol, Schedule,
    StopReason, WordState,
};

use crate::partition::{bounds, rounds, split, OwnerMap};

/// One shard's bookkeeping: where its lane lies in the configuration,
/// the shard's private pair stream and its outgoing boundary-pair
/// buffers.
#[derive(Debug)]
struct Slot {
    /// Global index of the first agent in this lane.
    start: usize,
    /// Number of agents in this lane.
    len: usize,
    /// The shard's lane of the uniform scheduler.
    sched: Schedule,
    /// Boundary pairs drawn this block, bucketed by the responder's
    /// shard; drained (in draw order) by the exchange phase.
    outbox: Vec<Vec<Pair>>,
    /// Routing scratch (see [`intra_phase`]): a sampled sub-block's
    /// pairs rebased to the lane, whose prefix holds its lane-local
    /// pairs in draw order for one [`Protocol::transition_block`] call,
    /// so a packed protocol's block kernel runs on the shard hot path
    /// too. Grown on first use and reused across blocks.
    local: Vec<Pair>,
    /// Routing scratch like `local`, in global indices, whose prefix
    /// holds the sub-block's boundary pairs until they are bucketed
    /// into `outbox`.
    boundary: Vec<Pair>,
}

/// A shard's lane for the length of one run call: its slice of the
/// configuration (`states[i - slot.start]` is agent `i`) next to its
/// slot.
struct Lane<'a, S> {
    states: &'a mut [S],
    slot: &'a mut Slot,
}

/// Cut the configuration into the slots' lanes, in shard order, each
/// behind a lock that lives as long as the run call.
fn lanes<'a, S>(states: &'a mut [S], slots: &'a mut [Slot]) -> Vec<Mutex<Lane<'a, S>>> {
    let mut rest = states;
    slots
        .iter_mut()
        .map(|slot| {
            let (states, tail) = std::mem::take(&mut rest).split_at_mut(slot.len);
            rest = tail;
            Mutex::new(Lane { states, slot })
        })
        .collect()
}

/// A multi-threaded, deterministic executor for a single run of a
/// [`Protocol`], partitioning the configuration into per-shard lanes.
///
/// # Execution model
///
/// Agents `0..n` are split into `shards` contiguous, balanced lanes.
/// Each shard owns its lane plus a private [`Schedule::lane`] — a
/// stream of the uniform scheduler whose initiators lie in the lane and
/// whose responders span the whole population
/// ([`split`](crate::partition::split) derives the per-shard seeds from
/// the run seed). Time advances in **blocks**; each block distributes
/// its interaction budget evenly over the shards and runs two phases:
///
/// 1. **Intra phase** — every shard draws its quota of pairs from its
///    sub-stream. Pairs whose responder is local execute immediately,
///    in draw order, lock-free on the owning worker (lanes are
///    disjoint, so no other thread can touch either word). Pairs whose
///    responder lives in another lane are *boundary pairs*: they are
///    deferred into a per-peer outbox.
/// 2. **Exchange phase** — boundary pairs execute in a fixed
///    round-robin tournament over shard pairs
///    ([`rounds`](crate::partition::rounds)): each round is a set of
///    disjoint shard pairs, each match executed by one worker holding
///    *both* lanes, applying first `a`'s deferred pairs to `b` and then
///    `b`'s to `a`, each in draw order. Interactions therefore remain
///    atomic pairwise state updates — population-protocol semantics are
///    preserved; only the interleaving differs from a sequential run.
///
/// # Determinism
///
/// The trajectory is a pure function of `(seed, shards)` plus the block
/// structure (the configured [`block_pairs`](Self::with_block_pairs)
/// and the sequence of `run*` calls, which may split blocks at
/// checkpoint and fault boundaries). It does **not** depend on the
/// number of worker threads: every worker runs the same block loop,
/// and workers only decide *who* executes a phase, never *what* or *in
/// which order within a lane* — phases are separated by barriers and
/// touch disjoint lanes, so `workers = 1` (the loop on the calling
/// thread) and any `workers > 1` produce bit-for-bit identical
/// trajectories. Two identical calls are always identical.
///
/// # Equivalence at `shards = 1`
///
/// With a single shard every pair is intra-shard and the lone lane
/// *is* the uniform [`Schedule`] (same seed, bit-identical stream), so
/// a 1-shard run is **bit-for-bit
/// trajectory-equivalent** to
/// [`Simulator::run_batched`](population::Simulator::run_batched) —
/// property-tested in `tests/shard_equivalence.rs`. Sharded runs with
/// `shards > 1` follow a different (equally valid) trajectory of the
/// same balanced-uniform scheduler family.
///
/// # Observation and faults
///
/// The configuration is one vector in agent-index order. A run call
/// cuts it into the lanes' slices and the cut ends with the call, so
/// between calls [`states`](Self::states), observers, fault hooks and
/// checkpoints read or write it in place.
/// [`run_faulted`](Self::run_faulted) splits blocks at exact fault
/// interaction counts, exactly like the sequential engine, so
/// `scenarios` fault plans drive sharded runs unchanged.
#[derive(Debug)]
pub struct ShardedSimulator<P: Protocol> {
    protocol: P,
    states: Vec<P::State>,
    slots: Vec<Slot>,
    rounds: Vec<Vec<(usize, usize)>>,
    owners: OwnerMap,
    workers: usize,
    block_pairs: usize,
    interactions: u64,
    silence: Certificate,
}

/// Blocks an uncertified run executes at least between two tries of the
/// silence certificate: a run with more than one worker starts its
/// threads once per stretch, which costs far more than the
/// certificate's `O(n)` test.
const RETRY_BLOCKS: u64 = 64;

/// The share of a block's `total` interactions executed by shard `s`:
/// an even split, with `total mod shards` shards taking one extra —
/// starting from shard `rot` and wrapping, so the remainder *rotates*
/// across blocks instead of always favoring the lowest-indexed shards.
/// Without the rotation, repeated small bursts (e.g. `check_every <
/// shards`) would hand every leftover interaction to shard 0 and starve
/// the high shards' lanes entirely. `rot` is derived from the
/// interaction count at the block's start, so it is identical for every
/// worker count (determinism) and cycles through all shards under any
/// fixed burst size not divisible by the shard count.
#[inline]
fn quota(total: u64, shards: usize, s: usize, rot: usize) -> u64 {
    let idx = (s + shards - rot) % shards;
    total / shards as u64 + u64::from((idx as u64) < total % shards as u64)
}

/// Intra phase for one shard: draw `quota` pairs from the shard's lane
/// of the scheduler in sub-blocks of at most [`BLOCK_PAIRS`] and route
/// each sub-block without a data-dependent branch. Every pair is written to
/// both scratch buffers — rebased to the lane in `local`, in global
/// indices in `boundary` — and exactly one of the two cursors advances,
/// by the integer test "responder in this lane". (At 2 shards that test
/// is a coin flip, and a branch on it mispredicts half the time.) The
/// boundary prefix is then bucketed into the outbox by responder shard,
/// in draw order, and the local prefix executes in draw order with one
/// [`Protocol::transition_block`] call, which dispatches to a packed
/// protocol's block kernel. Only this shard's lane is read or written,
/// and deferring a boundary pair executes nothing, so the trajectory is
/// that of executing the local pairs one at a time as drawn. Returns the
/// number of lane-local interactions that changed at least one state
/// (fed to [`Probe::block`] on a probed run).
fn intra_phase<P: Protocol>(
    protocol: &P,
    owners: &OwnerMap,
    lane: &Mutex<Lane<'_, P::State>>,
    quota: u64,
) -> u64 {
    let mut guard = lane.lock().expect("shard lane poisoned");
    let Lane { states, slot } = &mut *guard;
    let Slot {
        start,
        len,
        sched,
        outbox,
        local,
        boundary,
    } = &mut **slot;
    let (start, len) = (*start, *len);
    let mut remaining = quota;
    let mut changed = 0;
    while remaining > 0 {
        let want = remaining.min(BLOCK_PAIRS as u64) as usize;
        if local.len() < want {
            local.resize(want, (0, 0));
            boundary.resize(want, (0, 0));
        }
        let block = sched.sample_block(want);
        let (mut nl, mut nb) = (0, 0);
        for &(i, j) in block {
            let lj = (j as usize).wrapping_sub(start);
            let inside = usize::from(lj < len);
            local[nl] = ((i as usize - start) as u32, lj as u32);
            boundary[nb] = (i, j);
            nl += inside;
            nb += 1 - inside;
        }
        for &(i, j) in &boundary[..nb] {
            outbox[owners.owner(j)].push((i, j));
        }
        changed += protocol.transition_block(states, &local[..nl]);
        remaining -= block.len() as u64;
    }
    changed
}

/// One exchange match: with both lanes held, apply shard `a`'s deferred
/// pairs into `b`, then `b`'s into `a`, each in draw order.
fn exchange<P: Protocol>(
    protocol: &P,
    lane_a: &Mutex<Lane<'_, P::State>>,
    lane_b: &Mutex<Lane<'_, P::State>>,
    a: usize,
    b: usize,
) {
    debug_assert!(a < b, "matches are normalized to (low, high)");
    let mut ga = lane_a.lock().expect("shard lane poisoned");
    let mut gb = lane_b.lock().expect("shard lane poisoned");
    let (la, lb) = (&mut *ga, &mut *gb);
    let (a_start, b_start) = (la.slot.start, lb.slot.start);
    // The two lanes are disjoint slices of the configuration, so both
    // sides mutate in place.
    for &(i, j) in &la.slot.outbox[b] {
        let (li, lj) = (i as usize - a_start, j as usize - b_start);
        protocol.transition(&mut la.states[li], &mut lb.states[lj]);
    }
    la.slot.outbox[b].clear();
    for &(i, j) in &lb.slot.outbox[a] {
        let (li, lj) = (i as usize - b_start, j as usize - a_start);
        protocol.transition(&mut lb.states[li], &mut la.states[lj]);
    }
    lb.slot.outbox[a].clear();
}

/// One run call's blocks, shared by every worker.
struct Blocks<'a, P: Protocol> {
    protocol: &'a P,
    owners: &'a OwnerMap,
    rounds: &'a [Vec<(usize, usize)>],
    lanes: Vec<Mutex<Lane<'a, P::State>>>,
    barrier: Barrier,
    workers: usize,
    /// Interaction count at the first block's start.
    base: u64,
    count: u64,
    /// Interactions per full block.
    cap: u64,
}

impl<P: Protocol> Blocks<'_, P> {
    /// Worker `w`'s part of every block: the intra phases of shards
    /// `w, w + workers, …`, then in each exchange round its matches
    /// `w, w + workers, …`, with a barrier after each phase. Within a
    /// phase every worker touches only lanes it exclusively owns, so the
    /// trajectory does not depend on the worker count. An active probe
    /// (one worker) sees each lane after the block's exchange rounds,
    /// then the block's boundary-pair count.
    fn work<B: Probe<P>>(&self, w: usize, probe: &mut B) {
        let shards = self.lanes.len();
        let mut changed = vec![0u64; if B::ACTIVE { shards } else { 0 }];
        for k in 0..self.count.div_ceil(self.cap) {
            let total = self.cap.min(self.count - k * self.cap);
            let rot = ((self.base + k * self.cap) % shards as u64) as usize;
            for s in (w..shards).step_by(self.workers) {
                let lane_changed = intra_phase(
                    self.protocol,
                    self.owners,
                    &self.lanes[s],
                    quota(total, shards, s, rot),
                );
                if B::ACTIVE {
                    changed[s] = lane_changed;
                }
            }
            self.barrier.wait();
            let boundary: u64 = if B::ACTIVE {
                self.lanes
                    .iter()
                    .map(|lane| {
                        let guard = lane.lock().expect("shard lane poisoned");
                        let outbox = &guard.slot.outbox;
                        outbox.iter().map(|o| o.len() as u64).sum::<u64>()
                    })
                    .sum()
            } else {
                0
            };
            for round in self.rounds {
                for &(a, b) in round.iter().skip(w).step_by(self.workers) {
                    exchange(self.protocol, &self.lanes[a], &self.lanes[b], a, b);
                }
                self.barrier.wait();
            }
            if B::ACTIVE {
                let t = self.base + k * self.cap + total;
                for (s, lane) in self.lanes.iter().enumerate() {
                    let guard = lane.lock().expect("shard lane poisoned");
                    probe.block(
                        self.protocol,
                        t,
                        changed[s],
                        s,
                        guard.slot.start,
                        guard.states,
                    );
                }
                probe.exchange(self.protocol, t, boundary);
            }
        }
    }
}

impl<P: Protocol> ShardedSimulator<P> {
    /// Create a sharded simulator over `initial` states, partitioned
    /// into `shards` lanes, with the uniform scheduler split into
    /// per-shard lanes derived from `seed`: a [`resume`](Self::resume)
    /// from the cursors of [`split`](crate::partition::split) at
    /// interaction 0.
    ///
    /// Workers default to the machine's parallelism capped at the shard
    /// count ([`population::runner::available_workers`], overridable
    /// with `SSR_WORKERS`); see [`with_workers`](Self::with_workers).
    ///
    /// # Panics
    ///
    /// Panics if `initial.len() != protocol.n()`, the population has
    /// fewer than two agents or exceeds `u32::MAX`, or `shards` is not
    /// in `1..=n`.
    pub fn new(protocol: P, initial: Vec<P::State>, seed: u64, shards: usize) -> Self {
        let cursors = split(initial.len(), seed, shards)
            .iter()
            .map(CursorSource::cursor)
            .collect();
        Self::resume(protocol, initial, cursors, 0)
    }

    /// Pin the number of worker threads (clamped to the shard count at
    /// run time; `1` runs the blocks on the calling thread).
    /// The trajectory never depends on this.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "at least one worker is required");
        self.workers = workers;
        self
    }

    /// Override the per-shard block size (pairs drawn by each shard per
    /// block). Part of the determinism contract: changing it changes
    /// the `shards > 1` trajectory (block boundaries move), so two runs
    /// compare bit-for-bit only under the same block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_pairs == 0`.
    pub fn with_block_pairs(mut self, block_pairs: usize) -> Self {
        assert!(block_pairs >= 1, "blocks must hold at least one pair");
        self.block_pairs = block_pairs;
        self
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Number of interactions executed so far.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Number of lanes the population is partitioned into.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// Number of worker threads phases fan out over (after clamping).
    pub fn workers(&self) -> usize {
        self.workers.min(self.shards()).max(1)
    }

    /// The full configuration, in agent-index order.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Per-shard scheduler cursors, in shard order — together with
    /// [`states`](Self::states) and the interaction count, the complete
    /// trajectory-determining position of a sharded run (see
    /// [`resume`](Self::resume)).
    pub fn cursors(&self) -> Vec<ScheduleCursor> {
        self.slots.iter().map(|slot| slot.sched.cursor()).collect()
    }

    /// Rebuild a sharded simulator at a captured position: `initial` is
    /// the configuration in agent-index order, `cursors` the per-shard
    /// scheduler cursors (their count *is* the shard count),
    /// `interactions` the interaction count at capture. The resumed run
    /// continues the captured run's trajectory bit for bit **under the
    /// same block structure** — restore the captured
    /// [`block_pairs`](Self::with_block_pairs) and issue the same burst
    /// sequence (worker count remains free; it never affects the
    /// trajectory).
    ///
    /// # Panics
    ///
    /// Panics if the configuration size is illegal, `cursors` is empty,
    /// or any cursor's `(n, start, len)` disagrees with the balanced
    /// partition of `n` agents into `cursors.len()` lanes — a cursor set
    /// from a different population or shard count never silently
    /// resumes.
    pub fn resume(
        protocol: P,
        initial: Vec<P::State>,
        cursors: Vec<ScheduleCursor>,
        interactions: u64,
    ) -> Self {
        let n = initial.len();
        assert_eq!(
            n,
            protocol.n(),
            "initial configuration size must match protocol.n()"
        );
        assert!(n >= 2, "population needs at least two agents");
        assert!(u32::try_from(n).is_ok(), "population size exceeds u32");
        let shards = cursors.len();
        assert!(
            (1..=n).contains(&shards),
            "shard count must be within 1..=n"
        );
        let slots = cursors
            .into_iter()
            .enumerate()
            .map(|(s, cursor)| {
                let (start, end) = bounds(n, shards, s);
                assert!(
                    cursor.n == n as u64
                        && cursor.start == start as u64
                        && cursor.len == (end - start) as u64,
                    "cursor {s} covers {}..{} of n = {} — expected lane {start}..{end} of n = {n}",
                    cursor.start,
                    cursor.start + cursor.len,
                    cursor.n,
                );
                Slot {
                    start,
                    len: end - start,
                    sched: Schedule::from_cursor(cursor),
                    outbox: vec![Vec::new(); shards],
                    local: Vec::new(),
                    boundary: Vec::new(),
                }
            })
            .collect();
        Self {
            protocol,
            states: initial,
            slots,
            rounds: rounds(shards),
            owners: OwnerMap::new(n, shards),
            workers: population::runner::available_workers().get().min(shards),
            block_pairs: BLOCK_PAIRS,
            interactions,
            silence: Certificate::default(),
        }
    }

    /// Consume the simulator, returning the final configuration.
    pub fn into_states(self) -> Vec<P::State> {
        self.states
    }
}

impl<P: Protocol + Sync> ShardedSimulator<P>
where
    P::State: Send,
{
    /// Execute exactly `count` interactions through the sharded block
    /// loop (see the type-level docs for the execution model).
    pub fn run(&mut self, count: u64) {
        self.run_probed(count, &mut NullProbe);
    }

    /// Execute exactly `count` interactions: every worker runs
    /// [`Blocks::work`], the first on the calling thread. An active
    /// probe runs one worker.
    fn execute<B: Probe<P>>(&mut self, count: u64, probe: &mut B) {
        let workers = if B::ACTIVE { 1 } else { self.workers() };
        let cap = (self.slots.len() * self.block_pairs) as u64;
        let blocks = Blocks {
            protocol: &self.protocol,
            owners: &self.owners,
            rounds: &self.rounds,
            lanes: lanes(&mut self.states, &mut self.slots),
            barrier: Barrier::new(workers),
            workers,
            base: self.interactions,
            count,
            cap,
        };
        std::thread::scope(|scope| {
            for w in 1..workers {
                let blocks = &blocks;
                scope.spawn(move || blocks.work(w, &mut NullProbe));
            }
            blocks.work(0, probe);
        });
        self.interactions += count;
    }

    /// Whether the protocol certifies the configuration silent
    /// ([`Certificate::check`]).
    fn certified(&mut self) -> bool {
        let (now, n) = (self.interactions, self.states.len());
        self.silence
            .check(now, n, || self.protocol.silent(&self.states))
    }

    /// Skip `count` interactions of a certified-silent configuration:
    /// each shard's pair stream advances by the pairs its quotas would
    /// draw over the same blocks (full blocks × `block_pairs`, plus its
    /// quota of the last block), so the run continues exactly as if the
    /// null pairs had executed. The protocol is credited with the pairs
    /// that would have reached [`Protocol::transition_block`]: all of
    /// them with one shard, only the lane-local ones with more — which
    /// takes every draw, so multi-shard streams step rather than jump.
    fn skip_silent(&mut self, count: u64) {
        let shards = self.slots.len();
        let cap = (shards * self.block_pairs) as u64;
        let (full, last) = (count / cap, count % cap);
        let rot = ((self.interactions + full * cap) % shards as u64) as usize;
        for (s, slot) in self.slots.iter_mut().enumerate() {
            let pairs = full * self.block_pairs as u64 + quota(last, shards, s, rot);
            let local = if shards == 1 {
                slot.sched.skip(pairs);
                pairs
            } else {
                slot.sched.skip_local(pairs)
            };
            self.protocol.count_null(local);
        }
        self.interactions += count;
    }

    /// Drive the sharded run under a whole-configuration [`Observer`]:
    /// polled once up front, then every `check_every` interactions and
    /// at the end of the budget (each poll reads the configuration in
    /// place), until it stops the run. Poll times match the sequential
    /// engine's exactly.
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
    /// `check_every` interactions) or the budget is exhausted — sugar
    /// for [`run_observed`](Self::run_observed) with a [`Convergence`]
    /// observer, mirroring
    /// [`Simulator::run_until`](population::Simulator::run_until).
    pub fn run_until(
        &mut self,
        converged: impl FnMut(&[P::State]) -> bool,
        max_interactions: u64,
        check_every: u64,
    ) -> StopReason {
        let mut observer = Convergence::new(converged);
        self.run_observed(max_interactions, check_every, &mut observer)
    }

    /// Execute exactly `count` interactions, handing the configuration
    /// to `hook` at every interaction count where it asks to fire — the
    /// sharded counterpart of
    /// [`Simulator::run_faulted`](population::Simulator::run_faulted), so
    /// `scenarios` fault plans (wrapped in
    /// [`UnpackedHook`](population::UnpackedHook) for packed runs) drive
    /// sharded runs unchanged.
    pub fn run_faulted<H: FaultHook<P>>(&mut self, count: u64, hook: &mut H) {
        self.run_faulted_probed(count, hook, &mut NullProbe);
    }

    /// Execute exactly `count` interactions while reporting each block
    /// to `probe`: after each block's exchange rounds, [`Probe::block`]
    /// fires once per lane with the lane's intra-phase `changed` count,
    /// its global `start` offset, and its post-block states, followed by
    /// one [`Probe::exchange`] carrying the block's boundary-pair count.
    /// An active probe runs the blocks on the calling thread (the
    /// trajectory does not depend on the worker count).
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

impl<P: Protocol + Sync> Engine for ShardedSimulator<P>
where
    P::State: Send,
{
    type Protocol = P;

    fn protocol(&self) -> &P {
        &self.protocol
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Without a probe, a configuration the protocol certifies silent
    /// skips the rest of `count` (`skip_silent`); until then the blocks
    /// run in stretches of at least `RETRY_BLOCKS` whole blocks that end
    /// where the certificate is due for another try. Splitting at block
    /// boundaries leaves every block, and so the trajectory, as it was.
    fn advance<B: Probe<P>>(&mut self, count: u64, probe: &mut B) {
        if B::ACTIVE {
            return self.execute(count, probe);
        }
        let cap = (self.shards() * self.block_pairs) as u64;
        let end = self.interactions + count;
        while self.interactions < end {
            if self.certified() {
                self.skip_silent(end - self.interactions);
                return;
            }
            let stretch = self
                .silence
                .retry_in(self.interactions, cap)
                .max(RETRY_BLOCKS * cap);
            self.execute(stretch.min(end - self.interactions), probe);
        }
    }

    fn view<R>(&self, f: impl FnOnce(&[P::State]) -> R) -> R {
        f(&self.states)
    }

    fn edit(&mut self, f: impl FnOnce(&P, &mut [P::State])) {
        self.silence.clear();
        f(&self.protocol, &mut self.states);
    }
}

impl<P: WordState> ShardedSimulator<P> {
    /// Capture the run's position as a portable [`Frame`]: interaction
    /// count, shard count, block size, encoded configuration words, and
    /// per-shard cursors. Between `run*` calls the outboxes are empty
    /// (every block drains them in its exchange phase), so the frame is
    /// the *complete* trajectory-determining state — feed it to
    /// [`resume`](Self::resume) (decoding words through the same
    /// [`WordState`] codec) to continue bit for bit.
    pub fn frame(&self) -> Frame {
        Frame {
            interactions: self.interactions,
            shards: self.shards() as u32,
            block_pairs: self.block_pairs as u64,
            words: self
                .states
                .iter()
                .map(|s| self.protocol.state_to_word(s))
                .collect(),
            cursors: self.cursors(),
        }
    }
}

impl<P: WordState + Sync> Capture for ShardedSimulator<P>
where
    P::State: Send,
{
    fn frame(&self) -> Frame {
        ShardedSimulator::frame(self)
    }
}

impl<P: WordState + Sync> ShardedSimulator<P>
where
    P::State: Send,
{
    /// Execute exactly `count` interactions, handing a [`Frame`] to
    /// `ckpt` at every interaction count where it asks for a save — the
    /// sharded counterpart of
    /// [`Simulator::run_checkpointed`](population::Simulator::run_checkpointed).
    ///
    /// Unlike the sequential engine, saving is **not** trajectory-inert
    /// here: bursts split at save points, and the sharded trajectory
    /// depends on block structure. A checkpointed sharded run is its own
    /// deterministic trajectory — resume comparisons run against a
    /// checkpointed-but-uninterrupted twin with the same cadence.
    pub fn run_checkpointed<C: Checkpointer>(&mut self, count: u64, ckpt: &mut C) {
        self.run_faulted_checkpointed(count, &mut NoFaults, ckpt);
    }

    /// [`run_faulted`](Self::run_faulted) and
    /// [`run_checkpointed`](Self::run_checkpointed) merged: at equal
    /// times the fault fires first, so a frame saved at `t` reflects the
    /// post-fault configuration with the hook's exported state already
    /// advanced past `t` — a resume from it replays nothing.
    pub fn run_faulted_checkpointed<H, C>(&mut self, count: u64, hook: &mut H, ckpt: &mut C)
    where
        H: FaultHook<P> + HookState,
        C: Checkpointer,
    {
        drive(self, count, hook, ckpt, &mut NoPoll, &mut NullProbe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::{NoFaults, Simulator};
    use proptest::prelude::*;

    /// Counts interactions on each side, like the engine's own test
    /// protocol.
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
    fn one_shard_is_bit_for_bit_run_batched() {
        for count in [1u64, 5000, 12_345] {
            let mut reference = Simulator::new(Count(16), init(16), 42);
            reference.run_batched(count);
            let mut sharded = ShardedSimulator::new(Count(16), init(16), 42, 1);
            sharded.run(count);
            assert_eq!(sharded.states(), reference.states(), "count={count}");
            assert_eq!(sharded.interactions(), reference.interactions());
        }
    }

    #[test]
    fn sharded_runs_are_deterministic() {
        for shards in [1, 2, 3, 4] {
            let run = || {
                let mut sim = ShardedSimulator::new(Count(20), init(20), 7, shards);
                sim.run(30_000);
                sim.into_states()
            };
            assert_eq!(run(), run(), "shards={shards}");
        }
    }

    #[test]
    fn trajectory_is_independent_of_worker_count() {
        for shards in [2, 4, 5] {
            let run = |workers| {
                let mut sim =
                    ShardedSimulator::new(Count(24), init(24), 3, shards).with_workers(workers);
                sim.run(25_000);
                sim.into_states()
            };
            let inline = run(1);
            assert_eq!(inline, run(2), "shards={shards} workers=2");
            assert_eq!(inline, run(3), "shards={shards} workers=3");
            assert_eq!(inline, run(8), "shards={shards} workers=8 (clamped)");
        }
    }

    #[test]
    fn every_interaction_is_executed_exactly_once() {
        // The initiator-side counters sum to the interaction count even
        // across boundary pairs and odd block splits.
        for shards in [1, 2, 3, 4, 7] {
            let mut sim = ShardedSimulator::new(Count(21), init(21), 5, shards)
                .with_block_pairs(97)
                .with_workers(2);
            sim.run(10_001);
            let total: u64 = sim.states().iter().map(|s| s.0).sum();
            assert_eq!(total, 10_001, "shards={shards}");
            assert_eq!(sim.interactions(), 10_001);
        }
    }

    #[test]
    fn tiny_bursts_do_not_starve_high_shards() {
        // Regression: without remainder rotation, bursts smaller than
        // the shard count hand every interaction to shard 0 and the
        // other shards' sub-schedules never draw. 400 bursts of 1 over
        // 4 shards must leave initiations in every shard's range.
        let mut sim = ShardedSimulator::new(Count(16), init(16), 11, 4);
        for _ in 0..400 {
            sim.run(1);
        }
        let states = sim.states();
        for s in 0..4 {
            let initiated: u64 = states[s * 4..(s + 1) * 4].iter().map(|x| x.0).sum();
            assert!(initiated > 0, "shard {s} never initiated");
        }
        assert_eq!(states.iter().map(|x| x.0).sum::<u64>(), 400);
    }

    #[test]
    fn different_seeds_diverge() {
        let run = |seed| {
            let mut sim = ShardedSimulator::new(Count(16), init(16), seed, 4);
            sim.run(10_000);
            sim.into_states()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn run_observed_checkpoints_match_sequential_times() {
        let mut sim = ShardedSimulator::new(Count(16), init(16), 5, 4);
        let mut times = Vec::new();
        let mut sampler = population::observe::Sampler::new(|t, _: &[(u64, u64)]| times.push(t));
        let stop = sim.run_observed(500, 150, &mut sampler);
        assert_eq!(stop, StopReason::BudgetExhausted);
        assert_eq!(times, vec![0, 150, 300, 450, 500]);
    }

    #[test]
    fn run_until_stops_on_convergence() {
        let mut sim = ShardedSimulator::new(Count(16), init(16), 5, 4);
        let stop = sim.run_until(|s| s.iter().map(|x| x.0).sum::<u64>() >= 77, 10_000, 50);
        let t = stop.converged_at().expect("must converge");
        assert!((77..77 + 50).contains(&t), "t = {t}");
    }

    #[test]
    fn run_faulted_with_no_faults_equals_run() {
        let mut plain = ShardedSimulator::new(Count(16), init(16), 9, 3);
        let mut faulted = ShardedSimulator::new(Count(16), init(16), 9, 3);
        plain.run(12_345);
        faulted.run_faulted(12_345, &mut NoFaults);
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
        let mut sim = ShardedSimulator::new(Count(16), init(16), 4, 4);
        let mut hook = ZeroAt {
            times: vec![0, 100, 250, 1000],
            fired: Vec::new(),
        };
        sim.run_faulted(1000, &mut hook);
        assert_eq!(hook.fired, vec![0, 100, 250, 1000]);
        assert_eq!(sim.interactions(), 1000);
        assert!(sim.states().iter().all(|&s| s == (0, 0)));
        // Interaction counting restarts after the mid-run zeroing: a
        // second faulted run totals only post-fault interactions.
        let mut sim = ShardedSimulator::new(Count(16), init(16), 4, 4);
        let mut hook = ZeroAt {
            times: vec![400],
            fired: Vec::new(),
        };
        sim.run_faulted(1000, &mut hook);
        let total: u64 = sim.states().iter().map(|s| s.0).sum();
        assert_eq!(total, 600);
    }

    /// A probe that tallies its callbacks and remembers the last block
    /// timestamp and each lane's last block.
    #[derive(Default)]
    struct Tally {
        blocks: u64,
        changed: u64,
        exchanges: u64,
        boundary: u64,
        faults: u64,
        last_t: u64,
        lanes: Vec<(usize, Vec<(u64, u64)>)>,
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
            self.blocks += 1;
            self.changed += changed;
            self.last_t = t;
            if self.lanes.len() <= shard {
                self.lanes.resize(shard + 1, (0, Vec::new()));
            }
            self.lanes[shard] = (start, lane.to_vec());
        }
        fn exchange(&mut self, _p: &Count, _t: u64, pairs: u64) {
            self.exchanges += 1;
            self.boundary += pairs;
        }
        fn fault(&mut self, _p: &Count, _t: u64, _states: &[(u64, u64)]) {
            self.faults += 1;
        }
    }

    #[test]
    fn probed_run_matches_plain_run_and_reports_blocks() {
        for shards in [1, 3, 4] {
            let mut plain = ShardedSimulator::new(Count(20), init(20), 13, shards);
            let mut probed = ShardedSimulator::new(Count(20), init(20), 13, shards);
            plain.run(25_000);
            let mut tally = Tally::default();
            probed.run_probed(25_000, &mut tally);
            assert_eq!(plain.states(), probed.states(), "shards={shards}");
            assert_eq!(plain.interactions(), probed.interactions());
            assert!(tally.blocks >= shards as u64, "one block call per lane");
            assert_eq!(tally.blocks, tally.exchanges * shards as u64);
            assert_eq!(tally.last_t, 25_000, "timestamps are block-end counts");
            // Count's transition always changes both sides; intra-lane
            // changed counts plus boundary pairs cover every interaction.
            assert_eq!(tally.changed + tally.boundary, 25_000);
            // The last block's lanes, in shard order, are the
            // configuration the simulator reports, cut at each lane's
            // start.
            assert_eq!(tally.lanes.len(), shards);
            let mut joined = Vec::new();
            for (start, lane) in &tally.lanes {
                assert_eq!(*start, joined.len(), "shards={shards}");
                joined.extend_from_slice(lane);
            }
            assert_eq!(joined, probed.states(), "shards={shards}");
        }
    }

    #[test]
    fn faulted_probed_matches_run_faulted_and_sees_fires() {
        let mut plain = ShardedSimulator::new(Count(16), init(16), 4, 4);
        let mut probed = ShardedSimulator::new(Count(16), init(16), 4, 4);
        let mut hook_a = ZeroAt {
            times: vec![100, 250],
            fired: Vec::new(),
        };
        let mut hook_b = ZeroAt {
            times: vec![100, 250],
            fired: Vec::new(),
        };
        plain.run_faulted(1000, &mut hook_a);
        let mut tally = Tally::default();
        probed.run_faulted_probed(1000, &mut hook_b, &mut tally);
        assert_eq!(plain.states(), probed.states());
        assert_eq!(hook_a.fired, hook_b.fired);
        assert_eq!(tally.faults, 2);
    }

    #[test]
    fn null_probe_run_probed_is_run() {
        let mut plain = ShardedSimulator::new(Count(16), init(16), 9, 3);
        let mut probed = ShardedSimulator::new(Count(16), init(16), 9, 3);
        plain.run(12_345);
        probed.run_probed(12_345, &mut population::NullProbe);
        assert_eq!(plain.states(), probed.states());
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
    #[should_panic(expected = "must match protocol.n()")]
    fn rejects_mismatched_initial_configuration() {
        let _ = ShardedSimulator::new(Count(8), init(5), 0, 2);
    }

    /// An order-sensitive protocol with word-serializable state: the
    /// non-commutative mix makes any trajectory divergence visible in
    /// the final words.
    struct Mark(usize);
    impl Protocol for Mark {
        type State = u64;
        fn n(&self) -> usize {
            self.0
        }
        fn transition(&self, u: &mut u64, v: &mut u64) -> bool {
            *u = u.wrapping_mul(6364136223846793005).wrapping_add(*v | 1);
            *v = v.wrapping_add(*u >> 32);
            true
        }
    }
    impl WordState for Mark {
        fn state_to_word(&self, state: &u64) -> u64 {
            *state
        }
        fn state_from_word(&self, word: u64) -> Result<u64, String> {
            Ok(word)
        }
    }

    fn marks(n: usize) -> Vec<u64> {
        (0..n as u64).collect()
    }

    #[test]
    fn cursor_resume_continues_the_trajectory_bit_for_bit() {
        for shards in [1, 4] {
            let mut reference = ShardedSimulator::new(Mark(24), marks(24), 17, shards);
            reference.run(10_000);
            let (states, cursors, t) = (
                reference.states().to_vec(),
                reference.cursors(),
                reference.interactions(),
            );
            reference.run(10_000);
            let mut resumed = ShardedSimulator::resume(Mark(24), states, cursors, t);
            assert_eq!(resumed.shards(), shards);
            resumed.run(10_000);
            assert_eq!(resumed.states(), reference.states(), "shards={shards}");
            assert_eq!(resumed.interactions(), reference.interactions());
        }
    }

    #[test]
    fn checkpointed_resume_matches_the_checkpointed_twin() {
        // The sharded trajectory depends on burst structure, so the
        // reference is a checkpointed-but-uninterrupted twin with the
        // same cadence. The crashed run dies at 8_000; its last frame
        // (at 6_000) resumes and both reach 20_000 on the same grid.
        for shards in [1, 4] {
            let mut twin = ShardedSimulator::new(Mark(24), marks(24), 5, shards);
            let mut twin_ckpt = population::MemoryCheckpointer::every(3_000);
            twin.run_checkpointed(20_000, &mut twin_ckpt);

            let mut crashed = ShardedSimulator::new(Mark(24), marks(24), 5, shards);
            let mut crash_ckpt = population::MemoryCheckpointer::every(3_000);
            crashed.run_checkpointed(8_000, &mut crash_ckpt);
            let (frame, _) = crash_ckpt.saved.last().expect("saves before the crash");
            assert_eq!(frame.interactions, 6_000);
            drop(crashed); // the "crash"

            let states = frame
                .words
                .iter()
                .map(|&w| Mark(24).state_from_word(w).unwrap())
                .collect();
            let mut resumed =
                ShardedSimulator::resume(Mark(24), states, frame.cursors.clone(), 6_000);
            let mut resume_ckpt = population::MemoryCheckpointer::every(3_000);
            resumed.run_checkpointed(14_000, &mut resume_ckpt);

            assert_eq!(resumed.states(), twin.states(), "shards={shards}");
            assert_eq!(resumed.interactions(), twin.interactions());
            // Frames on the shared grid agree too (the resumed run
            // re-saves at 6_000 on entry; overlap starts at 9_000).
            let twin_at_12k = twin_ckpt
                .saved
                .iter()
                .find(|(f, _)| f.interactions == 12_000)
                .expect("twin saved at 12k");
            let resumed_at_12k = resume_ckpt
                .saved
                .iter()
                .find(|(f, _)| f.interactions == 12_000)
                .expect("resumed saved at 12k");
            assert_eq!(twin_at_12k.0, resumed_at_12k.0, "shards={shards}");
        }
    }

    /// A hook zeroing every word at fixed times, with exportable (empty)
    /// state.
    struct ZeroWordsAt(Vec<u64>);
    impl FaultHook<Mark> for ZeroWordsAt {
        fn next_fire(&mut self, now: u64) -> Option<u64> {
            self.0.iter().copied().find(|&t| t >= now)
        }
        fn fire(&mut self, _p: &Mark, t: u64, states: &mut [u64]) {
            states.iter_mut().for_each(|s| *s = 0);
            self.0.retain(|&x| x > t);
        }
    }
    impl HookState for ZeroWordsAt {
        fn export_state(&self) -> Option<population::FaultState> {
            None
        }
        fn import_state(&mut self, _state: &population::FaultState) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn faults_fire_before_saves_at_equal_times() {
        // A fault and a save both due at 3_000: the frame must hold the
        // post-fault (all-zero) configuration.
        let mut sim = ShardedSimulator::new(Mark(16), marks(16), 9, 2);
        let mut hook = ZeroWordsAt(vec![3_000]);
        let mut ckpt = population::MemoryCheckpointer::every(3_000);
        sim.run_faulted_checkpointed(3_000, &mut hook, &mut ckpt);
        let (frame, _) = ckpt
            .saved
            .iter()
            .find(|(f, _)| f.interactions == 3_000)
            .expect("save at the fault time");
        assert!(
            frame.words.iter().all(|&w| w == 0),
            "frame must reflect the post-fault configuration"
        );
    }

    #[test]
    fn null_checkpointer_run_checkpointed_is_run() {
        let mut plain = ShardedSimulator::new(Mark(16), marks(16), 9, 3);
        let mut ckpt = ShardedSimulator::new(Mark(16), marks(16), 9, 3);
        plain.run(12_345);
        ckpt.run_checkpointed(12_345, &mut population::NullCheckpointer);
        assert_eq!(plain.states(), ckpt.states());
    }

    #[test]
    #[should_panic(expected = "expected lane")]
    fn resume_rejects_cursors_from_a_different_partition() {
        // Cursors captured from a 4-shard split cannot resume as 2
        // shards of the right population: lane bounds disagree.
        let sim = ShardedSimulator::new(Mark(24), marks(24), 17, 4);
        let mut cursors = sim.cursors();
        cursors.truncate(2);
        let _ = ShardedSimulator::resume(Mark(24), sim.states().to_vec(), cursors, 0);
    }

    #[test]
    #[should_panic(expected = "shard count must be within")]
    fn resume_rejects_empty_cursor_set() {
        let _ = ShardedSimulator::resume(Mark(8), marks(8), Vec::new(), 0);
    }

    /// Logs every block of pairs handed to `transition_block`, so a test
    /// sees exactly which pairs the intra phase routed to the lane, and
    /// in which sub-blocks.
    struct Log(usize, Mutex<Vec<Vec<Pair>>>);
    impl Protocol for Log {
        type State = ();
        fn n(&self) -> usize {
            self.0
        }
        fn transition(&self, _: &mut (), _: &mut ()) -> bool {
            false
        }
        fn transition_block(&self, _: &mut [()], pairs: &[Pair]) -> u64 {
            self.1.lock().unwrap().push(pairs.to_vec());
            0
        }
    }

    /// The pair-at-a-time router the intra phase used before it was made
    /// branch-free, kept as the reference.
    fn branchy_route(
        block: &[Pair],
        start: usize,
        len: usize,
        owners: &OwnerMap,
        local: &mut Vec<Pair>,
        outbox: &mut [Vec<Pair>],
    ) {
        for &(i, j) in block {
            let lj = (j as usize).wrapping_sub(start);
            if lj < len {
                local.push(((i as usize - start) as u32, lj as u32));
            } else {
                outbox[owners.owner(j)].push((i, j));
            }
        }
    }

    /// Quotas around one sub-block of [`BLOCK_PAIRS`].
    const QUOTAS: [u64; 4] = [1, 4095, 4096, 4097];

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 48,
            ..ProptestConfig::default()
        })]

        /// The branch-free router hands `transition_block` the same local
        /// pairs in the same sub-blocks, and fills every peer's outbox
        /// with the same pairs in the same order, as the branchy loop —
        /// on first, last and random lanes, with 1, 2, n and random
        /// shard counts (so 1-agent lanes), over two phases whose quotas
        /// grow and shrink the reused buffers.
        #[test]
        fn router_matches_the_branchy_reference(
            n in 2usize..64,
            shape in 0usize..4,
            lane in 0usize..3,
            first in 0usize..4,
            second in 0usize..4,
            seed in any::<u64>(),
        ) {
            let shards = match shape {
                0 => 1,
                1 => 2,
                2 => n,
                _ => 1 + (seed % n as u64) as usize,
            };
            let s = match lane {
                0 => 0,
                1 => shards - 1,
                _ => ((seed >> 32) % shards as u64) as usize,
            };
            let quotas = [QUOTAS[first], QUOTAS[second]];
            let owners = OwnerMap::new(n, shards);
            let (start, end) = bounds(n, shards, s);

            let mut reference = split(n, seed, shards).swap_remove(s);
            let mut ref_local = Vec::new();
            let mut ref_outbox = vec![Vec::new(); shards];
            let mut responders = vec![false; n];
            for quota in quotas {
                let mut left = quota;
                while left > 0 {
                    let block = reference.sample_block(left.min(BLOCK_PAIRS as u64) as usize);
                    let mut local = Vec::new();
                    branchy_route(block, start, end - start, &owners, &mut local, &mut ref_outbox);
                    for &(_, j) in block {
                        responders[j as usize] = true;
                    }
                    ref_local.push(local);
                    left -= block.len() as u64;
                }
            }

            let protocol = Log(n, Mutex::default());
            let mut states = vec![(); end - start];
            let mut slot = Slot {
                start,
                len: end - start,
                sched: split(n, seed, shards).swap_remove(s),
                outbox: vec![Vec::new(); shards],
                local: Vec::new(),
                boundary: Vec::new(),
            };
            let lane = Mutex::new(Lane { states: &mut states, slot: &mut slot });
            for quota in quotas {
                intra_phase(&protocol, &owners, &lane, quota);
            }
            prop_assert_eq!(protocol.1.into_inner().unwrap(), ref_local);
            prop_assert_eq!(&slot.outbox, &ref_outbox);

            // Thousands of draws over fewer than 64 agents reach every
            // possible responder, so the agents just inside and just
            // outside the lane were routed. (A 1-agent lane's only agent
            // initiates every pair, so it is never a responder.)
            if quotas.iter().sum::<u64>() >= 4095 {
                let inside = if end - start > 1 { vec![start, end - 1] } else { vec![] };
                for j in inside.into_iter().chain([start.wrapping_sub(1), end]) {
                    prop_assert!(j >= n || responders[j], "responder {} never drawn", j);
                }
            }
        }
    }
}
