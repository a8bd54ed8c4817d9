//! The sharded single-run simulator.

use std::sync::{Barrier, Mutex};

use population::observe::{Control, Convergence, ShardObserver};
use population::schedule::{Pair, ScheduleCursor, SubSchedule, BLOCK_PAIRS};
use population::silence::Certificate;
use population::{
    drive, Capture, Checkpointer, CursorSource, Engine, Every, FaultHook, Frame, HookState,
    NoFaults, NoPoll, NoSaves, NullProbe, Observer, PairSource, Poll, Probe, Protocol, StopReason,
    WordState,
};

use crate::partition::{bounds, rounds, OwnerMap};

/// One shard's lane: a contiguous slice of the population plus the
/// shard's private pair stream and outgoing boundary-pair buffers.
#[derive(Debug)]
struct Slot<S> {
    /// Global index of the first agent in this lane.
    start: usize,
    /// The shard's slice of the configuration (`states[i - start]` is
    /// agent `i`).
    states: Vec<S>,
    /// The shard's private sub-stream of the uniform scheduler.
    sched: SubSchedule,
    /// Boundary pairs drawn this block, bucketed by the responder's
    /// shard; drained (in draw order) by the exchange phase.
    outbox: Vec<Vec<Pair>>,
    /// Reusable buffer of lane-local pairs (indices rebased to the
    /// lane), collected per sampled block and executed with one
    /// [`Protocol::transition_block`] call — so a packed protocol's
    /// block kernel runs on the shard hot path too.
    local: Vec<Pair>,
}

/// A multi-threaded, deterministic executor for a single run of a
/// [`Protocol`], partitioning the configuration into per-shard lanes.
///
/// # Execution model
///
/// Agents `0..n` are split into `shards` contiguous, balanced lanes.
/// Each shard owns its lane plus a private
/// [`SubSchedule`] — a sub-stream of the uniform scheduler whose
/// initiators lie in the lane and whose responders span the whole
/// population (`SubSchedule::split` derives the per-shard seeds from
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
/// number of worker threads: workers only decide *who* executes a
/// phase, never *what* or *in which order within a lane* — phases are
/// separated by barriers and touch disjoint lanes, so
/// `workers = 1` (fully inline, no threads) and any `workers > 1`
/// produce bit-for-bit identical trajectories. Two identical calls are
/// always identical.
///
/// # Equivalence at `shards = 1`
///
/// With a single shard every pair is intra-shard and the lone
/// sub-schedule *is* the uniform [`Schedule`](population::Schedule)
/// (same seed, bit-identical stream), so a 1-shard run is **bit-for-bit
/// trajectory-equivalent** to
/// [`Simulator::run_batched`](population::Simulator::run_batched) —
/// property-tested in `tests/shard_equivalence.rs`. Sharded runs with
/// `shards > 1` follow a different (equally valid) trajectory of the
/// same balanced-uniform scheduler family.
///
/// # Observation and faults
///
/// [`run_observed`](Self::run_observed) polls a whole-configuration
/// [`Observer`] on a concatenated snapshot (an `O(n)` copy per
/// checkpoint); [`run_merged`](Self::run_merged) avoids the copy by
/// evaluating a [`ShardObserver`] through per-shard summaries.
/// [`run_faulted`](Self::run_faulted) splits blocks at exact fault
/// interaction counts, exactly like the sequential engine, so
/// `scenarios` fault plans drive sharded runs unchanged.
#[derive(Debug)]
pub struct ShardedSimulator<P: Protocol> {
    protocol: P,
    slots: Vec<Mutex<Slot<P::State>>>,
    rounds: Vec<Vec<(usize, usize)>>,
    owners: OwnerMap,
    n: usize,
    shards: usize,
    workers: usize,
    block_pairs: usize,
    interactions: u64,
    silence: Certificate,
}

/// Blocks an uncertified run executes at least between two tries of the
/// silence certificate: the threaded path starts its workers once per
/// stretch, which costs far more than the certificate's `O(n)` test.
const RETRY_BLOCKS: u64 = 64;

/// The share of a block's `total` interactions executed by shard `s`:
/// an even split, with `total mod shards` shards taking one extra —
/// starting from shard `rot` and wrapping, so the remainder *rotates*
/// across blocks instead of always favoring the lowest-indexed shards.
/// Without the rotation, repeated small bursts (e.g. `check_every <
/// shards`) would hand every leftover interaction to shard 0 and starve
/// the high shards' sub-schedules entirely. `rot` is derived from the
/// interaction count at the block's start, so it is identical across
/// the inline and threaded paths (determinism) and cycles through all
/// shards under any fixed burst size not divisible by the shard count.
#[inline]
fn quota(total: u64, shards: usize, s: usize, rot: usize) -> u64 {
    let idx = (s + shards - rot) % shards;
    total / shards as u64 + u64::from((idx as u64) < total % shards as u64)
}

/// Intra phase for one shard: draw `quota` pairs from the shard's
/// sub-stream; partition each sampled block into lane-local pairs
/// (executed in draw order with a single
/// [`Protocol::transition_block`] call, which dispatches to a packed
/// protocol's block kernel) and boundary pairs (deferred into the
/// outbox). Only this shard's lane is read or written. Deferring a
/// boundary pair executes nothing, so the draw-order trajectory is
/// identical to the old pair-at-a-time loop. Returns the number of
/// lane-local interactions that changed at least one state (callers on
/// the plain hot path discard it; the probed path feeds it to
/// [`Probe::block`]).
fn intra_phase<P: Protocol>(
    protocol: &P,
    owners: &OwnerMap,
    slot: &Mutex<Slot<P::State>>,
    quota: u64,
) -> u64 {
    let mut guard = slot.lock().expect("shard lane poisoned");
    let Slot {
        start,
        states,
        sched,
        outbox,
        local,
    } = &mut *guard;
    let (start, len) = (*start, states.len());
    let mut remaining = quota;
    let mut changed = 0;
    while remaining > 0 {
        let want = remaining.min(BLOCK_PAIRS as u64) as usize;
        let block = sched.sample_block(want);
        for &(i, j) in block {
            let lj = (j as usize).wrapping_sub(start);
            if lj < len {
                local.push(((i as usize - start) as u32, lj as u32));
            } else {
                outbox[owners.owner(j)].push((i, j));
            }
        }
        changed += protocol.transition_block(states, local);
        local.clear();
        remaining -= block.len() as u64;
    }
    changed
}

/// One exchange match: with both lanes held, apply shard `a`'s deferred
/// pairs into `b`, then `b`'s into `a`, each in draw order.
fn exchange<P: Protocol>(
    protocol: &P,
    slot_a: &Mutex<Slot<P::State>>,
    slot_b: &Mutex<Slot<P::State>>,
    a: usize,
    b: usize,
) {
    debug_assert!(a < b, "matches are normalized to (low, high)");
    let mut ga = slot_a.lock().expect("shard lane poisoned");
    let mut gb = slot_b.lock().expect("shard lane poisoned");
    let sa = &mut *ga;
    let sb = &mut *gb;
    let Slot {
        start: a_start,
        states: a_states,
        outbox: a_outbox,
        ..
    } = sa;
    let Slot {
        start: b_start,
        states: b_states,
        outbox: b_outbox,
        ..
    } = sb;
    // Copy-free split borrow: the two lanes are distinct `Vec`s, so
    // both sides mutate in place with no clone and no write-back pass.
    for &(i, j) in &a_outbox[b] {
        let (li, lj) = (i as usize - *a_start, j as usize - *b_start);
        protocol.transition(&mut a_states[li], &mut b_states[lj]);
    }
    a_outbox[b].clear();
    for &(i, j) in &b_outbox[a] {
        let (li, lj) = (i as usize - *b_start, j as usize - *a_start);
        protocol.transition(&mut b_states[li], &mut a_states[lj]);
    }
    b_outbox[a].clear();
}

impl<P: Protocol> ShardedSimulator<P> {
    /// Create a sharded simulator over `initial` states, partitioned
    /// into `shards` lanes, with the uniform scheduler split into
    /// per-shard sub-streams derived from `seed`.
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
        let n = initial.len();
        assert_eq!(
            n,
            protocol.n(),
            "initial configuration size must match protocol.n()"
        );
        assert!(n >= 2, "population needs at least two agents");
        assert!(u32::try_from(n).is_ok(), "population size exceeds u32");
        assert!(
            (1..=n).contains(&shards),
            "shard count must be within 1..=n"
        );
        let scheds = SubSchedule::split(n, seed, shards);
        let mut initial = initial;
        let mut lanes: Vec<Vec<P::State>> = Vec::with_capacity(shards);
        for s in (0..shards).rev() {
            let (start, _) = bounds(n, shards, s);
            lanes.push(initial.split_off(start));
        }
        let slots = scheds
            .into_iter()
            .zip(lanes.into_iter().rev())
            .map(|(sched, states)| {
                let (start, end) = sched.range();
                debug_assert_eq!(end - start, states.len());
                Mutex::new(Slot {
                    start,
                    states,
                    sched,
                    outbox: vec![Vec::new(); shards],
                    local: Vec::new(),
                })
            })
            .collect();
        let workers = population::runner::available_workers().get().min(shards);
        Self {
            protocol,
            slots,
            rounds: rounds(shards),
            owners: OwnerMap::new(n, shards),
            n,
            shards,
            workers,
            block_pairs: BLOCK_PAIRS,
            interactions: 0,
            silence: Certificate::default(),
        }
    }

    /// Pin the number of worker threads (clamped to the shard count at
    /// run time; `1` runs fully inline with no threads or barriers).
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
        self.shards
    }

    /// Number of worker threads phases fan out over (after clamping).
    pub fn workers(&self) -> usize {
        self.workers.min(self.shards).max(1)
    }

    /// Snapshot of the full configuration, concatenated in agent-index
    /// order (an `O(n)` copy — the price a partitioned representation
    /// pays at whole-configuration boundaries).
    pub fn states(&self) -> Vec<P::State> {
        let mut out = Vec::with_capacity(self.n);
        for slot in &self.slots {
            out.extend_from_slice(&slot.lock().expect("shard lane poisoned").states);
        }
        out
    }

    /// Scatter a full configuration back into the lanes (the inverse of
    /// [`states`](Self::states); used at fault boundaries).
    fn scatter(&mut self, all: &[P::State]) {
        debug_assert_eq!(all.len(), self.n);
        for slot in &self.slots {
            let mut guard = slot.lock().expect("shard lane poisoned");
            let start = guard.start;
            let end = start + guard.states.len();
            guard.states.clone_from_slice(&all[start..end]);
        }
    }

    /// Per-shard scheduler cursors, in shard order — together with
    /// [`states`](Self::states) and the interaction count, the complete
    /// trajectory-determining position of a sharded run (see
    /// [`resume`](Self::resume)).
    pub fn cursors(&self) -> Vec<ScheduleCursor> {
        self.slots
            .iter()
            .map(|slot| slot.lock().expect("shard lane poisoned").sched.cursor())
            .collect()
    }

    /// Rebuild a sharded simulator at a captured position: `initial` is
    /// the concatenated configuration, `cursors` the per-shard scheduler
    /// cursors (their count *is* the shard count), `interactions` the
    /// interaction count at capture. The resumed run continues the
    /// captured run's trajectory bit for bit **under the same block
    /// structure** — restore the captured
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
        for (s, cursor) in cursors.iter().enumerate() {
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
        }
        let mut initial = initial;
        let mut lanes: Vec<Vec<P::State>> = Vec::with_capacity(shards);
        for s in (0..shards).rev() {
            let (start, _) = bounds(n, shards, s);
            lanes.push(initial.split_off(start));
        }
        let slots = cursors
            .into_iter()
            .zip(lanes.into_iter().rev())
            .map(|(cursor, states)| {
                let sched = SubSchedule::from_cursor(cursor);
                let (start, end) = sched.range();
                debug_assert_eq!(end - start, states.len());
                Mutex::new(Slot {
                    start,
                    states,
                    sched,
                    outbox: vec![Vec::new(); shards],
                    local: Vec::new(),
                })
            })
            .collect();
        let workers = population::runner::available_workers().get().min(shards);
        Self {
            protocol,
            slots,
            rounds: rounds(shards),
            owners: OwnerMap::new(n, shards),
            n,
            shards,
            workers,
            block_pairs: BLOCK_PAIRS,
            interactions,
            silence: Certificate::default(),
        }
    }

    /// Consume the simulator, returning the final configuration.
    pub fn into_states(self) -> Vec<P::State> {
        self.slots
            .into_iter()
            .flat_map(|m| m.into_inner().expect("shard lane poisoned").states)
            .collect()
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

    /// Execute exactly `count` interactions. Without a probe and with
    /// more than one worker, the blocks run on the threaded path;
    /// otherwise on this inline loop — same blocks, same phases, same
    /// order, on the calling thread.
    fn execute<B: Probe<P>>(&mut self, count: u64, probe: &mut B) {
        let workers = self.workers();
        if !B::ACTIVE && workers > 1 {
            self.run_threaded(count, workers);
            self.interactions += count;
            return;
        }
        let cap = (self.shards * self.block_pairs) as u64;
        let mut changed = vec![0u64; if B::ACTIVE { self.shards } else { 0 }];
        let mut remaining = count;
        while remaining > 0 {
            let total = remaining.min(cap);
            let rot = (self.interactions % self.shards as u64) as usize;
            for (s, slot) in self.slots.iter().enumerate() {
                let lane_changed = intra_phase(
                    &self.protocol,
                    &self.owners,
                    slot,
                    quota(total, self.shards, s, rot),
                );
                if B::ACTIVE {
                    changed[s] = lane_changed;
                }
            }
            let boundary: u64 = if B::ACTIVE {
                self.slots
                    .iter()
                    .map(|slot| {
                        let guard = slot.lock().expect("shard lane poisoned");
                        guard.outbox.iter().map(|o| o.len() as u64).sum::<u64>()
                    })
                    .sum()
            } else {
                0
            };
            for round in &self.rounds {
                for &(a, b) in round {
                    exchange(&self.protocol, &self.slots[a], &self.slots[b], a, b);
                }
            }
            self.interactions += total;
            remaining -= total;
            if B::ACTIVE {
                for (s, slot) in self.slots.iter().enumerate() {
                    let guard = slot.lock().expect("shard lane poisoned");
                    probe.block(
                        &self.protocol,
                        self.interactions,
                        changed[s],
                        s,
                        guard.start,
                        &guard.states,
                    );
                }
                probe.exchange(&self.protocol, self.interactions, boundary);
            }
        }
    }

    /// Whether the protocol certifies the configuration silent
    /// ([`Certificate::check`]).
    fn certified(&mut self) -> bool {
        let (now, n) = (self.interactions, self.n);
        let mut silence = self.silence;
        let holds = silence.check(now, n, || self.protocol.silent(&self.states()));
        self.silence = silence;
        holds
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
        let cap = (self.shards * self.block_pairs) as u64;
        let (full, last) = (count / cap, count % cap);
        let rot = ((self.interactions + full * cap) % self.shards as u64) as usize;
        for (s, slot) in self.slots.iter().enumerate() {
            let pairs = full * self.block_pairs as u64 + quota(last, self.shards, s, rot);
            let sched = &mut slot.lock().expect("shard lane poisoned").sched;
            let local = if self.shards == 1 {
                sched.skip(pairs);
                pairs
            } else {
                sched.skip_local(pairs)
            };
            self.protocol.count_null(local);
        }
        self.interactions += count;
    }

    /// The multi-worker path: persistent scoped workers advance through
    /// the same block sequence in lock step. Barriers separate the
    /// phases; within a phase every worker touches only lanes it
    /// exclusively owns (its shards in the intra phase, its matches'
    /// lane pairs in an exchange round), so the trajectory is identical
    /// to the inline loop of [`execute`](Self::execute) regardless of scheduling.
    fn run_threaded(&mut self, count: u64, workers: usize) {
        let cap = (self.shards * self.block_pairs) as u64;
        let num_blocks = count.div_ceil(cap);
        let barrier = Barrier::new(workers);
        let base = self.interactions;
        let (protocol, slots, rounds, owners, shards) = (
            &self.protocol,
            &self.slots,
            &self.rounds,
            &self.owners,
            self.shards,
        );
        std::thread::scope(|scope| {
            for w in 0..workers {
                let barrier = &barrier;
                scope.spawn(move || {
                    for k in 0..num_blocks {
                        let total = cap.min(count - k * cap);
                        let rot = ((base + k * cap) % shards as u64) as usize;
                        for s in (w..shards).step_by(workers) {
                            intra_phase(protocol, owners, &slots[s], quota(total, shards, s, rot));
                        }
                        barrier.wait();
                        for round in rounds {
                            for (m, &(a, b)) in round.iter().enumerate() {
                                if m % workers == w {
                                    exchange(protocol, &slots[a], &slots[b], a, b);
                                }
                            }
                            barrier.wait();
                        }
                    }
                });
            }
        });
    }

    /// Drive the sharded run under a whole-configuration [`Observer`]:
    /// polled once up front, then every `check_every` interactions and
    /// at the end of the budget (each poll snapshots the configuration),
    /// until it stops the run. Poll times match the sequential engine's
    /// exactly.
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

    /// Run until `converged` holds over a snapshot (polled every
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

    /// [`run_observed`](Self::run_observed) under a [`ShardObserver`]:
    /// at every poll each lane is summarized in place (no concatenated
    /// snapshot; lanes summarize in parallel on the worker pool) and the
    /// summaries are merged into the global verdict.
    ///
    /// # Panics
    ///
    /// Panics if `check_every == 0`.
    pub fn run_merged<O: ShardObserver<P> + Sync>(
        &mut self,
        max_interactions: u64,
        check_every: u64,
        observer: &mut O,
    ) -> StopReason {
        let mut poll = Merged(check_every, observer);
        drive(
            self,
            max_interactions,
            &mut NoFaults,
            &mut NoSaves,
            &mut poll,
            &mut NullProbe,
        )
    }

    /// Summarize every lane and merge the summaries into the observer's
    /// verdict. On large populations the lanes are summarized on
    /// short-lived scoped worker threads (summaries are `Send`,
    /// `summarize` takes `&self`), so a checkpoint costs one parallel
    /// pass over the lanes rather than a serialized `O(n)` scan — the
    /// point of the merge path. Small populations summarize inline:
    /// below [`PARALLEL_SUMMARIZE_MIN_N`] the per-checkpoint thread
    /// spawns would cost more than the scan they parallelize.
    fn merge_checkpoint<O: ShardObserver<P> + Sync>(&self, observer: &mut O) -> Control {
        /// Population size below which a summarize pass is cheaper than
        /// spawning threads for it (a lane scan is ~µs work; a thread
        /// spawn+join is ~tens of µs).
        const PARALLEL_SUMMARIZE_MIN_N: usize = 1 << 17;
        let workers = self.workers();
        let summarize_shard = |s: usize| {
            let guard = self.slots[s].lock().expect("shard lane poisoned");
            observer.summarize(&self.protocol, guard.start, &guard.states)
        };
        let summaries: Vec<O::Summary> =
            if workers <= 1 || self.shards <= 1 || self.n < PARALLEL_SUMMARIZE_MIN_N {
                (0..self.shards).map(summarize_shard).collect()
            } else {
                let mut slots: Vec<Option<O::Summary>> = (0..self.shards).map(|_| None).collect();
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers)
                        .map(|w| {
                            let summarize_shard = &summarize_shard;
                            scope.spawn(move || {
                                (w..self.shards)
                                    .step_by(workers)
                                    .map(|s| (s, summarize_shard(s)))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    for h in handles {
                        for (s, summary) in h.join().expect("summarize worker panicked") {
                            slots[s] = Some(summary);
                        }
                    }
                });
                slots
                    .into_iter()
                    .map(|s| s.expect("every lane summarized"))
                    .collect()
            };
        observer.merge(&self.protocol, self.interactions, summaries)
    }

    /// Execute exactly `count` interactions, handing the concatenated
    /// configuration to `hook` at every interaction count where it asks
    /// to fire (the lanes are re-scattered afterwards) — the sharded
    /// counterpart of
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
    /// concatenated configuration.
    pub fn run_faulted_probed<H: FaultHook<P>, B: Probe<P>>(
        &mut self,
        count: u64,
        hook: &mut H,
        probe: &mut B,
    ) {
        drive(self, count, hook, &mut NoSaves, &mut NoPoll, probe);
    }
}

/// A [`ShardObserver`] polled every `.0` interactions through per-lane
/// summaries.
struct Merged<'a, O>(u64, &'a mut O);

impl<P: Protocol + Sync, H, O: ShardObserver<P> + Sync> Poll<ShardedSimulator<P>, H>
    for Merged<'_, O>
where
    P::State: Send,
{
    fn every(&self) -> u64 {
        self.0
    }

    fn poll(&mut self, engine: &ShardedSimulator<P>, _faults: &H) -> Control {
        engine.merge_checkpoint(self.1)
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
        let cap = (self.shards * self.block_pairs) as u64;
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
        f(&self.states())
    }

    fn edit(&mut self, f: impl FnOnce(&P, &mut [P::State])) {
        self.silence.clear();
        let mut all = self.states();
        f(&self.protocol, &mut all);
        self.scatter(&all);
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
            shards: self.shards as u32,
            block_pairs: self.block_pairs as u64,
            words: self
                .states()
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

    #[test]
    fn run_merged_agrees_with_run_observed() {
        // ShardedSilence over a protocol that goes quiet: all counters
        // saturate at 3.
        struct Saturate(usize);
        impl Protocol for Saturate {
            type State = u8;
            fn n(&self) -> usize {
                self.0
            }
            fn transition(&self, u: &mut u8, _v: &mut u8) -> bool {
                if *u < 3 {
                    *u += 1;
                    return true;
                }
                false
            }
        }
        let mut sharded = ShardedSimulator::new(Saturate(12), vec![0; 12], 3, 3);
        let mut merged = population::ShardedSilence::new();
        let stop = sharded.run_merged(100_000, 24, &mut merged);
        let t_merged = stop.converged_at().expect("must go silent");
        assert_eq!(merged.silent_at(), Some(t_merged));
        // The parallel summarize path (workers > 1, n above the spawn
        // threshold) must see the same checkpoint verdicts as the
        // inline one.
        let big = 1 << 17;
        let run_big = |workers: usize| {
            let mut sim =
                ShardedSimulator::new(Saturate(big), vec![0; big], 3, 4).with_workers(workers);
            let mut merged = population::ShardedSilence::new();
            let stop = sim.run_merged(10_000_000, 500_000, &mut merged);
            stop.converged_at()
        };
        let t_inline = run_big(1).expect("inline run must go silent");
        assert_eq!(run_big(3), Some(t_inline), "parallel summarize diverged");
        // The merged verdict matches a whole-configuration Silence
        // observer replayed over the same sharded trajectory.
        let mut replay = ShardedSimulator::new(Saturate(12), vec![0; 12], 3, 3);
        let mut whole = population::observe::Silence::new();
        let stop_whole = replay.run_observed(100_000, 24, &mut whole);
        assert_eq!(stop_whole.converged_at(), Some(t_merged));
    }

    /// A probe that tallies its callbacks and remembers the last block
    /// timestamp per lane.
    #[derive(Default)]
    struct Tally {
        blocks: u64,
        changed: u64,
        exchanges: u64,
        boundary: u64,
        faults: u64,
        last_t: u64,
    }

    impl Probe<Count> for Tally {
        fn block(
            &mut self,
            _p: &Count,
            t: u64,
            changed: u64,
            _shard: usize,
            _start: usize,
            _lane: &[(u64, u64)],
        ) {
            self.blocks += 1;
            self.changed += changed;
            self.last_t = t;
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
                reference.states(),
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
        let _ = ShardedSimulator::resume(Mark(24), sim.states(), cursors, 0);
    }

    #[test]
    #[should_panic(expected = "shard count must be within")]
    fn resume_rejects_empty_cursor_set() {
        let _ = ShardedSimulator::resume(Mark(8), marks(8), Vec::new(), 0);
    }
}
