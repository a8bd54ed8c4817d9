//! The canonical recording probe: derives structured events by diffing
//! per-agent [`AgentClass`]es at block boundaries and stores them in one
//! ring buffer, while feeding derived statistics
//! (time-between-reset-waves, per-rank occupancy dwell) into its own
//! metrics [`Registry`].

use population::{Membership, Probe, Protocol};

use crate::event::{AgentClass, Event, EventKind, TraceState, NO_AGENT};
use crate::metrics::{Counter, Histogram, Registry};
use crate::ring::RingBuffer;

/// Default ring capacity (events). At ~40 bytes per event this bounds
/// the trace memory at ~1.3 MiB.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 15;

/// A flight recorder implementing the engine's [`Probe`] seam for any
/// protocol whose state implements [`TraceState`].
///
/// # What it records
///
/// At every block boundary the recorder compares the class key
/// ([`TraceState::class_key`]) of every agent in the lanes it is handed
/// with the key it stored last time, decodes the classes of the agents
/// whose key changed, and emits:
///
/// * [`EventKind::Reset`] — an agent entered the reset protocol;
/// * [`EventKind::Elected`] — electing → waiting (a lottery win);
/// * [`EventKind::PhaseEnter`] — an agent entered a counting phase;
/// * [`EventKind::RankClaim`] / [`EventKind::RankRelease`] — rank
///   occupancy changes (dwell times land in the `rank_dwell` histogram).
///
/// Fault firings re-baseline silently (the damage is the fault's, not
/// the protocol's) and emit one population-wide [`EventKind::Fault`];
/// observer checkpoints are recorded as population-wide events too. The
/// first configuration seen is the baseline — initial states produce no
/// events.
///
/// The lanes are what [`Probe::block`] promises: the whole configuration
/// at the first boundary of every run segment, then only the agents the
/// protocol marked as changed during the block, in ascending index
/// order. The block kernel of `Packed<StableRanking>` marks exactly the
/// agents whose class key changed, so a boundary costs the recorder
/// O(class changes) rather than O(n); a protocol that does not mark
/// hands it the whole configuration every time. Either way the events,
/// counters and histograms are those of a full scan at every boundary
/// (`tests/telemetry_inert.rs`).
///
/// # Storage discipline
///
/// Events land in one fixed-capacity [`RingBuffer`] (overwrite-oldest,
/// drop-counted — see [`RingBuffer`]), reserved in full by the first
/// event and never grown after it. Recording never blocks and never
/// grows unboundedly: long runs keep the newest events and an exact count of
/// what was overwritten ([`Recorder::dropped`], also emitted in the
/// trace header).
#[derive(Debug)]
pub struct Recorder {
    ring: RingBuffer<Event>,
    /// Per-agent class key ([`AgentClass::key`]) at the last observed
    /// boundary; [`AgentClass::UNSEEN_KEY`] until the agent has been
    /// seen once.
    keys: Vec<u64>,
    /// Interaction count at which each agent claimed its current rank
    /// (meaningful only while its class is `Ranked`).
    claimed_at: Vec<u64>,
    /// Timestamp of the last reset wave (distinct reset timestamp).
    last_reset_wave: Option<u64>,
    registry: Registry,
    events_recorded: Counter,
    resets_observed: Counter,
    reset_interval: Histogram,
    rank_dwell: Histogram,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder whose ring holds `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut registry = Registry::new();
        let events_recorded = registry.counter("recorder_events");
        let resets_observed = registry.counter("recorder_resets");
        let reset_interval = registry.histogram("reset_interval");
        let rank_dwell = registry.histogram("rank_dwell");
        Self {
            ring: RingBuffer::new(capacity),
            keys: Vec::new(),
            claimed_at: Vec::new(),
            last_reset_wave: None,
            registry,
            events_recorded,
            resets_observed,
            reset_interval,
            rank_dwell,
        }
    }

    /// The recorder's metrics registry (`recorder_events`,
    /// `recorder_resets`, the `reset_interval` and `rank_dwell`
    /// histograms).
    pub fn metrics(&self) -> &Registry {
        &self.registry
    }

    /// Total events overwritten in the ring.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Total events recorded (including any since overwritten).
    pub fn recorded(&self) -> u64 {
        self.events_recorded.get()
    }

    /// The surviving events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring.iter().copied().collect()
    }

    /// Attach injector names to recorded [`EventKind::Fault`] events by
    /// firing time — the post-hoc join with a fault plan's firing log
    /// (`FaultPlan::fired`), which is where the names live.
    pub fn name_faults<I: IntoIterator<Item = (u64, &'static str)>>(&mut self, fired: I) {
        let fired: Vec<(u64, &'static str)> = fired.into_iter().collect();
        for ev in self.ring.iter_mut() {
            if let EventKind::Fault { hit, name: None } = ev.kind {
                if let Some(&(_, n)) = fired.iter().find(|&&(at, _)| at == ev.t) {
                    ev.kind = EventKind::Fault { hit, name: Some(n) };
                }
            }
        }
    }

    /// Record a dynamic-population lifecycle change for agent `agent`
    /// (also reachable through [`Probe::membership`]). Departures
    /// ([`Membership::Leave`] / [`Membership::Hibernate`]) clear the
    /// agent's stored class baseline: the dynamic engine recycles agent
    /// ids, so a recycled id must re-baseline on next sight rather than
    /// diff against its predecessor's class. A departure while ranked
    /// closes the agent's `rank_dwell` interval, since no `RankRelease`
    /// diff will ever be observed for it.
    pub fn lifecycle(&mut self, t: u64, agent: u32, change: Membership) {
        if matches!(change, Membership::Leave | Membership::Hibernate) {
            if let Some(slot) = self.keys.get_mut(agent as usize) {
                if let Some(AgentClass::Ranked(_)) = stored_class(*slot) {
                    self.rank_dwell.record(t - self.claimed_at[agent as usize]);
                }
                *slot = AgentClass::UNSEEN_KEY;
            }
        }
        let kind = match change {
            Membership::Join => EventKind::Join,
            Membership::Leave => EventKind::Leave,
            Membership::Hibernate => EventKind::Hibernate,
            Membership::Revive => EventKind::Revive,
        };
        self.push(Event { t, agent, kind });
    }

    fn push(&mut self, event: Event) {
        self.ring.push(event);
        self.events_recorded.inc();
    }

    fn note_reset_wave(&mut self, t: u64) {
        self.resets_observed.inc();
        match self.last_reset_wave {
            // Same-timestamp resets are one wave: record the gap only
            // when the wave's timestamp moves.
            Some(last) if t == last => {}
            Some(last) => {
                self.reset_interval.record(t - last);
                self.last_reset_wave = Some(t);
            }
            None => self.last_reset_wave = Some(t),
        }
    }

    /// Diff one lane of agents against the stored baseline, emitting
    /// events into the ring. `quiet` suppresses per-agent
    /// events (fault re-baselining) and returns the number of agents
    /// whose class changed.
    ///
    /// Keys are compared [`CHUNK`] agents at a time with one OR of XORs
    /// and no branch; only a chunk holding a changed key is walked agent
    /// by agent (in index order, so events come out exactly as a plain
    /// per-agent diff would emit them).
    fn scan<S: TraceState>(&mut self, t: u64, start: usize, lane: &[S], quiet: bool) -> u32 {
        let end = start + lane.len();
        if self.keys.len() < end {
            self.keys.resize(end, AgentClass::UNSEEN_KEY);
            self.claimed_at.resize(end, 0);
        }
        let mut hit = 0u32;
        for (c, chunk) in lane.chunks(CHUNK).enumerate() {
            let at = start + c * CHUNK;
            let dirty = chunk
                .iter()
                .zip(&self.keys[at..at + chunk.len()])
                .fold(0, |d, (state, &key)| d | (state.class_key() ^ key));
            if dirty != 0 {
                for (i, state) in chunk.iter().enumerate() {
                    hit += self.diff(t, at + i, state.class_key(), quiet);
                }
            }
        }
        hit
    }

    /// Diff one agent's class key against its stored one; returns 1 if
    /// a previously seen class changed, else 0.
    fn diff(&mut self, t: u64, agent: usize, key: u64, quiet: bool) -> u32 {
        let prev = self.keys[agent];
        if prev == key {
            return 0;
        }
        self.keys[agent] = key;
        let now = AgentClass::from_key(key);
        let Some(prev) = stored_class(prev) else {
            // First sight: baseline only, the initial configuration is
            // not an event.
            if let AgentClass::Ranked(_) = now {
                self.claimed_at[agent] = t;
            }
            return 0;
        };
        if quiet {
            // Fault re-baseline: keep dwell bookkeeping coherent, emit
            // nothing per-agent.
            if let AgentClass::Ranked(_) = now {
                self.claimed_at[agent] = t;
            }
            return 1;
        }
        let agent32 = agent as u32;
        if let AgentClass::Ranked(rank) = prev {
            self.rank_dwell.record(t - self.claimed_at[agent]);
            self.push(Event {
                t,
                agent: agent32,
                kind: EventKind::RankRelease { rank },
            });
        }
        let kind = match now {
            AgentClass::Resetting => {
                self.note_reset_wave(t);
                Some(EventKind::Reset)
            }
            AgentClass::Waiting if prev == AgentClass::Electing => Some(EventKind::Elected),
            AgentClass::Phase(phase) => Some(EventKind::PhaseEnter { phase }),
            AgentClass::Ranked(rank) => {
                self.claimed_at[agent] = t;
                Some(EventKind::RankClaim { rank })
            }
            _ => None,
        };
        if let Some(kind) = kind {
            self.push(Event {
                t,
                agent: agent32,
                kind,
            });
        }
        1
    }
}

/// Agents per key-compare unit in [`Recorder::scan`]: 16 keys are two
/// cache lines of the key array and 128 bytes of a packed lane.
const CHUNK: usize = 16;

/// The class behind a stored key, `None` for an unseen agent.
#[inline]
fn stored_class(key: u64) -> Option<AgentClass> {
    (key != AgentClass::UNSEEN_KEY).then(|| AgentClass::from_key(key))
}

impl<P: Protocol> Probe<P> for Recorder
where
    P::State: TraceState,
{
    fn block(
        &mut self,
        _protocol: &P,
        t: u64,
        _changed: u64,
        _shard: usize,
        start: usize,
        lane: &[P::State],
    ) {
        self.scan(t, start, lane, false);
    }

    fn checkpoint(&mut self, _protocol: &P, t: u64, stopping: bool) {
        self.push(Event {
            t,
            agent: NO_AGENT,
            kind: EventKind::Checkpoint { stopping },
        });
    }

    fn fault(&mut self, _protocol: &P, t: u64, states: &[P::State]) {
        let hit = self.scan(t, 0, states, true);
        self.push(Event {
            t,
            agent: NO_AGENT,
            kind: EventKind::Fault { hit, name: None },
        });
    }

    fn membership(&mut self, _protocol: &P, t: u64, agent: u32, change: Membership) {
        self.lifecycle(t, agent, change);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TraceState for AgentClass {
        fn agent_class(&self) -> AgentClass {
            *self
        }
    }

    #[test]
    fn first_sight_is_baseline_not_events() {
        let mut rec = Recorder::new();
        let lane = [AgentClass::Electing, AgentClass::Ranked(1)];
        rec.scan(10, 0, &lane, false);
        assert!(rec.events().is_empty());
        assert_eq!(rec.recorded(), 0);
    }

    #[test]
    fn diffs_emit_the_taxonomy() {
        let mut rec = Recorder::new();
        rec.scan(
            0,
            0,
            &[
                AgentClass::Electing,
                AgentClass::Electing,
                AgentClass::Ranked(3),
            ],
            false,
        );
        rec.scan(
            100,
            0,
            &[
                AgentClass::Waiting,   // elected
                AgentClass::Resetting, // reset
                AgentClass::Ranked(5), // release 3, claim 5
            ],
            false,
        );
        let kinds: Vec<EventKind> = rec.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Elected,
                EventKind::Reset,
                EventKind::RankRelease { rank: 3 },
                EventKind::RankClaim { rank: 5 },
            ]
        );
        assert_eq!(rec.metrics().get("recorder_resets"), Some(1));
        // Rank 3 was held from baseline (t = 0) to t = 100.
        let dwell = rec.metrics().snapshot();
        assert_eq!(dwell.histogram("rank_dwell").unwrap().sum, 100);
    }

    #[test]
    fn reset_waves_collapse_equal_timestamps() {
        let mut rec = Recorder::new();
        rec.scan(0, 0, &[AgentClass::Waiting; 4], false);
        rec.scan(50, 0, &[AgentClass::Resetting; 4], false); // one wave
        rec.scan(50, 0, &[AgentClass::Waiting; 4], false);
        rec.scan(200, 0, &[AgentClass::Resetting; 4], false); // next wave
        let snap = rec.metrics().snapshot();
        let h = snap.histogram("reset_interval").unwrap();
        assert_eq!(h.count, 1, "two waves, one interval");
        assert_eq!(h.sum, 150);
        assert_eq!(rec.metrics().get("recorder_resets"), Some(8));
    }

    #[test]
    fn fault_scan_is_quiet_but_counted() {
        let mut rec = Recorder::new();
        rec.scan(0, 0, &[AgentClass::Ranked(1), AgentClass::Ranked(2)], false);
        let hit = rec.scan(10, 0, &[AgentClass::Ranked(1), AgentClass::Resetting], true);
        assert_eq!(hit, 1);
        assert!(rec.events().is_empty(), "quiet scan emits nothing");
        // The next normal scan diffs against the *post-fault* baseline.
        rec.scan(
            20,
            0,
            &[AgentClass::Ranked(1), AgentClass::Resetting],
            false,
        );
        assert!(rec.events().is_empty());
    }

    #[test]
    fn name_faults_joins_by_time() {
        let mut rec = Recorder::new();
        rec.push(Event {
            t: 7,
            agent: NO_AGENT,
            kind: EventKind::Fault { hit: 3, name: None },
        });
        rec.name_faults([(7, "corrupt"), (9, "churn")]);
        assert_eq!(
            rec.events()[0].kind,
            EventKind::Fault {
                hit: 3,
                name: Some("corrupt")
            }
        );
    }

    #[test]
    fn lifecycle_events_rebaseline_recycled_ids() {
        let mut rec = Recorder::new();
        rec.scan(0, 0, &[AgentClass::Ranked(2), AgentClass::Waiting], false);
        // Agent 0 leaves while ranked: the dwell interval closes and the
        // baseline clears, so a recycled id produces no spurious diff.
        rec.lifecycle(30, 0, Membership::Leave);
        let snap = rec.metrics().snapshot();
        assert_eq!(snap.histogram("rank_dwell").unwrap().sum, 30);
        rec.scan(40, 0, &[AgentClass::Electing, AgentClass::Waiting], false);
        let kinds: Vec<EventKind> = rec.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EventKind::Leave], "recycled slot re-baselines");
        assert_eq!(rec.events()[0].agent, 0);

        // Hibernate also clears; revive and join map straight through.
        rec.lifecycle(50, 1, Membership::Hibernate);
        rec.lifecycle(60, 1, Membership::Revive);
        rec.lifecycle(60, 2, Membership::Join);
        let kinds: Vec<EventKind> = rec.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Leave,
                EventKind::Hibernate,
                EventKind::Revive,
                EventKind::Join,
            ]
        );
    }

    /// The recorder as it was before class keys: one `Option<AgentClass>`
    /// per agent, every agent decoded and compared after every block. It
    /// shares `push`, `note_reset_wave` and the dwell bookkeeping with
    /// the recorder it wraps; only the per-agent diff is its own.
    struct Reference {
        rec: Recorder,
        classes: Vec<Option<AgentClass>>,
    }

    impl Reference {
        fn new(capacity: usize) -> Self {
            Self {
                rec: Recorder::with_capacity(capacity),
                classes: Vec::new(),
            }
        }

        fn scan(&mut self, t: u64, start: usize, lane: &[AgentClass], quiet: bool) -> u32 {
            let rec = &mut self.rec;
            let end = start + lane.len();
            if self.classes.len() < end {
                self.classes.resize(end, None);
                rec.claimed_at.resize(end, 0);
            }
            let mut hit = 0u32;
            for (i, state) in lane.iter().enumerate() {
                let agent = start + i;
                let now = state.agent_class();
                let prev = self.classes[agent];
                if prev == Some(now) {
                    continue;
                }
                self.classes[agent] = Some(now);
                let Some(prev) = prev else {
                    if let AgentClass::Ranked(_) = now {
                        rec.claimed_at[agent] = t;
                    }
                    continue;
                };
                hit += 1;
                if quiet {
                    if let AgentClass::Ranked(_) = now {
                        rec.claimed_at[agent] = t;
                    }
                    continue;
                }
                let agent32 = agent as u32;
                if let AgentClass::Ranked(rank) = prev {
                    rec.rank_dwell.record(t - rec.claimed_at[agent]);
                    rec.push(Event {
                        t,
                        agent: agent32,
                        kind: EventKind::RankRelease { rank },
                    });
                }
                let kind = match now {
                    AgentClass::Resetting => {
                        rec.note_reset_wave(t);
                        Some(EventKind::Reset)
                    }
                    AgentClass::Waiting if prev == AgentClass::Electing => Some(EventKind::Elected),
                    AgentClass::Phase(phase) => Some(EventKind::PhaseEnter { phase }),
                    AgentClass::Ranked(rank) => {
                        rec.claimed_at[agent] = t;
                        Some(EventKind::RankClaim { rank })
                    }
                    _ => None,
                };
                if let Some(kind) = kind {
                    rec.push(Event {
                        t,
                        agent: agent32,
                        kind,
                    });
                }
            }
            hit
        }

        fn lifecycle(&mut self, t: u64, agent: u32, change: Membership) {
            if matches!(change, Membership::Leave | Membership::Hibernate) {
                if let Some(slot) = self.classes.get_mut(agent as usize) {
                    if let Some(AgentClass::Ranked(_)) = *slot {
                        self.rec
                            .rank_dwell
                            .record(t - self.rec.claimed_at[agent as usize]);
                    }
                    *slot = None;
                }
            }
            // The stored keys of the wrapped recorder stay empty, so its
            // own lifecycle only pushes the membership event.
            self.rec.lifecycle(t, agent, change);
        }
    }

    /// SplitMix64: the op script of one differential case.
    struct Script(u64);

    impl Script {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn class(&mut self) -> AgentClass {
            match self.below(5) {
                0 => AgentClass::Ranked(1 + self.below(8)),
                1 => AgentClass::Resetting,
                2 => AgentClass::Electing,
                3 => AgentClass::Waiting,
                _ => AgentClass::Phase(self.below(4) as u32),
            }
        }
    }

    /// The key-diffing recorder is bit-identical to the reference on
    /// random multi-lane boundaries (lengths around the chunk width, lanes at
    /// nonzero starts), with quiet fault scans and departures mixed in,
    /// and small rings so drops happen.
    #[test]
    fn key_diff_matches_the_per_agent_reference() {
        for seed in 0..48 {
            let mut script = Script(seed);
            let lens = [1usize, 15, 16, 17, 4097];
            let runs = 1 + script.below(3) as usize;
            let lanes: Vec<usize> = (0..runs)
                .map(|_| lens[script.below(lens.len() as u64) as usize])
                .collect();
            let starts: Vec<usize> = lanes
                .iter()
                .scan(0, |at, &len| {
                    let s = *at;
                    *at += len;
                    Some(s)
                })
                .collect();
            let n = starts[runs - 1] + lanes[runs - 1];
            let capacity = [8usize, 64, 1 << 12][script.below(3) as usize];
            // Per-agent change probability per step, in 1/64ths: from
            // almost-quiet (most chunks skipped) to churning.
            let churn = [1u64, 4, 32][script.below(3) as usize];
            let mut states: Vec<AgentClass> = (0..n).map(|_| script.class()).collect();
            let (mut rec, mut reference) =
                (Recorder::with_capacity(capacity), Reference::new(capacity));
            let mut t = 0u64;
            for _ in 0..40 {
                t += 1 + script.below(3);
                for s in states.iter_mut() {
                    if script.below(64) < churn {
                        *s = script.class();
                    }
                }
                match script.below(8) {
                    0 => {
                        let hit = rec.scan(t, 0, &states, true);
                        assert_eq!(hit, reference.scan(t, 0, &states, true), "seed {seed}");
                    }
                    1 => {
                        let agent = script.below(n as u64 + 2) as u32;
                        let change = [
                            Membership::Leave,
                            Membership::Hibernate,
                            Membership::Join,
                            Membership::Revive,
                        ][script.below(4) as usize];
                        rec.lifecycle(t, agent, change);
                        reference.lifecycle(t, agent, change);
                    }
                    _ => {
                        for (&start, &len) in starts.iter().zip(&lanes) {
                            let lane = &states[start..start + len];
                            rec.scan(t, start, lane, false);
                            reference.scan(t, start, lane, false);
                        }
                    }
                }
            }
            assert_eq!(rec.events(), reference.rec.events(), "seed {seed}");
            assert_eq!(rec.recorded(), reference.rec.recorded(), "seed {seed}");
            assert_eq!(rec.dropped(), reference.rec.dropped(), "seed {seed}");
            assert_eq!(
                rec.metrics().snapshot(),
                reference.rec.metrics().snapshot(),
                "seed {seed}"
            );
        }
    }
}
