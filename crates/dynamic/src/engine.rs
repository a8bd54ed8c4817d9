//! [`DynamicPopulation`]: the engine where `n` changes over time.
//!
//! # Structure
//!
//! The engine keeps the protocol's hot path untouched: interactions run
//! over a **dense active lane** (`Vec` of states, exactly like the
//! fixed-n [`Simulator`](population::Simulator)), through the fixed-n
//! engine's own block loop ([`advance_blocks`]), in `BLOCK_PAIRS` blocks
//! drawn from a plain [`Schedule`]. Dynamics happen only at block
//! boundaries:
//!
//! * the churn process ([`ChurnProcess`]) injects Poisson arrivals and
//!   exponential departures;
//! * departing agents route through **explicit rank release** into a
//!   FIFO free-list, which arrivals lease (entering directly ranked) —
//!   PR 5 showed silent replacement of a ranked agent livelocks FSeq
//!   forever, so disappearance is never silent here;
//! * when the live count drifts out of the [`EpochParams`] hysteresis
//!   band, thresholds are re-derived for the new population and the
//!   epoch rolls: in-flight agents keep their state wherever it is
//!   still inside the new state space and are locally re-seeded as
//!   fresh electors where it is not, so convergence restarts only where
//!   it must — never globally.
//!
//! On a live-count change the schedule is rebuilt *through its cursor*
//! ([`Schedule::from_cursor`]) with the same RNG words and the new
//! range, so the pair stream stays one continuous deterministic
//! sequence. Under a quiescent config nothing ever changes the live
//! count, the schedule is never rebuilt, and the trajectory is
//! **bit-for-bit** the fixed-n engine's (property-tested in
//! `tests/dynamic_equivalence.rs` across the enum and
//! kernel shapes).
//!
//! The shared block loop brings silent fast-forward with it. Once the
//! protocol certifies the lane silent ([`Protocol::silent`]; for the
//! ranking protocols, the live agents hold exactly the ranks `1..=L` of
//! the live count `L`), the rest of each run segment up to the next
//! lifecycle event or fault is skipped: the schedule jumps past the
//! pairs it would have drawn, and the trajectory stays bit for bit the
//! executing one (`tests/fast_forward.rs`). A membership change, an
//! epoch roll, a burst or a fault drops the certificate. A quiescent
//! run that has stabilized skips everything; under churn, departures
//! leave holes in the live ranks, so the certificate rarely holds.
//!
//! Everything observable goes through the engine's [`Registry`]
//! (`dyn_joins`, `dyn_leaves`, `dyn_hibernates`, `dyn_revives`,
//! `dyn_epochs`, `rank_reuse_dwell`) and the [`Probe::membership`] hook
//! (join / leave / hibernate / revive, by stable agent id).

use std::collections::VecDeque;

use population::silence::Certificate;
use population::{
    advance_blocks, drive, Capture, CursorSource, Engine, Frame, Membership, NoFaults, NoPoll,
    NoSaves, NullProbe, PackedProtocol, Probe, Protocol, RankOutput, Schedule, ScheduleCursor,
    WordState,
};
use ranking::stable::{PackedState, StableRanking, StableState};
use ranking::{EpochParams, Params};
use snapshot::bytes::{Reader, Writer};
use snapshot::{SimSnapshot, SnapshotError};
use telemetry::{Counter, Histogram, Registry};

use crate::churn::{ChurnConfig, ChurnProcess};
use crate::lifecycle::{AgentRecord, Lifecycle};

/// A ranking protocol a dynamic population can drive: constructible
/// from [`Params`] (for epoch re-parameterization), able to mint the
/// clean-start elector and direct-entry ranked states (for arrivals),
/// and rank-readable (for release and the validity metric).
///
/// Implemented for both fixed-n execution shapes — the structured enum
/// (`StableRanking`, the readable reference) and the packed block
/// kernel (`Packed<StableRanking>`) — so dynamic runs inherit the same
/// representation/performance menu as static ones.
pub trait DynRanking: Protocol + WordState {
    /// Build the protocol for the given parameters.
    fn with_params(params: Params) -> Self;

    /// The clean-start elector state `q₀` with the given synthetic
    /// coin — what a fresh (or locally re-seeded) agent enters as.
    fn fresh(&self, coin: bool) -> Self::State;

    /// The state holding `rank` outright — what a leased arrival
    /// enters as. `rank` must be within `1..=n` for the current
    /// parameters.
    fn ranked(&self, rank: u64) -> Self::State;

    /// The rank this state outputs, if any.
    fn rank_of(&self, state: &Self::State) -> Option<u64>;
}

impl DynRanking for StableRanking {
    fn with_params(params: Params) -> Self {
        StableRanking::new(params)
    }

    fn fresh(&self, coin: bool) -> StableState {
        self.elector(coin)
    }

    fn ranked(&self, rank: u64) -> StableState {
        debug_assert!(rank >= 1 && rank <= self.params().n() as u64);
        StableState::Ranked(rank)
    }

    fn rank_of(&self, state: &StableState) -> Option<u64> {
        state.rank()
    }
}

impl DynRanking for population::Packed<StableRanking> {
    fn with_params(params: Params) -> Self {
        population::Packed(StableRanking::new(params))
    }

    fn fresh(&self, coin: bool) -> PackedState {
        self.inner().pack(&self.inner().elector(coin))
    }

    fn ranked(&self, rank: u64) -> PackedState {
        debug_assert!(rank >= 1 && rank <= self.inner().params().n() as u64);
        self.inner().pack(&StableState::Ranked(rank))
    }

    fn rank_of(&self, state: &PackedState) -> Option<u64> {
        state.rank()
    }
}

/// The population never shrinks below this: a population protocol needs
/// two agents to interact at all. Departures that would cross the floor
/// are deferred by `DEFER_GAP` interactions and retried.
pub const MIN_LIVE: usize = 2;

/// Deferral applied to a departure blocked by the [`MIN_LIVE`] floor.
const DEFER_GAP: u64 = 1024;

/// A population whose size changes over time, running one of the
/// ranking protocols over its active lane.
///
/// See the module docs for the moving parts. Construction seeds the
/// lane with `params.n()` fresh electors (alternating coins — the same
/// initial configuration as `StableRanking::initial`), so a quiescent
/// run *is* the fixed-n run.
pub struct DynamicPopulation<P: DynRanking> {
    protocol: P,
    epoch: EpochParams,
    schedule: Schedule,
    interactions: u64,
    /// Whether the protocol certifies the lane silent; cleared whenever
    /// the lane or the protocol changes.
    silence: Certificate,
    /// Dense active lane the protocol interacts over.
    states: Vec<P::State>,
    /// Lane slot → stable agent id (parallel to `states`).
    ids: Vec<u32>,
    /// Agent id → lifecycle record.
    roster: Vec<AgentRecord>,
    /// Recyclable ids of departed agents.
    free_ids: Vec<u32>,
    /// Released ranks awaiting lease, oldest first: `(rank, released_at)`.
    free_ranks: VecDeque<(u64, u64)>,
    churn: ChurnProcess,
    metrics: Metrics,
}

/// The engine's [`Registry`] and the handles the engine updates.
struct Metrics {
    registry: Registry,
    joins: Counter,
    leaves: Counter,
    hibernates: Counter,
    revives: Counter,
    epochs: Counter,
    rank_reuse_dwell: Histogram,
}

impl Metrics {
    fn new() -> Self {
        let mut registry = Registry::new();
        Self {
            joins: registry.counter("dyn_joins"),
            leaves: registry.counter("dyn_leaves"),
            hibernates: registry.counter("dyn_hibernates"),
            revives: registry.counter("dyn_revives"),
            epochs: registry.counter("dyn_epochs"),
            rank_reuse_dwell: registry.histogram("rank_reuse_dwell"),
            registry,
        }
    }
}

impl<P: DynRanking> DynamicPopulation<P> {
    /// A dynamic population starting from `params.n()` fresh electors.
    pub fn new(params: Params, config: ChurnConfig, seed: u64) -> Self {
        let protocol = P::with_params(params.clone());
        let n = params.n();
        let mut churn = ChurnProcess::new(config, seed, 0);
        let states: Vec<P::State> = (0..n).map(|i| protocol.fresh(i % 2 == 0)).collect();
        let ids: Vec<u32> = (0..n as u32).collect();
        let roster: Vec<AgentRecord> = (0..n)
            .map(|slot| {
                let due = churn.lifetime().map_or(u64::MAX, |l| l);
                AgentRecord::active(slot as u32, due)
            })
            .collect();
        Self {
            protocol,
            epoch: EpochParams::new(params),
            schedule: Schedule::new(n, seed),
            interactions: 0,
            silence: Certificate::default(),
            states,
            ids,
            roster,
            free_ids: Vec::new(),
            free_ranks: VecDeque::new(),
            churn,
            metrics: Metrics::new(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Interactions executed so far.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Current live (active-lane) population size.
    pub fn live(&self) -> usize {
        self.states.len()
    }

    /// The active lane, in slot order.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Stable agent id per lane slot (parallel to [`states`](Self::states)).
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The full roster, indexed by agent id.
    pub fn roster(&self) -> &[AgentRecord] {
        &self.roster
    }

    /// The protocol currently driving the lane (rebuilt at each epoch).
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The epoch layer: current parameters, epoch number, and band.
    pub fn epoch(&self) -> &EpochParams {
        &self.epoch
    }

    /// Ranks currently awaiting lease, oldest first.
    pub fn free_ranks(&self) -> impl Iterator<Item = u64> + '_ {
        self.free_ranks.iter().map(|&(r, _)| r)
    }

    /// The engine's metrics: `dyn_joins`, `dyn_leaves`,
    /// `dyn_hibernates`, `dyn_revives`, `dyn_epochs`, and the
    /// `rank_reuse_dwell` histogram (interactions between a rank's
    /// release and its next lease).
    pub fn metrics(&self) -> &Registry {
        &self.metrics.registry
    }

    /// Fraction of live agents holding a valid rank: within
    /// `1..=n_nominal` (the current epoch's parameter `n`) and held by
    /// no other agent. The steady-state health metric of a churning
    /// run — 1.0 means the live population is perfectly ranked for the
    /// current regime.
    pub fn fraction_valid(&self) -> f64 {
        if self.states.is_empty() {
            return 0.0;
        }
        let nominal = self.epoch.params().n() as u64;
        let mut seen = vec![false; nominal as usize + 1];
        let mut valid = 0usize;
        for s in &self.states {
            if let Some(r) = self.protocol.rank_of(s) {
                if r >= 1 && r <= nominal && !seen[r as usize] {
                    seen[r as usize] = true;
                    valid += 1;
                }
            }
        }
        valid as f64 / self.states.len() as f64
    }

    // ------------------------------------------------------------------
    // Running
    // ------------------------------------------------------------------

    /// Execute `count` interactions (plus any lifecycle events falling
    /// due along the way). Faults and probes ride on
    /// [`drive`](fn@drive): the run splits exactly at fault fire points
    /// and lifecycle event times, and at a shared count faults fire
    /// first (matching the fixed-n engine's fault/checkpoint ordering),
    /// then membership changes apply.
    pub fn run(&mut self, count: u64) {
        drive(
            self,
            count,
            &mut NoFaults,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );
    }

    /// An active agent's lifetime ended: hibernate or leave for good.
    fn depart<B: Probe<P>>(&mut self, id: u32, now: u64, probe: &mut B) {
        if self.states.len() <= MIN_LIVE {
            // Below the interaction floor there is no protocol left to
            // stabilize; push the departure out and retry.
            self.roster[id as usize].due = now + DEFER_GAP;
            return;
        }
        let hibernate = self.churn.hibernates();
        let state = self.remove_from_lane(self.roster[id as usize].slot as usize);
        if hibernate {
            let parked = self.protocol.state_to_word(&state);
            let rank = self.protocol.rank_of(&state);
            let due = now + self.churn.hibernate_dwell();
            let rec = &mut self.roster[id as usize];
            rec.phase = Lifecycle::Hibernating;
            rec.parked = parked;
            rec.rank = rank;
            rec.due = due;
            self.metrics.hibernates.inc();
            if B::ACTIVE {
                probe.membership(&self.protocol, now, id, Membership::Hibernate);
            }
        } else {
            self.retire(id, &state, now);
            if B::ACTIVE {
                probe.membership(&self.protocol, now, id, Membership::Leave);
            }
        }
    }

    /// Agent `id`, already out of the lane holding `state`, leaves for
    /// good: its rank goes to the free-list and its id is recycled.
    fn retire(&mut self, id: u32, state: &P::State, now: u64) {
        if let Some(rank) = self.protocol.rank_of(state) {
            self.release_rank(rank, now);
        }
        let rec = &mut self.roster[id as usize];
        rec.phase = Lifecycle::Departed;
        rec.due = u64::MAX;
        rec.parked = 0;
        rec.rank = None;
        self.free_ids.push(id);
        self.metrics.leaves.inc();
    }

    /// A hibernating agent's dwell ended: release its reserved rank
    /// and go dormant. Internal — no membership event (the lane exit
    /// was already announced as `Hibernate`).
    fn go_dormant(&mut self, id: u32, now: u64) {
        let dwell = self.churn.dormant_dwell();
        let rec = &mut self.roster[id as usize];
        rec.phase = Lifecycle::Dormant;
        rec.due = now + dwell;
        if let Some(rank) = self.roster[id as usize].rank.take() {
            self.release_rank(rank, now);
        }
    }

    /// A dormant agent re-enters the lane. Its parked state is adopted
    /// only if it is still inside the current epoch's state space *and*
    /// unranked — the rank it once held was released at dormancy and
    /// may have been leased since, so a ranked parked word re-seeds as
    /// a fresh elector instead.
    fn revive<B: Probe<P>>(&mut self, id: u32, now: u64, probe: &mut B) {
        let state = match self
            .protocol
            .state_from_word(self.roster[id as usize].parked)
        {
            Ok(s) if self.protocol.rank_of(&s).is_none() => s,
            _ => {
                let coin = self.churn.coin();
                self.protocol.fresh(coin)
            }
        };
        let slot = self.states.len() as u32;
        self.states.push(state);
        self.ids.push(id);
        let due = self
            .churn
            .lifetime()
            .map_or(u64::MAX, |l| now.saturating_add(l));
        let rec = &mut self.roster[id as usize];
        rec.phase = Lifecycle::Active;
        rec.slot = slot;
        rec.parked = 0;
        rec.due = due;
        self.metrics.revives.inc();
        if B::ACTIVE {
            probe.membership(&self.protocol, now, id, Membership::Revive);
        }
    }

    /// A fresh agent arrives: lease the oldest free rank if the config
    /// allows (entering directly ranked), else enter as a clean
    /// elector.
    fn spawn<B: Probe<P>>(&mut self, now: u64, probe: &mut B) {
        let lease = if self.churn.config().rank_lease {
            self.free_ranks.pop_front()
        } else {
            None
        };
        let state = match lease {
            Some((rank, released_at)) => {
                self.metrics.rank_reuse_dwell.record(now - released_at);
                self.protocol.ranked(rank)
            }
            None => {
                let coin = self.churn.coin();
                self.protocol.fresh(coin)
            }
        };
        let id = match self.free_ids.pop() {
            Some(id) => id,
            None => {
                self.roster.push(AgentRecord::active(0, u64::MAX));
                (self.roster.len() - 1) as u32
            }
        };
        let due = self
            .churn
            .lifetime()
            .map_or(u64::MAX, |l| now.saturating_add(l));
        let slot = self.states.len() as u32;
        // The record passes through Spawning → Active atomically at
        // this arrival boundary (see `Lifecycle`).
        self.roster[id as usize] = AgentRecord {
            phase: Lifecycle::Active,
            slot,
            due,
            parked: 0,
            rank: None,
        };
        self.states.push(state);
        self.ids.push(id);
        self.metrics.joins.inc();
        if B::ACTIVE {
            probe.membership(&self.protocol, now, id, Membership::Join);
        }
    }

    /// Compact the lane: `swap_remove` the slot and re-point the moved
    /// agent's record. Returns the removed state.
    fn remove_from_lane(&mut self, slot: usize) -> P::State {
        let state = self.states.swap_remove(slot);
        self.ids.swap_remove(slot);
        if slot < self.ids.len() {
            let moved = self.ids[slot];
            self.roster[moved as usize].slot = slot as u32;
        }
        state
    }

    /// Push a released rank onto the free-list if it is inside the
    /// current parameter range (stale wider-epoch ranks are dropped).
    fn release_rank(&mut self, rank: u64, now: u64) {
        if rank >= 1 && rank <= self.epoch.params().n() as u64 {
            self.free_ranks.push_back((rank, now));
        }
    }

    /// Rebuild the schedule over the new live range, preserving the RNG
    /// stream through the cursor. Only called at event boundaries,
    /// where the block buffer is drained.
    fn resize_schedule(&mut self) {
        if self.schedule.n() == self.states.len() {
            return;
        }
        debug_assert_eq!(self.schedule.buffered(), 0, "resize inside a block");
        let cursor = self.schedule.cursor();
        let live = self.states.len() as u64;
        self.schedule = Schedule::from_cursor(ScheduleCursor {
            rng: cursor.rng,
            n: live,
            start: 0,
            len: live,
            pending: Vec::new(),
            topo: Vec::new(),
        });
    }

    /// If the live count left the hysteresis band, re-derive the
    /// parameters, rebuild the protocol, and hand the lane over to the
    /// new regime: states still inside the new state space are kept
    /// as-is, states outside it (possible only on a shrink — all
    /// derived bounds are monotone in `n`) are locally re-seeded as
    /// fresh electors. Free-list ranks beyond the new `n` are dropped.
    fn reparameterize(&mut self) {
        if self.epoch.observe(self.states.len()).is_none() {
            return;
        }
        self.metrics.epochs.inc();
        let params = self.epoch.params().clone();
        let old = std::mem::replace(&mut self.protocol, P::with_params(params));
        for slot in 0..self.states.len() {
            let word = old.state_to_word(&self.states[slot]);
            self.states[slot] = match self.protocol.state_from_word(word) {
                Ok(state) => state,
                Err(_) => {
                    let coin = self.churn.coin();
                    self.protocol.fresh(coin)
                }
            };
        }
        let nominal = self.epoch.params().n() as u64;
        self.free_ranks
            .retain(|&(rank, _)| rank >= 1 && rank <= nominal);
    }

    /// Deterministically apply a churn burst at the current interaction
    /// count: `leaves` forced departures (front lane slot first,
    /// stopping at the [`MIN_LIVE`] floor), then `joins` arrivals
    /// (leasing freed ranks when the config allows). Bypasses the
    /// stochastic process but routes through the same leave/join
    /// bookkeeping — rank release, counters, schedule rebuild, epoch
    /// check — so a burst is exactly a compressed stretch of churn.
    /// Used by the `dynamic` bench to measure re-stabilization lag.
    pub fn inject_burst(&mut self, leaves: usize, joins: usize) {
        let now = self.interactions;
        for _ in 0..leaves {
            if self.states.len() <= MIN_LIVE {
                break;
            }
            let id = self.ids[0];
            let state = self.remove_from_lane(0);
            self.retire(id, &state, now);
        }
        for _ in 0..joins {
            self.spawn(now, &mut NullProbe);
        }
        self.silence.clear();
        self.resize_schedule();
        self.reparameterize();
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// Rebuild an engine from a snapshot carrying a DYNPOP section.
    /// Every field is validated — a corrupt or cross-wired snapshot
    /// yields [`SnapshotError::Malformed`], never a panic or a silently
    /// wrong trajectory. Metrics counters restart from zero (they are
    /// observability, not trajectory state).
    pub fn restore(snap: &SimSnapshot) -> Result<Self, SnapshotError> {
        let malformed = |what: &str| SnapshotError::Malformed(format!("DYNPOP: {what}"));
        if snap.dynpop.is_empty() {
            return Err(malformed("section missing (fixed-n snapshot?)"));
        }
        let mut r = Reader::new(&snap.dynpop, "DYNPOP");

        let finite = |bits: u64, what: &'static str| {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                Ok(v)
            } else {
                Err(malformed(what))
            }
        };
        let arrivals = finite(r.u64()?, "non-finite arrival rate")?;
        let lifetime = finite(r.u64()?, "non-finite lifetime")?;
        let hibernate_prob = finite(r.u64()?, "non-finite hibernate prob")?;
        let hib_dwell = finite(r.u64()?, "non-finite hibernate dwell")?;
        let dorm_dwell = finite(r.u64()?, "non-finite dormant dwell")?;
        if arrivals < 0.0 || lifetime < 0.0 || hib_dwell < 0.0 || dorm_dwell < 0.0 {
            return Err(malformed("negative rate"));
        }
        if !(0.0..=1.0).contains(&hibernate_prob) {
            return Err(malformed("hibernate prob outside [0, 1]"));
        }
        let rank_lease = match r.u16()? {
            0 => false,
            1 => true,
            _ => return Err(malformed("bad rank-lease flag")),
        };
        let config = ChurnConfig {
            arrivals_per_million: arrivals,
            mean_lifetime: lifetime,
            hibernate_prob,
            mean_hibernate_dwell: hib_dwell,
            mean_dormant_dwell: dorm_dwell,
            rank_lease,
        };

        let epoch_no = r.u64()?;
        let nominal = r.u64()?;
        if !(2..=u32::MAX as u64).contains(&nominal) {
            return Err(malformed("nominal n outside [2, u32::MAX]"));
        }
        let band = finite(r.u64()?, "non-finite band")?;
        if !(0.0 < band && band < 1.0) {
            return Err(malformed("band outside (0, 1)"));
        }
        let c = |bits: u64, what: &'static str| {
            let v = f64::from_bits(bits);
            if v.is_finite() && v > 0.0 && v <= 1.0e9 {
                Ok(v)
            } else {
                Err(malformed(what))
            }
        };
        let params = Params::new(nominal as usize)
            .with_c_wait(c(r.u64()?, "bad c_wait")?)
            .with_c_live(c(r.u64()?, "bad c_live")?)
            .with_c_reset(c(r.u64()?, "bad c_reset")?)
            .with_c_delay(c(r.u64()?, "bad c_delay")?);

        let churn_rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        if churn_rng == [0; 4] {
            return Err(malformed("all-zero churn RNG state"));
        }
        let next_arrival = r.u64()?;

        let count = r.count(4)?;
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            ids.push(r.u32()?);
        }
        let count = r.count(2 + 4 + 8 + 8 + 2)?;
        let mut roster = Vec::with_capacity(count);
        for _ in 0..count {
            let phase = Lifecycle::from_tag(r.u16()?).ok_or_else(|| malformed("bad phase tag"))?;
            let slot = r.u32()?;
            let due = r.u64()?;
            let parked = r.u64()?;
            let rank = match r.u16()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(malformed("bad rank tag")),
            };
            roster.push(AgentRecord {
                phase,
                slot,
                due,
                parked,
                rank,
            });
        }
        let count = r.count(4)?;
        let mut free_ids = Vec::with_capacity(count);
        for _ in 0..count {
            free_ids.push(r.u32()?);
        }
        let count = r.count(16)?;
        let mut free_ranks = VecDeque::with_capacity(count);
        for _ in 0..count {
            free_ranks.push_back((r.u64()?, r.u64()?));
        }
        if r.remaining() != 0 {
            return Err(malformed("trailing bytes"));
        }

        // Cross-checks against the frame.
        let frame = &snap.frame;
        if frame.cursors.len() != 1 {
            return Err(malformed("expected exactly one schedule cursor"));
        }
        let cursor = &frame.cursors[0];
        let live = frame.words.len();
        if ids.len() != live {
            return Err(malformed("lane id count does not match frame words"));
        }
        if live < MIN_LIVE {
            return Err(malformed("live population below the floor"));
        }
        if cursor.start != 0 || cursor.len != live as u64 || cursor.n != live as u64 {
            return Err(malformed("schedule cursor does not span the lane"));
        }
        if cursor.rng == [0; 4] {
            return Err(malformed("all-zero schedule RNG state"));
        }
        if cursor
            .pending
            .iter()
            .any(|&(i, j)| i == j || i.max(j) as usize >= live)
        {
            return Err(malformed("pending pair outside the lane or a self-pair"));
        }
        let mut in_lane = vec![false; roster.len()];
        for (slot, &id) in ids.iter().enumerate() {
            let rec = roster
                .get(id as usize)
                .ok_or_else(|| malformed("lane id outside roster"))?;
            if in_lane[id as usize] {
                return Err(malformed("duplicate lane id"));
            }
            in_lane[id as usize] = true;
            if rec.phase != Lifecycle::Active || rec.slot != slot as u32 {
                return Err(malformed("roster record disagrees with lane"));
            }
        }
        let active = roster
            .iter()
            .filter(|rec| rec.phase == Lifecycle::Active)
            .count();
        if active != live {
            return Err(malformed("active roster count does not match lane"));
        }
        for &id in &free_ids {
            match roster.get(id as usize) {
                Some(rec) if rec.phase == Lifecycle::Departed => {}
                _ => return Err(malformed("free id is not a departed agent")),
            }
        }
        for &(rank, _) in &free_ranks {
            if rank < 1 || rank > nominal {
                return Err(malformed("free rank outside 1..=n"));
            }
        }

        let protocol = P::with_params(params.clone());
        let states = frame
            .words
            .iter()
            .map(|&w| {
                protocol
                    .state_from_word(w)
                    .map_err(|e| SnapshotError::Malformed(format!("DYNPOP lane word: {e}")))
            })
            .collect::<Result<Vec<P::State>, SnapshotError>>()?;

        let schedule = Schedule::from_cursor(ScheduleCursor {
            rng: cursor.rng,
            n: cursor.n,
            start: cursor.start,
            len: cursor.len,
            pending: cursor.pending.clone(),
            topo: Vec::new(),
        });
        Ok(Self {
            protocol,
            epoch: EpochParams::restore(params, epoch_no, band),
            schedule,
            interactions: frame.interactions,
            silence: Certificate::default(),
            states,
            ids,
            roster,
            free_ids,
            free_ranks,
            churn: ChurnProcess::restore(config, churn_rng, next_arrival),
            metrics: Metrics::new(),
        })
    }
}

/// Lifecycle events are the engine's own due source: the driver splits
/// the run at the next one and applies them after the faults due at the
/// same count.
impl<P: DynRanking> Engine for DynamicPopulation<P> {
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

    /// Earliest pending lifecycle event (arrival or roster due time),
    /// strictly in the future after [`settle`](Engine::settle).
    fn next_event(&self) -> Option<u64> {
        let mut next = self.churn.next_arrival();
        for rec in &self.roster {
            if rec.due == u64::MAX {
                continue;
            }
            if matches!(
                rec.phase,
                Lifecycle::Active | Lifecycle::Hibernating | Lifecycle::Dormant
            ) {
                next = Some(next.map_or(rec.due, |t| t.min(rec.due)));
            }
        }
        next
    }

    /// Apply every lifecycle event due at the current interaction
    /// count, in a fixed deterministic order: roster transitions in
    /// ascending agent id, then arrivals. Rebuilds the schedule and
    /// checks the epoch band afterwards if anything changed.
    fn settle<B: Probe<P>>(&mut self, probe: &mut B) {
        let now = self.interactions;
        let mut dirty = false;
        for id in 0..self.roster.len() as u32 {
            let rec = &self.roster[id as usize];
            if rec.due > now {
                continue;
            }
            match rec.phase {
                Lifecycle::Active => self.depart(id, now, probe),
                Lifecycle::Hibernating => self.go_dormant(id, now),
                Lifecycle::Dormant => self.revive(id, now, probe),
                // Spawning/Departed records never carry due times.
                Lifecycle::Spawning | Lifecycle::Departed => {}
            }
            dirty = true;
        }
        while self.churn.next_arrival().is_some_and(|t| t <= now) {
            self.churn.pop_arrival();
            self.spawn(now, probe);
            dirty = true;
        }
        if dirty {
            self.silence.clear();
            self.resize_schedule();
            self.reparameterize();
        }
    }
}

/// A dynamic run's position is its lane frame plus the DYNPOP section,
/// so every save through the run driver carries both, and
/// [`DynamicPopulation::restore`] rebuilds the exact trajectory from
/// them.
impl<P: DynRanking> Capture for DynamicPopulation<P> {
    /// The lane words in slot order plus the schedule cursor.
    fn frame(&self) -> Frame {
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

    /// The DYNPOP section payload: churn config, epoch layer, churn RNG
    /// cursor, lane ids, roster, and both free-lists.
    fn section(&self) -> Vec<u8> {
        let mut w = Writer::new();
        let config = self.churn.config();
        w.u64(config.arrivals_per_million.to_bits());
        w.u64(config.mean_lifetime.to_bits());
        w.u64(config.hibernate_prob.to_bits());
        w.u64(config.mean_hibernate_dwell.to_bits());
        w.u64(config.mean_dormant_dwell.to_bits());
        w.u16(config.rank_lease as u16);
        let params = self.epoch.params();
        w.u64(self.epoch.epoch());
        w.u64(params.n() as u64);
        w.u64(self.epoch.band().to_bits());
        w.u64(params.c_wait().to_bits());
        w.u64(params.c_live().to_bits());
        w.u64(params.c_reset().to_bits());
        w.u64(params.c_delay().to_bits());
        for word in self.churn.rng_state() {
            w.u64(word);
        }
        w.u64(self.churn.next_arrival().unwrap_or(u64::MAX));
        w.u32(self.ids.len() as u32);
        for &id in &self.ids {
            w.u32(id);
        }
        w.u32(self.roster.len() as u32);
        for rec in &self.roster {
            w.u16(rec.phase.tag());
            w.u32(rec.slot);
            w.u64(rec.due);
            w.u64(rec.parked);
            match rec.rank {
                Some(rank) => {
                    w.u16(1);
                    w.u64(rank);
                }
                None => w.u16(0),
            }
        }
        w.u32(self.free_ids.len() as u32);
        for &id in &self.free_ids {
            w.u32(id);
        }
        w.u32(self.free_ranks.len() as u32);
        for &(rank, released_at) in &self.free_ranks {
            w.u64(rank);
            w.u64(released_at);
        }
        w.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::{Checkpointer, MemoryCheckpointer, Saves, Simulator};
    use snapshot::Meta;

    fn snap_counter(engine: &DynamicPopulation<StableRanking>, name: &str) -> u64 {
        engine.metrics().snapshot().counter(name).unwrap_or(0)
    }

    #[test]
    fn zero_churn_matches_the_fixed_n_engine() {
        let n = 32;
        let seed = 99;
        let mut dynpop =
            DynamicPopulation::<StableRanking>::new(Params::new(n), ChurnConfig::quiescent(), seed);
        let protocol = StableRanking::new(Params::new(n));
        let mut sim = Simulator::new(protocol.clone(), protocol.initial(), seed);
        for _ in 0..4 {
            dynpop.run(10_000);
            sim.run_batched(10_000);
            assert_eq!(dynpop.states(), sim.states());
            assert_eq!(dynpop.interactions(), sim.interactions());
        }
        assert_eq!(dynpop.live(), n);
        assert_eq!(snap_counter(&dynpop, "dyn_joins"), 0);
        assert_eq!(snap_counter(&dynpop, "dyn_leaves"), 0);
    }

    #[test]
    fn churn_rerun_is_bit_identical() {
        let make = || {
            DynamicPopulation::<StableRanking>::new(
                Params::new(64),
                ChurnConfig::poisson(200.0, 50_000.0),
                1234,
            )
        };
        let (mut a, mut b) = (make(), make());
        a.run(200_000);
        b.run(200_000);
        assert_eq!(a.states(), b.states());
        assert_eq!(a.ids(), b.ids());
        assert_eq!(a.roster(), b.roster());
        assert_eq!(a.interactions(), b.interactions());
        assert!(
            snap_counter(&a, "dyn_joins") > 0 && snap_counter(&a, "dyn_leaves") > 0,
            "the churn config should actually churn"
        );
    }

    #[test]
    fn departure_releases_the_rank_and_an_arrival_leases_it() {
        let config = ChurnConfig {
            arrivals_per_million: 0.0,
            mean_lifetime: 0.0,
            hibernate_prob: 0.0,
            mean_hibernate_dwell: 0.0,
            mean_dormant_dwell: 0.0,
            rank_lease: true,
        };
        let mut engine = DynamicPopulation::<StableRanking>::new(Params::new(8), config, 5);
        engine.states[0] = engine.protocol.ranked(5);
        engine.roster[0].due = 10;
        engine.run(10);
        assert_eq!(engine.live(), 7);
        assert_eq!(engine.roster()[0].phase, Lifecycle::Departed);
        assert_eq!(engine.free_ranks().collect::<Vec<_>>(), vec![5]);
        assert_eq!(snap_counter(&engine, "dyn_leaves"), 1);

        let now = engine.interactions();
        engine.spawn(now, &mut NullProbe);
        assert_eq!(engine.live(), 8);
        let leased = engine.states().last().unwrap();
        assert_eq!(engine.protocol().rank_of(leased), Some(5));
        assert!(engine.free_ranks().next().is_none(), "rank was consumed");
        let metrics = engine.metrics().snapshot();
        let dwell = metrics.histogram("rank_reuse_dwell").unwrap();
        assert_eq!(dwell.count, 1);
        assert_eq!(snap_counter(&engine, "dyn_joins"), 1);
        // The departed id was recycled for the arrival.
        assert_eq!(*engine.ids().last().unwrap(), 0);
    }

    #[test]
    fn hibernation_parks_and_revives() {
        let config = ChurnConfig {
            arrivals_per_million: 0.0,
            mean_lifetime: 0.0,
            hibernate_prob: 1.0,
            mean_hibernate_dwell: 20.0,
            mean_dormant_dwell: 20.0,
            rank_lease: true,
        };
        let mut engine = DynamicPopulation::<StableRanking>::new(Params::new(8), config, 21);
        engine.roster[0].due = 5;
        engine.run(5);
        assert_eq!(engine.roster()[0].phase, Lifecycle::Hibernating);
        assert_eq!(engine.live(), 7);
        assert_eq!(snap_counter(&engine, "dyn_hibernates"), 1);
        // Run long enough for dormancy and revival to fall due.
        engine.run(2_000);
        assert_eq!(engine.roster()[0].phase, Lifecycle::Active);
        assert_eq!(engine.live(), 8);
        assert_eq!(snap_counter(&engine, "dyn_revives"), 1);
        assert_eq!(snap_counter(&engine, "dyn_leaves"), 0);
    }

    #[test]
    fn growth_rolls_the_epoch_and_keeps_every_state_decodable() {
        let config = ChurnConfig {
            arrivals_per_million: 10_000.0, // one join per ~100 interactions
            mean_lifetime: 0.0,             // immortal: growth only
            hibernate_prob: 0.0,
            mean_hibernate_dwell: 0.0,
            mean_dormant_dwell: 0.0,
            rank_lease: true,
        };
        let mut engine = DynamicPopulation::<StableRanking>::new(Params::new(16), config, 77);
        engine.run(5_000);
        assert!(engine.live() > 20, "live population should have grown");
        assert!(engine.epoch().epoch() >= 1, "epoch should have rolled");
        assert_eq!(
            engine.epoch().params().n(),
            engine.protocol().params().n(),
            "protocol must follow the epoch parameters"
        );
        assert!(snap_counter(&engine, "dyn_epochs") >= 1);
        // Every lane state must round-trip under the current protocol.
        for s in engine.states() {
            let word = engine.protocol().state_to_word(s);
            assert!(engine.protocol().state_from_word(word).is_ok());
        }
    }

    #[test]
    fn the_live_floor_defers_departures() {
        let config = ChurnConfig {
            arrivals_per_million: 0.0,
            mean_lifetime: 500.0, // everyone wants to die, no one arrives
            hibernate_prob: 0.0,
            mean_hibernate_dwell: 0.0,
            mean_dormant_dwell: 0.0,
            rank_lease: true,
        };
        let mut engine = DynamicPopulation::<StableRanking>::new(Params::new(2), config, 9);
        engine.run(50_000);
        assert_eq!(engine.live(), MIN_LIVE);
        assert_eq!(snap_counter(&engine, "dyn_leaves"), 0);
    }

    /// The snapshot a [`SnapshotSink`](snapshot::SnapshotSink) would
    /// write for `engine` now: saved through the run driver's save path.
    fn saved(engine: &DynamicPopulation<StableRanking>) -> SimSnapshot {
        let mut ckpt = MemoryCheckpointer::every(1);
        Saves::save(&mut ckpt, engine, &NoFaults);
        let (frame, fault) = ckpt.saved.pop().expect("one save");
        SimSnapshot {
            meta: Meta::bare("dyn-test", 0),
            frame,
            fault,
            observer: Vec::new(),
            dynpop: ckpt.sections.pop().expect("one section"),
        }
    }

    #[test]
    fn snapshot_restores_the_exact_trajectory() {
        let mut a = DynamicPopulation::<StableRanking>::new(
            Params::new(48),
            ChurnConfig::poisson(300.0, 30_000.0),
            7,
        );
        a.run(100_000);
        let encoded = saved(&a).encode();
        let decoded = SimSnapshot::decode(&encoded).expect("snapshot round-trips");
        let mut b =
            DynamicPopulation::<StableRanking>::restore(&decoded).expect("restore succeeds");
        assert_eq!(a.states(), b.states());
        assert_eq!(a.ids(), b.ids());
        a.run(50_000);
        b.run(50_000);
        assert_eq!(a.states(), b.states());
        assert_eq!(a.ids(), b.ids());
        assert_eq!(a.roster(), b.roster());
        assert_eq!(a.interactions(), b.interactions());
        assert_eq!(
            a.free_ranks().collect::<Vec<_>>(),
            b.free_ranks().collect::<Vec<_>>()
        );
    }

    #[test]
    fn restore_rejects_a_fixed_n_snapshot_and_corrupt_sections() {
        let engine = DynamicPopulation::<StableRanking>::new(
            Params::new(16),
            ChurnConfig::poisson(100.0, 10_000.0),
            3,
        );
        let mut snap = saved(&engine);
        let good = snap.dynpop.clone();

        snap.dynpop = Vec::new();
        assert!(DynamicPopulation::<StableRanking>::restore(&snap).is_err());

        // Truncation at every boundary must error, never panic.
        for cut in 0..good.len() {
            snap.dynpop = good[..cut].to_vec();
            assert!(
                DynamicPopulation::<StableRanking>::restore(&snap).is_err(),
                "truncation at {cut} must be rejected"
            );
        }

        // A frame/dynpop mismatch is caught by the cross-checks.
        snap.dynpop = good;
        snap.frame.words.pop();
        assert!(DynamicPopulation::<StableRanking>::restore(&snap).is_err());
    }

    #[test]
    fn restore_rejects_a_pending_pair_outside_the_lane_or_a_self_pair() {
        let engine = DynamicPopulation::<StableRanking>::new(
            Params::new(16),
            ChurnConfig::poisson(100.0, 10_000.0),
            3,
        );
        for pair in [(3, 16), (2, 2)] {
            let mut snap = saved(&engine);
            snap.frame.cursors[0].pending = vec![pair];
            assert!(
                matches!(
                    DynamicPopulation::<StableRanking>::restore(&snap),
                    Err(SnapshotError::Malformed(_))
                ),
                "pending pair {pair:?}"
            );
            assert!(
                matches!(
                    SimSnapshot::decode(&snap.encode()),
                    Err(SnapshotError::Malformed(_))
                ),
                "pending pair {pair:?}"
            );
        }
    }

    /// A checkpointer that keeps frames only.
    struct FramesOnly(Vec<Frame>);

    impl Checkpointer for FramesOnly {
        const ACTIVE: bool = true;

        fn next_due(&mut self, _now: u64) -> Option<u64> {
            self.0.is_empty().then_some(1_000)
        }

        fn save(&mut self, frame: &Frame, _fault: Option<&population::FaultState>) {
            self.0.push(frame.clone());
        }
    }

    #[test]
    #[should_panic(expected = "cannot keep the engine's section")]
    fn a_frame_only_checkpointer_cannot_save_a_dynamic_run() {
        let mut engine = DynamicPopulation::<StableRanking>::new(
            Params::new(16),
            ChurnConfig::poisson(100.0, 10_000.0),
            3,
        );
        let mut ckpt = FramesOnly(Vec::new());
        drive(
            &mut engine,
            2_000,
            &mut NoFaults,
            &mut ckpt,
            &mut NoPoll,
            &mut NullProbe,
        );
    }

    #[test]
    fn fraction_valid_counts_distinct_in_range_ranks() {
        let mut engine =
            DynamicPopulation::<StableRanking>::new(Params::new(4), ChurnConfig::quiescent(), 1);
        let p = engine.protocol.clone();
        engine.states = vec![p.ranked(1), p.ranked(2), p.ranked(3), p.ranked(4)];
        assert_eq!(engine.fraction_valid(), 1.0);
        engine.states[3] = p.ranked(2); // duplicate
        assert_eq!(engine.fraction_valid(), 0.75);
        engine.states[2] = p.fresh(true); // unranked
        assert_eq!(engine.fraction_valid(), 0.5);
    }

    #[test]
    fn enum_and_kernel_shapes_run_under_churn() {
        let mut structured = DynamicPopulation::<StableRanking>::new(
            Params::new(32),
            ChurnConfig::poisson(150.0, 40_000.0),
            11,
        );
        structured.run(50_000);
        assert!(structured.live() >= MIN_LIVE);

        let mut kernel = DynamicPopulation::<population::Packed<StableRanking>>::new(
            Params::new(32),
            ChurnConfig::poisson(150.0, 40_000.0),
            11,
        );
        kernel.run(50_000);
        assert!(kernel.live() >= MIN_LIVE);
        // Same seed, same config: both shapes share one trajectory.
        assert_eq!(
            structured.states(),
            &kernel.protocol.unpack_all(kernel.states())[..]
        );
        assert_eq!(structured.ids(), kernel.ids());
    }
}
