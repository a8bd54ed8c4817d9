//! Hook composition: every subset of the run driver's four hook slots —
//! faults, saves, poll, probe — leaves the trajectory alone and hands
//! each hook the same due times, on every engine.
//!
//! The hooks under test are a fault hook that records its fire times and
//! leaves the states untouched, a `MemoryCheckpointer`, an observer that
//! never stops, and a `Recorder`. Each of the 16 subsets runs on the
//! sequential engine, the sharded engine at 1 and 4 shards, and the
//! dynamic engine with zero churn. A run must end bit-for-bit on the
//! plain run's configuration. The 4-shard trajectory depends on where
//! bursts split, so its plain reference is issued in the same bursts:
//! split at the union of the active hooks' due times.
//!
//! A final case composes a real `FaultPlan` with all hooks, a
//! `MemoryCheckpointer` included, on the three engines that share a
//! trajectory (sequential, 1 shard, zero churn).

use silent_ranking::dynamic::{ChurnConfig, DynamicPopulation};
use silent_ranking::population::observe::Control;
use silent_ranking::population::{
    drive, Engine, Every, FaultHook, FaultState, HookState, MemoryCheckpointer, NoFaults, NoPoll,
    NoSaves, NullProbe, Observer, Packed, Protocol, Saves, Simulator, UnpackedHook,
};
use silent_ranking::ranking::stable::{PackedState, StableRanking, StableState};
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::{ranking_faults, FaultPlan};
use silent_ranking::shard::ShardedSimulator;
use silent_ranking::telemetry::{EventKind, Recorder};

type P = Packed<StableRanking>;

const N: usize = 24;
const SEED: u64 = 9;
/// Ends on a save, a fire and a poll at once, so deadline hooks are
/// covered.
const BUDGET: u64 = 21_000;
/// Fire times: one at the start, one shared with a save, a double one
/// shared with a poll, one at the deadline, and one past it.
const FIRES: [u64; 7] = [0, 333, 3_000, 5_000, 5_000, 21_000, 30_000];
const SAVE_EVERY: u64 = 3_000;
const POLL_EVERY: u64 = 2_500;

const FAULTS: u8 = 1;
const SAVES: u8 = 2;
const POLL: u8 = 4;
const PROBE: u8 = 8;

/// A fault hook that fires at fixed times, records them, and leaves the
/// configuration untouched.
#[derive(Default)]
struct Fires {
    next: usize,
    fired: Vec<u64>,
}

impl<Q: Protocol> FaultHook<Q> for Fires {
    fn next_fire(&mut self, now: u64) -> Option<u64> {
        FIRES.get(self.next).map(|&t| t.max(now))
    }

    fn fire(&mut self, _protocol: &Q, t: u64, _states: &mut [Q::State]) {
        self.next += 1;
        self.fired.push(t);
    }
}

impl HookState for Fires {
    fn export_state(&self) -> Option<FaultState> {
        None
    }

    fn import_state(&mut self, _state: &FaultState) -> Result<(), String> {
        Ok(())
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

/// What the hooks of one run saw.
#[derive(Debug, PartialEq)]
struct Seen {
    fires: Vec<u64>,
    saves: Vec<u64>,
    polls: Vec<u64>,
    /// The recorder's fault events.
    traced_faults: Vec<u64>,
    /// The recorder's checkpoint events.
    traced_polls: Vec<(u64, bool)>,
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

/// Drive `$engine` for [`BUDGET`] under the hook subset `$mask`.
macro_rules! run_subset {
    ($engine:expr, $mask:expr) => {{
        let mask: u8 = $mask;
        let mut fires = Fires::default();
        let mut ckpt = MemoryCheckpointer::every(SAVE_EVERY);
        let mut polls = Polls::default();
        let mut rec = Recorder::new();
        pick!(mask & FAULTS != 0, &mut fires, &mut NoFaults, |h| {
            pick!(mask & SAVES != 0, &mut ckpt, &mut NoSaves, |c| {
                pick!(
                    mask & POLL != 0,
                    &mut Every(POLL_EVERY, &mut polls),
                    &mut NoPoll,
                    |o| {
                        pick!(mask & PROBE != 0, &mut rec, &mut NullProbe, |b| {
                            drive($engine, BUDGET, h, c, o, b);
                        })
                    }
                )
            })
        });
        Seen {
            fires: fires.fired,
            saves: ckpt.saved.iter().map(|(f, _)| f.interactions).collect(),
            polls: polls.0,
            traced_faults: traced(&rec, |k| matches!(k, EventKind::Fault { .. }))
                .map(|(t, _)| t)
                .collect(),
            traced_polls: traced(&rec, |k| matches!(k, EventKind::Checkpoint { .. }))
                .map(|(t, k)| (t, k == EventKind::Checkpoint { stopping: true }))
                .collect(),
        }
    }};
}

fn traced(
    rec: &Recorder,
    keep: impl Fn(EventKind) -> bool,
) -> impl Iterator<Item = (u64, EventKind)> {
    rec.events()
        .into_iter()
        .filter(move |e| keep(e.kind))
        .map(|e| (e.t, e.kind))
}

/// The due times each active hook of `mask` must see in a
/// [`BUDGET`]-long run from zero.
fn expected(mask: u8) -> Seen {
    let fires: Vec<u64> = FIRES.iter().copied().filter(|&t| t <= BUDGET).collect();
    let saves: Vec<u64> = (1..=BUDGET / SAVE_EVERY).map(|k| k * SAVE_EVERY).collect();
    let mut polls: Vec<u64> = (0..=BUDGET / POLL_EVERY).map(|k| k * POLL_EVERY).collect();
    polls.push(BUDGET);
    let on = |bit: u8| mask & bit != 0;
    let probe = on(PROBE);
    Seen {
        traced_faults: if probe && on(FAULTS) {
            fires.clone()
        } else {
            vec![]
        },
        traced_polls: if probe && on(POLL) {
            polls.iter().map(|&t| (t, t == BUDGET)).collect()
        } else {
            vec![]
        },
        fires: if on(FAULTS) { fires } else { vec![] },
        saves: if on(SAVES) { saves } else { vec![] },
        polls: if on(POLL) { polls } else { vec![] },
    }
}

/// The interaction counts inside the run where the hooks of `mask` split
/// it, in order, followed by the deadline.
fn split_points(mask: u8) -> Vec<u64> {
    let due = expected(mask);
    let mut points: Vec<u64> = [due.fires, due.saves, due.polls]
        .concat()
        .into_iter()
        .filter(|&t| t > 0)
        .chain([BUDGET])
        .collect();
    points.sort_unstable();
    points.dedup();
    points
}

fn protocol() -> StableRanking {
    StableRanking::new(Params::new(N))
}

fn init() -> Vec<PackedState> {
    Packed(protocol()).pack_all(&protocol().adversarial_uniform(SEED))
}

fn sequential() -> Simulator<P> {
    Simulator::new(Packed(protocol()), init(), SEED)
}

fn sharded(shards: usize) -> ShardedSimulator<P> {
    ShardedSimulator::new(Packed(protocol()), init(), SEED, shards)
}

fn dynamic() -> DynamicPopulation<P> {
    DynamicPopulation::new(Params::new(N), ChurnConfig::quiescent(), SEED)
}

#[test]
fn every_hook_subset_is_inert_on_the_sequential_engine() {
    let mut plain = sequential();
    plain.run(BUDGET);
    for mask in 0..16 {
        let mut sim = sequential();
        let seen = run_subset!(&mut sim, mask);
        assert_eq!(seen, expected(mask), "mask={mask:04b}");
        assert_eq!(sim.states(), plain.states(), "mask={mask:04b}");
        assert_eq!(sim.interactions(), BUDGET);
    }
}

#[test]
fn every_hook_subset_is_inert_on_the_sharded_engine() {
    for shards in [1, 4] {
        let mut whole = sharded(shards);
        whole.run(BUDGET);
        for mask in 0..16 {
            let mut sim = sharded(shards);
            let seen = run_subset!(&mut sim, mask);
            assert_eq!(seen, expected(mask), "shards={shards} mask={mask:04b}");
            let reference = if shards == 1 {
                whole.states().to_vec()
            } else {
                let mut bursts = sharded(shards);
                let mut at = 0;
                for t in split_points(mask) {
                    bursts.run(t - at);
                    at = t;
                }
                bursts.into_states()
            };
            assert_eq!(sim.states(), reference, "shards={shards} mask={mask:04b}");
            assert_eq!(sim.interactions(), BUDGET);
        }
    }
}

#[test]
fn every_hook_subset_is_inert_on_the_dynamic_engine() {
    let mut plain = dynamic();
    plain.run(BUDGET);
    for mask in 0..16 {
        let mut pop = dynamic();
        let seen = run_subset!(&mut pop, mask);
        assert_eq!(seen, expected(mask), "mask={mask:04b}");
        assert_eq!(pop.states(), plain.states(), "mask={mask:04b}");
        assert_eq!(pop.interactions(), BUDGET);
    }
}

/// The plain sharded reference really depends on the split points at 4
/// shards, so the reference above is not vacuous.
#[test]
fn four_shard_trajectory_depends_on_the_split_points() {
    let mut whole = sharded(4);
    whole.run(BUDGET);
    let mut bursts = sharded(4);
    let mut at = 0;
    for t in split_points(FAULTS | SAVES | POLL) {
        bursts.run(t - at);
        at = t;
    }
    assert_ne!(whole.states(), bursts.states());
}

/// What a run under a real plan and all its hooks produced.
#[derive(Debug, PartialEq)]
struct Outcome {
    states: Vec<PackedState>,
    fired: Vec<u64>,
    polls: Vec<u64>,
    traced_faults: Vec<(u64, EventKind)>,
    traced_polls: Vec<(u64, EventKind)>,
}

type Plan = UnpackedHook<FaultPlan<StableState>>;

fn plan() -> Plan {
    UnpackedHook::new(
        FaultPlan::new(SEED ^ 0xC0)
            .once(0, ranking_faults::corrupt(&protocol(), 3))
            .periodic(
                4_000,
                6_000,
                ranking_faults::standard("churn", &protocol(), N),
            ),
    )
}

/// Run `engine` under a real fault plan, `saves`, an observer and a
/// recorder.
fn run_all<E, C>(engine: &mut E, saves: &mut C) -> Outcome
where
    E: Engine<Protocol = P>,
    C: Saves<E, Plan>,
{
    let mut faults = plan();
    let mut polls = Polls::default();
    let mut rec = Recorder::new();
    drive(
        engine,
        BUDGET,
        &mut faults,
        saves,
        &mut Every(POLL_EVERY, &mut polls),
        &mut rec,
    );
    Outcome {
        states: engine.view(|s| s.to_vec()),
        fired: faults.inner().fired().iter().map(|f| f.at).collect(),
        polls: polls.0,
        traced_faults: traced(&rec, |k| matches!(k, EventKind::Fault { .. })).collect(),
        traced_polls: traced(&rec, |k| matches!(k, EventKind::Checkpoint { .. })).collect(),
    }
}

#[test]
fn a_fault_plan_with_every_hook_agrees_across_engines() {
    let mut seq_saves = MemoryCheckpointer::every(SAVE_EVERY);
    let mut shard_saves = MemoryCheckpointer::every(SAVE_EVERY);
    let mut dyn_saves = MemoryCheckpointer::every(SAVE_EVERY);
    let seq = run_all(&mut sequential_from_initial(), &mut seq_saves);
    let one_shard = run_all(&mut sharded_from_initial(), &mut shard_saves);
    let zero_churn = run_all(&mut dynamic(), &mut dyn_saves);

    assert_eq!(seq.fired, vec![0, 4_000, 10_000, 16_000]);
    let mut plain = sequential_from_initial();
    plain.run(BUDGET);
    assert_ne!(seq.states, plain.states(), "the plan must perturb the run");
    assert_eq!(one_shard, seq);
    assert_eq!(zero_churn, seq);
    let frames = |c: &MemoryCheckpointer| -> Vec<(u64, Vec<u64>)> {
        c.saved
            .iter()
            .map(|(f, _)| (f.interactions, f.words.clone()))
            .collect()
    };
    assert_eq!(frames(&shard_saves), frames(&seq_saves));
    assert_eq!(frames(&dyn_saves), frames(&seq_saves));
    assert_eq!(seq_saves.saved.len(), (BUDGET / SAVE_EVERY) as usize);
    // Only the dynamic engine has a section, and every save carries it.
    assert!(seq_saves.sections.iter().all(Vec::is_empty));
    assert!(dyn_saves.sections.iter().all(|s| !s.is_empty()));
}

/// The sequential engine from the dynamic engine's initial
/// configuration, so the three engines share a trajectory.
fn sequential_from_initial() -> Simulator<P> {
    let init = Packed(protocol()).pack_all(&protocol().initial());
    Simulator::new(Packed(protocol()), init, SEED)
}

/// The 1-shard engine from the dynamic engine's initial configuration.
fn sharded_from_initial() -> ShardedSimulator<P> {
    let init = Packed(protocol()).pack_all(&protocol().initial());
    ShardedSimulator::new(Packed(protocol()), init, SEED, 1)
}
