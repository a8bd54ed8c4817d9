//! `STABLERANKING` (Protocol 3) — the paper's headline result, Theorem 2:
//! silent *self-stabilizing* ranking with `n + O(log² n)` states,
//! stabilizing in `O(n² log n)` interactions w.h.p. from **any** initial
//! configuration.
//!
//! The dispatcher composes three sub-protocols, mirroring Protocol 3 line
//! by line:
//!
//! 1. [`reset`] — `PROPAGATERESET` consumes the interaction when either
//!    agent is propagating or dormant (line 1);
//! 2. `FASTLEADERELECTION` runs when both agents are electing (lines 2–3),
//!    via [`leader_election::fast`];
//! 3. an electing agent meeting a main-state agent joins the main protocol
//!    as a phase-1 agent (lines 4–6);
//! 4. two main-state agents execute [`ranking_plus`] (lines 7–8);
//! 5. finally, the responder's synthetic coin is toggled (lines 9–10).

pub mod display;
pub mod kernel;
pub mod packed;
pub mod ranking_plus;
pub mod reset;
pub mod state;
pub mod tables;
pub mod words;

use leader_election::fast::{FastLe, FastLeEffect};
use population::{is_valid_ranking, Protocol};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::fseq::FSeq;
use crate::params::Params;
use crate::stable::ranking_plus::{ranking_plus_step, RpCtx};
use crate::stable::state::{MainKind, UnRole, UnState};
use crate::stable::tables::StepTables;
use telemetry::{Counter, Registry};

pub use crate::stable::packed::PackedState;
pub use crate::stable::state::StableState;

/// The self-stabilizing ranking protocol of Theorem 2.
///
/// The value is `Sync`: all transition state (`Params`, `FSeq`,
/// [`StepTables`]) is immutable after construction, and the
/// instrumentation lives in relaxed-atomic counters on the protocol's
/// [metrics registry](StableRanking::metrics), so threads may share one
/// protocol value without locking.
#[derive(Debug, Clone)]
pub struct StableRanking {
    params: Params,
    fseq: FSeq,
    fast: FastLe,
    tables: StepTables,
    metrics: Metrics,
}

/// Names of the four dispatch-mix counters on the metrics registry,
/// indexed like [`StableRanking::dispatch_mix`]:
/// `[reset-involved, both-electing, one-electing, main/main]`.
pub const DISPATCH_COUNTERS: [&str; 4] = [
    "dispatch_reset",
    "dispatch_both_elect",
    "dispatch_one_elect",
    "dispatch_main_main",
];

/// Name of the reset-event counter on the metrics registry.
pub const RESETS_COUNTER: &str = "resets_triggered";

/// The protocol's slice of the unified metrics registry: the reset-event
/// counter and the kernel's dispatch-mix counters, with the hot-path
/// handles the transition code updates through.
#[derive(Debug)]
struct Metrics {
    registry: Registry,
    resets: Counter,
    classes: [Counter; 4],
}

impl Metrics {
    fn new() -> Self {
        let mut registry = Registry::new();
        let resets = registry.counter(RESETS_COUNTER);
        let classes = DISPATCH_COUNTERS.map(|name| registry.counter(name));
        Self {
            registry,
            resets,
            classes,
        }
    }
}

impl Clone for Metrics {
    /// Cloning snapshots the counter *values* into a fresh registry:
    /// cloned protocol values count independently (the kernel's
    /// differential tests rely on this), matching the semantics of the
    /// per-value `AtomicU64` fields the registry replaced.
    fn clone(&self) -> Self {
        let fresh = Metrics::new();
        fresh.resets.add(self.resets.get());
        for (new, old) in fresh.classes.iter().zip(&self.classes) {
            new.add(old.get());
        }
        fresh
    }
}

impl StableRanking {
    /// Build the protocol for the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `L_max < 2·(⌈log₂ n⌉ + 1)`: a `FASTLEADERELECTION`
    /// winner needs `⌈log₂ n⌉ + 1` heads observations and must still hold
    /// `LECount ≥ L_max/2` to start the main phase (Protocol 5 line 9),
    /// so smaller budgets make electing a leader *impossible* and the
    /// protocol livelocks in reset → elect → timeout cycles. The paper's
    /// default `c_live = 4` always satisfies this.
    pub fn new(params: Params) -> Self {
        let fseq = params.fseq();
        let fast = FastLe::for_n(params.n(), params.c_live());
        assert!(
            fast.l_max >= 2 * (fast.coin_target + 1),
            "c_live = {} gives L_max = {} < 2(⌈log n⌉+1) = {}: the lottery can \
             never elect a leader (see Protocol 5 line 9)",
            params.c_live(),
            fast.l_max,
            2 * (fast.coin_target + 1)
        );
        let tables = StepTables::new(&params, &fseq, &fast);
        Self {
            params,
            fseq,
            fast,
            tables,
            metrics: Metrics::new(),
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The phase geometry in use.
    pub fn fseq(&self) -> &FSeq {
        &self.fseq
    }

    /// The embedded `FASTLEADERELECTION` parameters.
    pub fn fast_le(&self) -> &FastLe {
        &self.fast
    }

    /// The precomputed transition tables driving the packed hot path.
    pub fn tables(&self) -> &StepTables {
        &self.tables
    }

    /// Number of resets triggered so far across all interactions executed
    /// through this protocol value (experiment instrumentation) — a view
    /// of the [`RESETS_COUNTER`] counter on the
    /// [metrics registry](StableRanking::metrics). Shared across threads,
    /// the counter aggregates them (relaxed ordering: the total is exact
    /// once the threads have joined, but mid-run reads may lag).
    pub fn resets_triggered(&self) -> u64 {
        self.metrics.resets.get()
    }

    /// Per-class interaction counts executed through the block kernel
    /// ([`kernel`]), indexed
    /// `[reset-involved, both-electing, one-electing, main/main]`.
    ///
    /// Every pair of a block (`transition_block`, `transition_from`) is
    /// counted, at every `n` including the two-agent special case. The
    /// one-pair entries are not: the enum
    /// [`transition`](Protocol::transition) does not classify, and
    /// [`transition_packed`](population::PackedProtocol::transition_packed)
    /// runs the same word step as the kernel but flushes only its reset
    /// count. Single pairs are what [`Simulator::step`] executes.
    /// Pairs an engine skips in a valid ranking (silent fast-forward,
    /// see `population`'s crate docs) count as main/main, exactly as
    /// the kernel would have counted them.
    /// The `engine_throughput` bench records this dispatch mix alongside
    /// kernel throughput: a perf regression that coincides with a mix
    /// shift is a workload change, not a kernel change. Same relaxed
    /// aggregation semantics as
    /// [`resets_triggered`](StableRanking::resets_triggered); a view of
    /// the [`DISPATCH_COUNTERS`] counters on the
    /// [metrics registry](StableRanking::metrics).
    ///
    /// [`Simulator::step`]: population::Simulator::step
    pub fn dispatch_mix(&self) -> [u64; 4] {
        [0, 1, 2, 3].map(|c| self.metrics.classes[c].get())
    }

    /// The protocol's metrics registry: the single source of truth for
    /// its instrumentation ([`RESETS_COUNTER`], [`DISPATCH_COUNTERS`]),
    /// enumerable for trace emission alongside a `Recorder`'s own
    /// registry. Cloned protocol values get a fresh registry seeded with
    /// the current values (independent counting, see `Metrics::clone`).
    pub fn metrics(&self) -> &Registry {
        &self.metrics.registry
    }

    fn elect_state(&self, coin: bool) -> StableState {
        StableState::Un(UnState {
            coin,
            role: UnRole::Elect(self.fast.initial_state()),
        })
    }

    /// The clean-start elector state `q_{0,i}` with the given synthetic
    /// coin — the state a *freshly joined* agent enters the population
    /// in. This is the per-agent building block of
    /// [`initial`](StableRanking::initial), exposed so the dynamic
    /// engine (`crates/dynamic`) can spawn arrivals and locally re-seed
    /// agents whose state fell outside the space on an epoch shrink.
    pub fn elector(&self, coin: bool) -> StableState {
        self.elect_state(coin)
    }

    fn phase_state(&self, coin: bool, alive: u32, k: u32) -> StableState {
        StableState::Un(UnState {
            coin,
            role: UnRole::Main {
                alive,
                kind: MainKind::Phase(k),
            },
        })
    }

    // ------------------------------------------------------------------
    // Initial configurations
    // ------------------------------------------------------------------

    /// The "clean" start: every agent in the initial leader-election state
    /// `q_{0,i}` with alternating coins (Appendix C).
    pub fn initial(&self) -> Vec<StableState> {
        (0..self.params.n())
            .map(|i| self.elect_state(i % 2 == 0))
            .collect()
    }

    /// Figure 2's worst-case initialization: agents hold ranks `2 ..= n`
    /// and a single phase agent has phase 1 with a maximal liveness
    /// counter. Resetting from here requires detecting that rank 1 can
    /// never be... assigned without a duplicate — `Θ(n² log n)`
    /// interactions in expectation.
    pub fn figure2(&self) -> Vec<StableState> {
        let n = self.params.n();
        let mut states: Vec<StableState> = (2..=n as u64).map(StableState::Ranked).collect();
        states.push(self.phase_state(false, self.params.l_max(), 1));
        states
    }

    /// Figure 3's initialization: one agent is the rank-1 unaware leader,
    /// all others are still in a leader-election state.
    pub fn figure3(&self) -> Vec<StableState> {
        let n = self.params.n();
        let mut states = vec![StableState::Ranked(1)];
        states.extend((1..n).map(|i| self.elect_state(i % 2 == 0)));
        states
    }

    /// A uniformly random configuration over the (valid) state space —
    /// the adversarial initialization used by the self-stabilization
    /// tests. Deterministic in `seed`.
    pub fn adversarial_uniform(&self, seed: u64) -> Vec<StableState> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..self.params.n())
            .map(|_| self.random_state(&mut rng))
            .collect()
    }

    /// One uniformly random state from the (valid) state space — the
    /// per-agent building block of
    /// [`adversarial_uniform`](StableRanking::adversarial_uniform),
    /// exposed so fault injectors (the `scenarios` crate) can corrupt
    /// individual agents with fresh garbage mid-run.
    pub fn random_state(&self, rng: &mut SmallRng) -> StableState {
        let p = &self.params;
        let coin = rng.random_bool(0.5);
        match rng.random_range(0..6u8) {
            0 => StableState::Ranked(rng.random_range(1..=p.n() as u64)),
            1 => StableState::Un(UnState {
                coin,
                role: UnRole::Reset {
                    reset_count: rng.random_range(0..=p.r_max()),
                    delay_count: rng.random_range(1..=p.d_max()),
                },
            }),
            2 => {
                let leader_done = rng.random_bool(0.5);
                let is_leader = leader_done && rng.random_bool(0.3);
                StableState::Un(UnState {
                    coin,
                    role: UnRole::Elect(leader_election::fast::FastLeState {
                        le_count: rng.random_range(1..=self.fast.l_max),
                        coin_count: rng.random_range(0..=self.fast.coin_target),
                        leader_done,
                        is_leader,
                    }),
                })
            }
            3 => StableState::Un(UnState {
                coin,
                role: UnRole::Main {
                    alive: rng.random_range(1..=p.l_max()),
                    kind: MainKind::Waiting(rng.random_range(1..=p.wait_max())),
                },
            }),
            _ => self.phase_state(
                coin,
                rng.random_range(1..=p.l_max()),
                rng.random_range(1..=self.fseq.kmax()),
            ),
        }
    }

    /// Adversarial configuration where every agent holds the same rank —
    /// maximal duplication.
    pub fn all_same_rank(&self, rank: u64) -> Vec<StableState> {
        vec![StableState::Ranked(rank); self.params.n()]
    }

    /// Adversarial configuration where every agent is waiting.
    pub fn all_waiting(&self) -> Vec<StableState> {
        (0..self.params.n())
            .map(|i| {
                StableState::Un(UnState {
                    coin: i % 2 == 0,
                    role: UnRole::Main {
                        alive: self.params.l_max(),
                        kind: MainKind::Waiting(self.params.wait_max()),
                    },
                })
            })
            .collect()
    }

    /// Adversarial configuration where every agent is a phase agent at
    /// phase `k` — a *dead* configuration (no leader will ever appear
    /// without a reset).
    pub fn all_phase(&self, k: u32) -> Vec<StableState> {
        (0..self.params.n())
            .map(|i| self.phase_state(i % 2 == 0, self.params.l_max(), k))
            .collect()
    }

    /// The legal configuration: a permutation of ranks (stabilization
    /// target; useful for closure tests).
    pub fn legal(&self) -> Vec<StableState> {
        (1..=self.params.n() as u64)
            .map(StableState::Ranked)
            .collect()
    }

    fn rp_ctx(&self) -> RpCtx<'_> {
        RpCtx {
            fseq: &self.fseq,
            wait_max: self.params.wait_max(),
            l_max: self.params.l_max(),
            r_max: self.params.r_max(),
            d_max: self.params.d_max(),
        }
    }

    fn count_reset(&self) {
        self.metrics.resets.inc();
    }
}

impl Protocol for StableRanking {
    type State = StableState;

    fn n(&self) -> usize {
        self.params.n()
    }

    #[inline]
    fn transition(&self, u: &mut StableState, v: &mut StableState) -> bool {
        let before = (*u, *v);

        if reset::applicable(u, v) {
            // Protocol 3 line 1: propagate resets / wake dormant agents.
            reset::propagate_step(&self.fast, self.params.d_max(), u, v);
        } else if u.is_electing() && v.is_electing() {
            if self.params.n() == 2 {
                // Two-agent special case: the lottery of Protocol 5 is
                // structurally unwinnable at n = 2 — the lone responder's
                // synthetic coin toggles on every response (lines 9–10),
                // so one agent's successive coin observations strictly
                // alternate and the required two consecutive heads never
                // occur. With a single possible partner, anonymity buys
                // nothing: the initiator of the first elect–elect meeting
                // simply wins, deterministically, and starts the main
                // phase as the waiting leader.
                let coin = u.coin().expect("electing agents carry a coin");
                *u = StableState::Un(UnState {
                    coin,
                    role: UnRole::Main {
                        alive: self.params.l_max(),
                        kind: MainKind::Waiting(self.params.wait_max()),
                    },
                });
            }
            // Lines 2–3: both electing — run FASTLEADERELECTION for the
            // initiator, observing the responder's coin.
            else if let StableState::Un(UnState {
                coin,
                role: UnRole::Elect(le),
            }) = u
            {
                let coin_u = *coin;
                let v_coin = v.coin().expect("electing agents carry a coin");
                match self.fast.step(le, v_coin) {
                    FastLeEffect::None => {}
                    FastLeEffect::BecomeWaitingLeader => {
                        // Protocol 5 lines 10–11: forget the LE state and
                        // start the main phase as the waiting leader; the
                        // coin is maintained.
                        *u = StableState::Un(UnState {
                            coin: coin_u,
                            role: UnRole::Main {
                                alive: self.params.l_max(),
                                kind: MainKind::Waiting(self.params.wait_max()),
                            },
                        });
                    }
                    FastLeEffect::TimedOut => {
                        // Protocol 5 lines 13–15: no leader emerged in
                        // time — trigger a reset.
                        reset::trigger_reset(self.params.r_max(), self.params.d_max(), u);
                        self.count_reset();
                    }
                }
            }
        } else if u.is_electing() || v.is_electing() {
            // Lines 4–6: an electing agent meets a main-state agent: it
            // forgets everything but its coin and joins as a phase-1
            // agent with a fresh liveness counter.
            for slot in [&mut *u, &mut *v] {
                if slot.is_electing() {
                    let coin = slot.coin().expect("electing agents carry a coin");
                    *slot = self.phase_state(coin, self.params.l_max(), 1);
                }
            }
        } else {
            // Lines 7–8: both in main states — run Ranking⁺.
            let outcome = ranking_plus_step(&self.rp_ctx(), u, v);
            if outcome.reset_triggered {
                self.count_reset();
            }
        }

        // Lines 9–10: the responder's coin toggles if it has one.
        if let StableState::Un(un) = v {
            un.coin = !un.coin;
        }

        (*u, *v) != before
    }

    /// A valid ranking is silent: every agent is ranked with a distinct
    /// rank, and Ranking⁺ leaves two distinct ranked agents alone. The
    /// structured path counts no dispatch class, so nothing is credited.
    fn silent(&self, states: &[StableState]) -> bool {
        is_valid_ranking(states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leader_election::fast::FastLeState;
    use population::runner::run_seed_range;
    use population::silence::{first_active_pair, is_silent};
    use population::RankOutput;
    use population::{is_valid_ranking, Simulator};

    fn protocol(n: usize) -> StableRanking {
        StableRanking::new(Params::new(n))
    }

    /// Generous w.h.p. budget: c · n² · log₂ n.
    fn budget(n: usize, c: f64) -> u64 {
        (c * (n * n) as f64 * (n as f64).log2()).ceil() as u64
    }

    fn stabilizes_from(init: Vec<StableState>, n: usize, seed: u64, c: f64) -> Option<u64> {
        let p = protocol(n);
        let mut sim = Simulator::new(p, init, seed);
        let stop = sim.run_until(is_valid_ranking, budget(n, c), n as u64);
        let t = stop.converged_at()?;
        // Theorem 2 demands silence, not just validity.
        assert!(
            is_silent(sim.protocol(), sim.states()),
            "valid but not silent: active pair {:?}",
            first_active_pair(sim.protocol(), sim.states())
        );
        Some(t)
    }

    #[test]
    #[should_panic(expected = "never elect a leader")]
    fn rejects_unviable_lottery_budget() {
        // c_live = 1 gives L_max = ⌈log n⌉ < 2(⌈log n⌉+1): no agent can
        // ever win the lottery and still satisfy Protocol 5 line 9.
        let _ = StableRanking::new(Params::new(16).with_c_live(1.0));
    }

    #[test]
    fn legal_configuration_is_silent_closure() {
        // Closure property (end of Theorem 2's proof): a permutation of
        // ranks never changes under any ordered pair.
        for n in [2usize, 3, 8, 33] {
            let p = protocol(n);
            assert!(
                is_silent(&p, &p.legal()),
                "n={n}: legal configuration not silent"
            );
        }
    }

    #[test]
    fn responder_coin_toggles() {
        let p = protocol(8);
        let mut u = StableState::Ranked(1);
        let mut v = p.elect_state(false);
        // Ranked u meets electing v: v joins as phase agent (coin kept),
        // then the coin toggles.
        p.transition(&mut u, &mut v);
        assert_eq!(v.coin(), Some(true));
        assert_eq!(v.phase(), Some(1));
    }

    #[test]
    fn electing_meets_main_joins_as_phase_one() {
        let p = protocol(8);
        let mut u = p.elect_state(true);
        let mut v = StableState::Ranked(4);
        assert!(p.transition(&mut u, &mut v));
        assert_eq!(u.phase(), Some(1));
        assert_eq!(u.alive(), Some(p.params().l_max()));
        assert_eq!(u.coin(), Some(true), "initiator coin not toggled");
        assert_eq!(v, StableState::Ranked(4));
    }

    #[test]
    fn fast_le_winner_becomes_waiting_leader() {
        let p = protocol(8);
        // Agent one heads-observation away from winning.
        let mut u = StableState::Un(UnState {
            coin: true,
            role: UnRole::Elect(FastLeState {
                le_count: p.fast_le().l_max,
                coin_count: 0,
                leader_done: false,
                is_leader: false,
            }),
        });
        let mut v = p.elect_state(true); // responder coin = heads
        p.transition(&mut u, &mut v);
        assert!(u.is_waiting(), "lottery winner starts the main phase");
        assert_eq!(u.alive(), Some(p.params().l_max()));
    }

    #[test]
    fn fast_le_timeout_triggers_reset() {
        let p = protocol(8);
        let mut u = StableState::Un(UnState {
            coin: true,
            role: UnRole::Elect(FastLeState {
                le_count: 1,
                coin_count: 3,
                leader_done: true,
                is_leader: false,
            }),
        });
        let mut v = p.elect_state(false);
        p.transition(&mut u, &mut v);
        assert!(u.is_resetting(), "LECount hit 0 → triggered agent");
        assert_eq!(p.resets_triggered(), 1);
    }

    #[test]
    fn reset_branch_takes_priority() {
        let p = protocol(8);
        let mut u = StableState::Un(UnState {
            coin: false,
            role: UnRole::Reset {
                reset_count: 3,
                delay_count: p.params().d_max(),
            },
        });
        let mut v = p.elect_state(false);
        p.transition(&mut u, &mut v);
        assert!(v.is_resetting(), "electing agent infected by the reset");
    }

    #[test]
    fn two_agent_election_is_deterministic() {
        // n = 2: the lottery is unwinnable (the lone responder's coin
        // alternates), so the first elect–elect meeting elects the
        // initiator outright.
        let p = protocol(2);
        let mut u = p.elect_state(true);
        let mut v = p.elect_state(false);
        assert!(p.transition(&mut u, &mut v));
        assert!(u.is_waiting(), "initiator must win immediately");
        assert_eq!(u.alive(), Some(p.params().l_max()));
        assert_eq!(u.coin(), Some(true), "winner keeps its coin");
        assert!(v.is_electing(), "responder only toggles its coin");
        assert_eq!(p.resets_triggered(), 0);
    }

    #[test]
    fn stabilizes_at_n_equals_two() {
        // The boundary size Theorem 2 still covers; livelocked forever
        // before the deterministic two-agent election special case.
        let ok = run_seed_range(8, |seed| {
            let init = protocol(2).adversarial_uniform(seed.wrapping_mul(31) + 100);
            stabilizes_from(init, 2, seed, 8000.0).is_some()
        });
        let failures = ok.iter().filter(|b| !**b).count();
        assert_eq!(failures, 0, "{failures}/8 n=2 adversarial starts failed");
    }

    #[test]
    fn stabilizes_from_clean_start() {
        let n = 32;
        let ok = run_seed_range(8, |seed| {
            stabilizes_from(protocol(n).initial(), n, seed, 4000.0).is_some()
        });
        let failures = ok.iter().filter(|b| !**b).count();
        assert_eq!(failures, 0, "{failures}/8 clean starts failed");
    }

    #[test]
    fn stabilizes_from_adversarial_uniform() {
        let n = 24;
        let ok = run_seed_range(10, |seed| {
            let init = protocol(n).adversarial_uniform(seed.wrapping_mul(7919));
            stabilizes_from(init, n, seed, 6000.0).is_some()
        });
        let failures = ok.iter().filter(|b| !**b).count();
        assert_eq!(failures, 0, "{failures}/10 adversarial starts failed");
    }

    #[test]
    fn stabilizes_from_figure2_worst_case() {
        let n = 32;
        let ok = run_seed_range(6, |seed| {
            stabilizes_from(protocol(n).figure2(), n, seed, 6000.0).is_some()
        });
        let failures = ok.iter().filter(|b| !**b).count();
        assert_eq!(failures, 0, "{failures}/6 figure-2 starts failed");
    }

    #[test]
    fn stabilizes_from_figure3_init() {
        let n = 32;
        let ok = run_seed_range(6, |seed| {
            stabilizes_from(protocol(n).figure3(), n, seed, 6000.0).is_some()
        });
        let failures = ok.iter().filter(|b| !**b).count();
        assert_eq!(failures, 0, "{failures}/6 figure-3 starts failed");
    }

    #[test]
    fn stabilizes_from_all_same_rank() {
        let n = 24;
        let ok = run_seed_range(6, |seed| {
            stabilizes_from(protocol(n).all_same_rank(5), n, seed, 6000.0).is_some()
        });
        let failures = ok.iter().filter(|b| !**b).count();
        assert_eq!(failures, 0, "{failures}/6 all-same-rank starts failed");
    }

    #[test]
    fn stabilizes_from_all_waiting() {
        let n = 24;
        let ok = run_seed_range(6, |seed| {
            stabilizes_from(protocol(n).all_waiting(), n, seed, 6000.0).is_some()
        });
        let failures = ok.iter().filter(|b| !**b).count();
        assert_eq!(failures, 0, "{failures}/6 all-waiting starts failed");
    }

    #[test]
    fn stabilizes_from_dead_all_phase_configuration() {
        let n = 24;
        let kmax = protocol(n).fseq().kmax();
        for k in [1, kmax] {
            let ok = run_seed_range(4, |seed| {
                stabilizes_from(protocol(n).all_phase(k), n, seed, 6000.0).is_some()
            });
            let failures = ok.iter().filter(|b| !**b).count();
            assert_eq!(failures, 0, "{failures}/4 all-phase-{k} starts failed");
        }
    }

    #[test]
    fn stabilizes_for_non_power_of_two_sizes() {
        for n in [6usize, 13, 20, 27] {
            let ok = run_seed_range(4, |seed| {
                let init = protocol(n).adversarial_uniform(seed + 31);
                stabilizes_from(init, n, seed, 8000.0).is_some()
            });
            let failures = ok.iter().filter(|b| !**b).count();
            assert_eq!(failures, 0, "n={n}: {failures}/4 runs failed");
        }
    }

    #[test]
    fn figure2_initialization_matches_caption() {
        let p = protocol(256);
        let init = p.figure2();
        assert_eq!(init.len(), 256);
        let ranked: Vec<u64> = init.iter().filter_map(|s| s.rank()).collect();
        assert_eq!(ranked.len(), 255);
        assert_eq!(*ranked.iter().min().expect("nonempty"), 2);
        assert_eq!(*ranked.iter().max().expect("nonempty"), 256);
        let phase_agents: Vec<&StableState> = init.iter().filter(|s| s.phase().is_some()).collect();
        assert_eq!(phase_agents.len(), 1);
        assert_eq!(phase_agents[0].alive(), Some(p.params().l_max()));
    }

    #[test]
    fn duplicate_rank_meeting_eventually_resets_whole_population() {
        // From an all-same-rank configuration the very first interaction
        // triggers a reset; within O(n log n) the population is electing.
        let n = 16;
        let p = protocol(n);
        let init = p.all_same_rank(1);
        let mut sim = Simulator::new(p, init, 3);
        let stop = sim.run_until(
            |s| s.iter().all(|x| x.is_electing() || x.is_resetting()),
            200_000,
            4,
        );
        assert!(stop.converged_at().is_some(), "population never reset");
        assert!(sim.protocol().resets_triggered() >= 1);
    }
}
