//! Composable fault injectors and the [`FaultPlan`] that schedules them.
//!
//! A [`Fault`] is a state corruption: given mutable access to the whole
//! configuration and a seeded RNG, it rewrites some agents. A
//! [`FaultPlan`] binds faults to *firing schedules* — exact interaction
//! counts ([`FaultPlan::once`]), fixed periods ([`FaultPlan::periodic`]),
//! or stochastic per-interaction rates ([`FaultPlan::poisson`]) — and
//! implements [`population::FaultHook`], so the run driver
//! ([`population::drive`](fn@population::drive)) splits its batched
//! loop exactly at the scheduled counts.
//!
//! Faults only ever mutate agent states. The pair stream is untouched,
//! which is what keeps an **empty plan bit-for-bit
//! trajectory-equivalent** to an unfaulted run (property-tested in
//! `tests/fault_recovery.rs`).
//!
//! Generic injectors live here ([`StateRewrite`], [`DuplicateRank`],
//! [`EraseRank`], [`MapStates`]); ready-made constructors for the
//! paper's `StableRanking` are in [`crate::ranking_faults`].

use population::{FaultHook, Protocol, RankOutput};
use rand::rngs::SmallRng;
use rand::{RngCore, RngExt, SeedableRng};

use crate::util::distinct_from;

/// A single kind of state corruption, applied to the whole configuration.
pub trait Fault<S> {
    /// Short stable identifier, used in recovery events and artifacts
    /// (e.g. `"corrupt"`, `"duplicate_rank"`).
    fn name(&self) -> &'static str;

    /// Corrupt `states` in place, drawing any randomness from `rng`.
    fn apply(&mut self, states: &mut [S], rng: &mut SmallRng);
}

impl<S> Fault<S> for Box<dyn Fault<S>> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn apply(&mut self, states: &mut [S], rng: &mut SmallRng) {
        self.as_mut().apply(states, rng);
    }
}

/// Rewrites `k` distinct, uniformly chosen agents with freshly generated
/// states (all agents when `k >= n`).
///
/// One mechanism, three scenario flavors distinguished by name and by
/// the generator you pass:
///
/// * [`corrupt`](StateRewrite::corrupt) — transient memory corruption:
///   `make` returns uniform garbage from the state space;
/// * [`churn`](StateRewrite::churn) — agent replacement: `make` returns
///   the protocol's fresh-joiner state, modeling an adversary swapping
///   agents out for factory-new ones;
/// * [`randomize`](StateRewrite::randomize) — full-population
///   randomization, the harshest transient fault.
#[derive(Debug, Clone)]
pub struct StateRewrite<F> {
    name: &'static str,
    k: usize,
    make: F,
}

impl<F> StateRewrite<F> {
    /// Transient corruption of `k` uniformly chosen agents.
    pub fn corrupt(k: usize, make: F) -> Self {
        Self::named("corrupt", k, make)
    }

    /// Churn: replace `k` uniformly chosen agents with fresh joiners.
    pub fn churn(k: usize, make: F) -> Self {
        Self::named("churn", k, make)
    }

    /// Rewrite the entire population.
    pub fn randomize(make: F) -> Self {
        Self::named("randomize", usize::MAX, make)
    }

    /// A rewrite fault with a custom scenario name.
    pub fn named(name: &'static str, k: usize, make: F) -> Self {
        Self { name, k, make }
    }
}

impl<S, F: FnMut(&mut SmallRng) -> S> Fault<S> for StateRewrite<F> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn apply(&mut self, states: &mut [S], rng: &mut SmallRng) {
        let n = states.len();
        let k = self.k.min(n);
        if k == n {
            for s in states.iter_mut() {
                *s = (self.make)(rng);
            }
            return;
        }
        // Partial Fisher–Yates: the first k slots of `idx` end up holding
        // k distinct uniform indices.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = rng.random_range(i..n);
            idx.swap(i, j);
            states[idx[i]] = (self.make)(rng);
        }
    }
}

/// Copies one uniformly chosen *ranked* agent's state onto `copies`
/// other agents, injecting duplicate ranks — the exact inconsistency the
/// paper's unaware-leader design must detect via the duplicate-meeting
/// argument (`Θ(n² log n)` expected interactions).
///
/// No-op when no agent is ranked. Victims are drawn with replacement, so
/// *up to* `copies` duplicates are created.
#[derive(Debug, Clone, Copy)]
pub struct DuplicateRank {
    copies: usize,
}

impl DuplicateRank {
    /// Duplicate one ranked state onto `copies` victims.
    pub fn new(copies: usize) -> Self {
        assert!(copies >= 1, "duplicating zero times is a no-op");
        Self { copies }
    }
}

impl<S: RankOutput + Clone> Fault<S> for DuplicateRank {
    fn name(&self) -> &'static str {
        "duplicate_rank"
    }

    fn apply(&mut self, states: &mut [S], rng: &mut SmallRng) {
        let ranked: Vec<usize> = (0..states.len())
            .filter(|&i| states[i].rank().is_some())
            .collect();
        if ranked.is_empty() || states.len() < 2 {
            return;
        }
        let src = ranked[rng.random_range(0..ranked.len())];
        for _ in 0..self.copies {
            let victim = distinct_from(rng, states.len(), src);
            states[victim] = states[src].clone();
        }
    }
}

/// Erases the ranks of up to `k` uniformly chosen ranked agents,
/// replacing each with a generated (unranked) state — rank *loss*, the
/// complement of [`DuplicateRank`]'s rank duplication.
#[derive(Debug, Clone)]
pub struct EraseRank<F> {
    k: usize,
    make: F,
}

impl<F> EraseRank<F> {
    /// Erase up to `k` ranks, replacing the victims with `make(rng)`.
    pub fn new(k: usize, make: F) -> Self {
        Self { k, make }
    }
}

impl<S: RankOutput, F: FnMut(&mut SmallRng) -> S> Fault<S> for EraseRank<F> {
    fn name(&self) -> &'static str {
        "erase_rank"
    }

    fn apply(&mut self, states: &mut [S], rng: &mut SmallRng) {
        let mut ranked: Vec<usize> = (0..states.len())
            .filter(|&i| states[i].rank().is_some())
            .collect();
        let k = self.k.min(ranked.len());
        for i in 0..k {
            let j = rng.random_range(i..ranked.len());
            ranked.swap(i, j);
            states[ranked[i]] = (self.make)(rng);
        }
    }
}

/// Applies a closure to every agent state — the escape hatch for
/// protocol-specific corruptions (e.g. biasing every synthetic coin to
/// one side; see [`crate::ranking_faults::coin_bias`]).
#[derive(Debug, Clone)]
pub struct MapStates<F> {
    name: &'static str,
    f: F,
}

impl<F> MapStates<F> {
    /// A whole-population map fault with the given scenario name.
    pub fn new(name: &'static str, f: F) -> Self {
        Self { name, f }
    }
}

impl<S, F: FnMut(&mut S, &mut SmallRng)> Fault<S> for MapStates<F> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn apply(&mut self, states: &mut [S], rng: &mut SmallRng) {
        for s in states.iter_mut() {
            (self.f)(s, rng);
        }
    }
}

/// One fault firing, as recorded in the plan's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFault {
    /// Interaction count at which the fault was applied.
    pub at: u64,
    /// The fault's [`Fault::name`].
    pub name: &'static str,
}

#[derive(Debug, Clone, Copy)]
enum Timing {
    Once,
    Periodic { every: u64 },
    Poisson { rate: f64 },
}

struct Entry<S> {
    fault: Box<dyn Fault<S>>,
    timing: Timing,
    next: Option<u64>,
}

impl<S> std::fmt::Debug for Entry<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("fault", &self.fault.name())
            .field("timing", &self.timing)
            .field("next", &self.next)
            .finish()
    }
}

/// A schedule of faults over a run, built fluently:
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::RngExt;
/// use scenarios::fault::{FaultPlan, StateRewrite};
///
/// let plan: FaultPlan<u32> = FaultPlan::new(7)
///     .once(
///         10_000,
///         StateRewrite::corrupt(4, |rng: &mut SmallRng| rng.random_range(0..100u32)),
///     )
///     .periodic(
///         50_000,
///         50_000,
///         StateRewrite::randomize(|_: &mut SmallRng| 0u32),
///     );
/// assert!(!plan.is_empty());
/// ```
///
/// The plan owns its own RNG (seeded independently of the scheduler), so
/// fault randomness never perturbs pair selection, and every fired fault
/// is appended to a [`log`](FaultPlan::fired) with its exact interaction
/// count — the timestamps the recovery observer pairs with
/// re-stabilization times.
#[derive(Debug)]
pub struct FaultPlan<S> {
    rng: SmallRng,
    entries: Vec<Entry<S>>,
    log: Vec<FiredFault>,
}

impl<S> FaultPlan<S> {
    /// An empty plan whose fault RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            entries: Vec::new(),
            log: Vec::new(),
        }
    }

    /// An empty plan (never fires): a run under this plan is
    /// trajectory-equivalent to `run_batched`.
    pub fn empty() -> Self {
        Self::new(0)
    }

    /// Fire `fault` once, after exactly `at` interactions.
    pub fn once(mut self, at: u64, fault: impl Fault<S> + 'static) -> Self {
        self.entries.push(Entry {
            fault: Box::new(fault),
            timing: Timing::Once,
            next: Some(at),
        });
        self
    }

    /// Fire `fault` at `start`, then every `every` interactions forever.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn periodic(mut self, start: u64, every: u64, fault: impl Fault<S> + 'static) -> Self {
        assert!(every > 0, "period must be positive");
        self.entries.push(Entry {
            fault: Box::new(fault),
            timing: Timing::Periodic { every },
            next: Some(start),
        });
        self
    }

    /// Fire `fault` stochastically at per-interaction rate `rate`
    /// (geometric inter-arrival times, expected `1/rate` interactions
    /// apart), deterministically in the plan's seed.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < rate <= 1`.
    pub fn poisson(mut self, rate: f64, fault: impl Fault<S> + 'static) -> Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "rate must be a per-interaction probability in (0, 1]"
        );
        let first = geometric(&mut self.rng, rate);
        self.entries.push(Entry {
            fault: Box::new(fault),
            timing: Timing::Poisson { rate },
            next: Some(first),
        });
        self
    }

    /// Does this plan contain no faults at all?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every fault fired so far, in firing order, with exact interaction
    /// counts.
    pub fn fired(&self) -> &[FiredFault] {
        &self.log
    }

    /// The earliest pending fire time across all entries, if any.
    pub fn peek_next(&self) -> Option<u64> {
        self.entries.iter().filter_map(|e| e.next).min()
    }

    /// Resolve `name` to the `&'static str` of the entry that carries
    /// it, if any — the interning step of checkpoint import: fired-log
    /// names come back from disk as owned strings, and re-anchoring
    /// them on the reconstructed plan's entries both restores the
    /// zero-allocation log representation and rejects logs that don't
    /// belong to this plan.
    pub fn intern_name(&self, name: &str) -> Option<&'static str> {
        self.entries
            .iter()
            .map(|e| e.fault.name())
            .find(|&n| n == name)
    }
}

/// The checkpoint seam: a plan's trajectory-determining state is its
/// RNG (Poisson inter-arrival draws and fault randomness share it), the
/// per-entry next-fire times, and the fired log. Faults themselves are
/// *not* serialized — the restoring caller reconstructs the plan from
/// the same experiment parameters (same builder calls, same seed), then
/// imports the dynamic position on top. [`import_state`] checks the
/// structural agreement it can (entry count, log names) and the
/// snapshot layer's CRCs cover the rest.
///
/// [`import_state`]: population::HookState::import_state
impl<S> population::HookState for FaultPlan<S> {
    fn export_state(&self) -> Option<population::FaultState> {
        Some(population::FaultState {
            rng: self.rng.state(),
            next: self.entries.iter().map(|e| e.next).collect(),
            fired: self
                .log
                .iter()
                .map(|f| (f.at, f.name.to_string()))
                .collect(),
        })
    }

    fn import_state(&mut self, state: &population::FaultState) -> Result<(), String> {
        if state.next.len() != self.entries.len() {
            return Err(format!(
                "fault state has {} entries, plan has {}",
                state.next.len(),
                self.entries.len()
            ));
        }
        let log = state
            .fired
            .iter()
            .map(|(at, name)| {
                self.intern_name(name)
                    .map(|interned| FiredFault {
                        at: *at,
                        name: interned,
                    })
                    .ok_or_else(|| format!("fired log names unknown fault {name:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.rng = SmallRng::from_state(state.rng);
        for (e, next) in self.entries.iter_mut().zip(&state.next) {
            e.next = *next;
        }
        self.log = log;
        Ok(())
    }
}

/// Geometric inter-arrival draw: the number of interactions (≥ 1) until
/// the next success of a Bernoulli(`rate`) trial per interaction.
fn geometric(rng: &mut SmallRng, rate: f64) -> u64 {
    if rate >= 1.0 {
        return 1;
    }
    // Uniform in (0, 1]: flip the usual [0, 1) mantissa draw away from 0
    // so ln() is finite.
    let u = 1.0 - (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let k = (u.ln() / (1.0 - rate).ln()).floor();
    1 + k.min(u64::MAX as f64 / 2.0) as u64
}

impl<P: Protocol> FaultHook<P> for FaultPlan<P::State> {
    fn next_fire(&mut self, _now: u64) -> Option<u64> {
        self.peek_next()
    }

    fn fire(&mut self, _protocol: &P, t: u64, states: &mut [P::State]) {
        let rng = &mut self.rng;
        let log = &mut self.log;
        for e in &mut self.entries {
            if e.next.is_some_and(|due| due <= t) {
                e.fault.apply(states, rng);
                log.push(FiredFault {
                    at: t,
                    name: e.fault.name(),
                });
                e.next = match e.timing {
                    Timing::Once => None,
                    Timing::Periodic { every } => Some(t + every),
                    Timing::Poisson { rate } => Some(t + geometric(rng, rate)),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::{drive, NoPoll, NoSaves, NullProbe, Simulator};

    /// Counts interactions on each side (same as the engine's test
    /// protocol); faults zero the counters.
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

    fn zeroing() -> StateRewrite<impl FnMut(&mut SmallRng) -> (u64, u64)> {
        StateRewrite::randomize(|_: &mut SmallRng| (0, 0))
    }

    #[test]
    fn once_fires_exactly_once_at_the_scheduled_count() {
        let mut sim = Simulator::new(Count(8), vec![(0, 0); 8], 1);
        let mut plan = FaultPlan::new(3).once(500, zeroing());
        drive(
            &mut sim,
            2000,
            &mut plan,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );
        assert_eq!(
            plan.fired(),
            &[FiredFault {
                at: 500,
                name: "randomize"
            }]
        );
        let total: u64 = sim.states().iter().map(|s| s.0).sum();
        assert_eq!(total, 1500, "only post-fault interactions survive");
    }

    #[test]
    fn periodic_fires_on_the_grid() {
        let mut sim = Simulator::new(Count(8), vec![(0, 0); 8], 1);
        let mut plan = FaultPlan::new(3).periodic(100, 300, zeroing());
        drive(
            &mut sim,
            1000,
            &mut plan,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );
        let times: Vec<u64> = plan.fired().iter().map(|f| f.at).collect();
        assert_eq!(times, vec![100, 400, 700, 1000]);
    }

    #[test]
    fn poisson_interarrivals_match_the_rate_roughly() {
        let mut sim = Simulator::new(Count(8), vec![(0, 0); 8], 1);
        let mut plan = FaultPlan::new(9).poisson(0.001, zeroing());
        drive(
            &mut sim,
            1_000_000,
            &mut plan,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );
        let count = plan.fired().len();
        // Expected 1000 firings; a very loose 5-sigma-ish band.
        assert!(
            (800..1200).contains(&count),
            "poisson fired {count} times, expected ~1000"
        );
        let times: Vec<u64> = plan.fired().iter().map(|f| f.at).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    }

    #[test]
    fn poisson_is_deterministic_in_the_plan_seed() {
        let run = |seed| {
            let mut sim = Simulator::new(Count(8), vec![(0, 0); 8], 1);
            let mut plan = FaultPlan::new(seed).poisson(0.01, zeroing());
            drive(
                &mut sim,
                10_000,
                &mut plan,
                &mut NoSaves,
                &mut NoPoll,
                &mut NullProbe,
            );
            plan.fired().to_vec()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn composed_plans_fire_all_entries() {
        let mut sim = Simulator::new(Count(8), vec![(0, 0); 8], 1);
        let mut plan = FaultPlan::new(3)
            .once(200, StateRewrite::corrupt(2, |_: &mut SmallRng| (9, 9)))
            .once(200, zeroing());
        drive(
            &mut sim,
            300,
            &mut plan,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );
        let names: Vec<&str> = plan.fired().iter().map(|f| f.name).collect();
        assert_eq!(names, vec!["corrupt", "randomize"]);
    }

    #[test]
    fn state_rewrite_hits_exactly_k_distinct_agents() {
        let mut states = vec![(1u64, 1u64); 50];
        let mut rng = SmallRng::seed_from_u64(7);
        let mut f = StateRewrite::corrupt(20, |_: &mut SmallRng| (0, 0));
        f.apply(&mut states, &mut rng);
        let zeroed = states.iter().filter(|&&s| s == (0, 0)).count();
        assert_eq!(zeroed, 20);
    }

    struct R(Option<u64>);
    impl RankOutput for R {
        fn rank(&self) -> Option<u64> {
            self.0
        }
    }
    impl Clone for R {
        fn clone(&self) -> Self {
            R(self.0)
        }
    }

    #[test]
    fn duplicate_rank_creates_a_duplicate() {
        let mut states: Vec<R> = (1..=10).map(|r| R(Some(r))).collect();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut f = DuplicateRank::new(1);
        Fault::<R>::apply(&mut f, &mut states, &mut rng);
        let mut ranks: Vec<u64> = states.iter().filter_map(|s| s.0).collect();
        ranks.sort_unstable();
        let distinct = {
            let mut d = ranks.clone();
            d.dedup();
            d.len()
        };
        assert_eq!(ranks.len(), 10);
        assert_eq!(distinct, 9, "exactly one duplicated rank");
    }

    #[test]
    fn duplicate_rank_is_a_noop_without_ranked_agents() {
        let mut states = vec![R(None), R(None)];
        let mut rng = SmallRng::seed_from_u64(1);
        Fault::<R>::apply(&mut DuplicateRank::new(3), &mut states, &mut rng);
        assert!(states.iter().all(|s| s.0.is_none()));
    }

    #[test]
    fn erase_rank_unranks_k_agents() {
        let mut states: Vec<R> = (1..=10).map(|r| R(Some(r))).collect();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut f = EraseRank::new(4, |_: &mut SmallRng| R(None));
        f.apply(&mut states, &mut rng);
        assert_eq!(states.iter().filter(|s| s.0.is_none()).count(), 4);
    }

    #[test]
    fn plan_state_round_trip_resumes_the_fault_schedule() {
        use population::HookState;
        // Run half the budget, export, rebuild the plan from the same
        // parameters, import, run the rest: the combined fired log must
        // be bit-for-bit the uninterrupted run's.
        let build = || {
            FaultPlan::new(11).poisson(0.01, zeroing()).periodic(
                300,
                700,
                StateRewrite::corrupt(2, |_: &mut SmallRng| (9, 9)),
            )
        };
        let mut reference = Simulator::new(Count(8), vec![(0, 0); 8], 4);
        let mut ref_plan = build();
        drive(
            &mut reference,
            10_000,
            &mut ref_plan,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );

        let mut first = Simulator::new(Count(8), vec![(0, 0); 8], 4);
        let mut plan = build();
        drive(
            &mut first,
            5_000,
            &mut plan,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );
        let exported = plan.export_state().expect("plans are stateful");

        let mut resumed_plan = build();
        resumed_plan.import_state(&exported).expect("import");
        assert_eq!(resumed_plan.fired(), plan.fired());
        assert_eq!(resumed_plan.peek_next(), plan.peek_next());
        // Continue on a simulator resumed at the same position.
        use population::CursorSource;
        let mut second = population::Simulator::resume(
            Count(8),
            first.states().to_vec(),
            population::Schedule::from_cursor(first.source().cursor()),
            first.interactions(),
        );
        drive(
            &mut second,
            5_000,
            &mut resumed_plan,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );
        assert_eq!(resumed_plan.fired(), ref_plan.fired());
        assert_eq!(second.states(), reference.states());
    }

    #[test]
    fn plan_import_rejects_structural_mismatch() {
        use population::HookState;
        let plan = FaultPlan::<(u64, u64)>::new(1).once(10, zeroing());
        let exported = plan.export_state().unwrap();

        // Wrong entry count.
        let mut two_entries = FaultPlan::<(u64, u64)>::new(1)
            .once(10, zeroing())
            .once(20, zeroing());
        assert!(two_entries.import_state(&exported).is_err());

        // Unknown name in the fired log.
        let mut mismatched = exported.clone();
        mismatched.fired.push((5, "no_such_fault".into()));
        let mut same_shape = FaultPlan::<(u64, u64)>::new(1).once(10, zeroing());
        assert!(same_shape.import_state(&mismatched).is_err());

        // A well-formed import on the matching shape succeeds.
        let mut ok = FaultPlan::<(u64, u64)>::new(99).once(10, zeroing());
        assert!(ok.import_state(&exported).is_ok());
    }

    #[test]
    fn intern_name_resolves_only_plan_entries() {
        let plan = FaultPlan::<(u64, u64)>::new(1).once(10, zeroing());
        assert_eq!(plan.intern_name("randomize"), Some("randomize"));
        assert_eq!(plan.intern_name("corrupt"), None);
    }

    #[test]
    fn empty_plan_never_fires() {
        let mut sim = Simulator::new(Count(8), vec![(0, 0); 8], 1);
        let mut plan: FaultPlan<(u64, u64)> = FaultPlan::empty();
        assert!(plan.is_empty());
        assert_eq!(plan.peek_next(), None);
        drive(
            &mut sim,
            5000,
            &mut plan,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );
        assert!(plan.fired().is_empty());
        assert_eq!(sim.interactions(), 5000);
    }
}
