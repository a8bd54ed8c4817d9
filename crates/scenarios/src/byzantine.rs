//! Persistent (Byzantine) adversaries as a [`Protocol`] wrapper.
//!
//! Everything else in this crate models *transient* adversity: a fault
//! fires, the configuration is damaged once, and Theorem 2 promises the
//! protocol climbs back. A Byzantine agent never stops — it participates
//! in every interaction it is scheduled into, but instead of executing
//! the protocol it rewrites its own state by a fixed [`Strategy`].
//! [`Byzantine`] wraps any [`Protocol`] with `k` such agents, which is
//! the sharpest robustness probe the population model offers: with
//! persistent adversaries a stabilization claim can only be made about
//! the *honest* agents ([`population::is_valid_honest_ranking`], the
//! [`HonestRanking`] observer).
//!
//! # Execution model
//!
//! Wrapped states are [`ByzState`]s: `Honest(s)` executes the protocol
//! unchanged; `Byz { disguise, .. }` presents `disguise` to every
//! partner. An interaction involving an adversary runs the inner
//! transition on the *presented* states — the honest side cannot tell
//! it met an adversary and takes the prescribed update verbatim — and
//! then the adversary [`react`](Strategy::react)s, starting from its
//! own prescribed update and overriding it at will (the initiator-side
//! adversary reacts first, seeing the responder's prescribed
//! post-state; a responder-side adversary reacts second, seeing the
//! initiator's final state).
//!
//! # Infiltration, not replacement
//!
//! The `k` adversaries *join* a population of `n = inner.n()` honest
//! agents: the wrapped protocol has `n + k` agents
//! ([`Byzantine::n`]), and the inner protocol keeps its own
//! parameterization — the honest population is exactly the size its
//! phase geometry was built for, and knows nothing of the
//! gate-crashers. This choice is forced by a structural property of
//! `StableRanking` (measured in the `byzantine` benchmark's probe
//! runs): the `FSeq` phase geometry hard-codes `n` rank takers, so if
//! an adversary *replaces* an honest agent and then never accepts a
//! rank (a crashed agent suffices — the mildest possible fault!), the
//! unaware leader ends every round waiting for a phase agent that
//! cannot exist, its liveness drains, and the population resets
//! forever: silent honest ranking becomes structurally unreachable,
//! for every non-participating strategy alike. Infiltration keeps the
//! honest arithmetic intact and lets the benchmark measure what each
//! strategy actually costs. The replacement variant remains available
//! as [`Byzantine::replacing`] — precisely so the model checker can
//! *prove* the structural livelock at tiny `n` (the `byzantine`
//! benchmark's classification does, and `tests/byzantine.rs` pins it).
//!
//! # Determinism
//!
//! The wrapper adds no hidden entropy: the trajectory is a pure
//! function of `(seed, k, strategy)` on top of the scheduler seed.
//! Adversary placement is a seeded draw ([`Byzantine::init`]), and
//! strategies draw randomness only through the per-agent [`ByzRng`]
//! carried *inside* the adversary's state — so plain, faulted and
//! sharded runs replay bit-for-bit, and with
//! `k = 0` the wrapper is **bit-for-bit trajectory-equivalent** to the
//! unwrapped protocol on both the structured and the packed path
//! (property-tested in `tests/byzantine.rs`).
//!
//! # Model checking
//!
//! [`Byzantine::successors`] exposes the wrapper to
//! [`population::modelcheck::explore_with`]: deterministic strategies
//! contribute their single reaction, randomized ones their full
//! [`branches`](Strategy::branches) universe, so tiny-`n` reachability
//! verdicts quantify over *every* adversary behavior. [`classify`]
//! condenses the exploration into the three-way verdict the `byzantine`
//! benchmark reports: [`Tolerance::Tolerated`] /
//! [`Tolerance::Livelocked`] / [`Tolerance::SafetyViolating`].
//!
//! # Example
//!
//! ```
//! use population::{HonestRanking, Simulator};
//! use ranking::stable::StableRanking;
//! use ranking::Params;
//! use scenarios::byzantine::Byzantine;
//! use scenarios::ranking_byz;
//!
//! let n = 16;
//! let protocol = StableRanking::new(Params::new(n));
//! let init = protocol.initial();
//! // One adversary that always answers the lottery with the same coin.
//! let byz = Byzantine::new(protocol, ranking_byz::coin_jammer(false), 1, 7);
//! let init = byz.init(init);
//! let mut sim = Simulator::new(byz, init, 42);
//! let mut honest = HonestRanking::new();
//! sim.run_observed(5_000_000, n as u64, &mut honest);
//! assert!(
//!     honest.converged_at().is_some(),
//!     "the 15 honest agents still reach distinct valid ranks"
//! );
//! ```

use population::modelcheck::explore_with;
use population::{
    drive, is_valid_honest_ranking, Engine, Every, HonestOutput, HonestRanking, NoFaults, NoSaves,
    NullProbe, Protocol, RankOutput,
};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Which side of the interaction an adversary was scheduled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The adversary was the initiator `u`.
    Initiator,
    /// The adversary was the responder `v`.
    Responder,
}

/// SplitMix64 step: the per-agent seed stream of Byzantine randomness.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lazy handle on one adversary's private randomness.
///
/// The RNG word lives *inside* the adversary's [`ByzState`], so
/// strategy randomness is part of the deterministic trajectory (same
/// seed ⇒ same adversary behavior) and never perturbs the scheduler's
/// pair stream. The handle is lazy on purpose: a deterministic strategy
/// that never calls [`draw`](ByzRng::draw) leaves the word untouched,
/// which keeps its state space finite for exhaustive model checking.
#[derive(Debug)]
pub struct ByzRng<'a> {
    word: &'a mut u64,
    drawn: bool,
}

impl<'a> ByzRng<'a> {
    /// A handle over an adversary's RNG word (exposed so strategies can
    /// be exercised in isolation; the engine constructs these itself).
    pub fn new(word: &'a mut u64) -> Self {
        Self { word, drawn: false }
    }

    /// A fresh RNG seeded from the adversary's current word; the word
    /// advances (SplitMix64) so the next touch draws independently.
    pub fn draw(&mut self) -> SmallRng {
        let rng = SmallRng::seed_from_u64(*self.word);
        *self.word = splitmix64(*self.word);
        self.drawn = true;
        rng
    }

    /// Has [`draw`](ByzRng::draw) been called through this handle?
    pub fn drew(&self) -> bool {
        self.drawn
    }
}

/// A persistent adversary's behavior.
///
/// Strategies are immutable values (`&self` everywhere): all mutable
/// adversary state lives in the [`ByzState`] — the disguise it
/// presents plus its private RNG word — which is what keeps wrapped
/// protocols `Sync` for sharded runs and trajectories replayable.
pub trait Strategy<P: Protocol>: Send + Sync {
    /// Short stable identifier, used in benchmark artifacts
    /// (e.g. `"rank_squatter"`).
    fn name(&self) -> &'static str;

    /// The disguise a designated adversary starts with, given the
    /// honest initial state it replaces. Defaults to that honest state
    /// (the adversary starts camouflaged).
    fn init_state(&self, protocol: &P, honest: P::State) -> P::State {
        let _ = protocol;
        honest
    }

    /// React after participating in an interaction as `role`. `own`
    /// arrives holding the state the protocol *prescribed* for the
    /// adversary; the strategy may keep it, tweak it, or replace it
    /// outright. `partner` is the other agent's state (the responder's
    /// prescribed post-state when reacting as initiator; the
    /// initiator's final state when reacting as responder).
    fn react(
        &self,
        protocol: &P,
        role: Role,
        own: &mut P::State,
        partner: &P::State,
        rng: &mut ByzRng<'_>,
    );

    /// Every state the adversary may adopt in this situation — the
    /// model checker's branching universe. The default returns the
    /// single [`react`](Strategy::react) outcome, which is exact for
    /// deterministic strategies.
    ///
    /// # Panics
    ///
    /// The default panics if `react` draws randomness: a randomized
    /// strategy must override `branches` with its full outcome set, or
    /// the exploration would silently under-approximate the adversary.
    fn branches(
        &self,
        protocol: &P,
        role: Role,
        own: &P::State,
        partner: &P::State,
    ) -> Vec<P::State> {
        let mut out = own.clone();
        let mut word = 0u64;
        let mut rng = ByzRng::new(&mut word);
        self.react(protocol, role, &mut out, partner, &mut rng);
        assert!(
            !rng.drew(),
            "strategy `{}` draws randomness: override `branches` with the \
             full outcome set for sound model checking",
            self.name()
        );
        vec![out]
    }
}

impl<P: Protocol> Strategy<P> for Box<dyn Strategy<P>> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn init_state(&self, protocol: &P, honest: P::State) -> P::State {
        self.as_ref().init_state(protocol, honest)
    }

    fn react(
        &self,
        protocol: &P,
        role: Role,
        own: &mut P::State,
        partner: &P::State,
        rng: &mut ByzRng<'_>,
    ) {
        self.as_ref().react(protocol, role, own, partner, rng)
    }

    fn branches(
        &self,
        protocol: &P,
        role: Role,
        own: &P::State,
        partner: &P::State,
    ) -> Vec<P::State> {
        self.as_ref().branches(protocol, role, own, partner)
    }
}

// ----------------------------------------------------------------------
// Generic strategies
// ----------------------------------------------------------------------

/// Randomize the own state on every touch: the adversary re-draws
/// itself from a caller-supplied generator whenever it participates —
/// sustained, localized `corrupt` pressure.
///
/// For model checking, attach the full outcome universe with
/// [`with_universe`](Recorrupt::with_universe) (for `StableRanking`,
/// `ranking::audit::enumerate_states`); the exploration then branches
/// over every state the adversary could adopt.
#[derive(Debug, Clone)]
pub struct Recorrupt<F, S> {
    make: F,
    universe: Vec<S>,
}

impl<F, S> Recorrupt<F, S> {
    /// Re-draw the own state with `make` on every touch.
    pub fn new(make: F) -> Self {
        Self {
            make,
            universe: Vec::new(),
        }
    }

    /// Attach the branching universe (every state `make` may produce)
    /// for exhaustive model checking.
    pub fn with_universe(mut self, universe: Vec<S>) -> Self {
        self.universe = universe;
        self
    }
}

impl<P, F> Strategy<P> for Recorrupt<F, P::State>
where
    P: Protocol,
    P::State: Send + Sync,
    F: Fn(&mut SmallRng) -> P::State + Send + Sync,
{
    fn name(&self) -> &'static str {
        "recorrupt"
    }

    fn react(
        &self,
        _protocol: &P,
        _role: Role,
        own: &mut P::State,
        _partner: &P::State,
        rng: &mut ByzRng<'_>,
    ) {
        *own = (self.make)(&mut rng.draw());
    }

    fn branches(
        &self,
        _protocol: &P,
        _role: Role,
        _own: &P::State,
        _partner: &P::State,
    ) -> Vec<P::State> {
        assert!(
            !self.universe.is_empty(),
            "Recorrupt has no branching universe: build it with \
             `with_universe` before model checking"
        );
        self.universe.clone()
    }
}

/// Permanently present one fixed state: the adversary starts in the
/// pinned state and reverts to it after every touch, whatever the
/// protocol prescribed.
///
/// One mechanism, several adversary flavors distinguished by the pinned
/// state and the name (see `ranking_byz` for the `StableRanking`
/// instances): *rank squatting* (pin a ranked state — force duplicates
/// and occupy a rank slot forever), *crash* (pin an inert dormant
/// state — the classic crash-stop fault), *lurking* (pin a
/// leader-election state — a freerider that never leaves the lobby and
/// answers every lottery with the same frozen coin).
#[derive(Debug, Clone)]
pub struct Pin<S> {
    name: &'static str,
    pinned: S,
}

impl<S> Pin<S> {
    /// Present `pinned` forever, under the given strategy name.
    pub fn new(name: &'static str, pinned: S) -> Self {
        Self { name, pinned }
    }

    /// The pinned state.
    pub fn pinned(&self) -> &S {
        &self.pinned
    }
}

impl<P> Strategy<P> for Pin<P::State>
where
    P: Protocol,
    P::State: Send + Sync,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn init_state(&self, _protocol: &P, _honest: P::State) -> P::State {
        self.pinned.clone()
    }

    fn react(
        &self,
        _protocol: &P,
        _role: Role,
        own: &mut P::State,
        _partner: &P::State,
        _rng: &mut ByzRng<'_>,
    ) {
        *own = self.pinned.clone();
    }
}

/// Copy the partner's state on every touch: the adversary is a walking
/// duplicate of whomever it last met — rank duplication that re-arms
/// itself forever, unlike the one-shot
/// [`DuplicateRank`](crate::fault::DuplicateRank) fault.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mimic;

impl Mimic {
    /// A state-copying adversary.
    pub fn new() -> Self {
        Self
    }
}

impl<P> Strategy<P> for Mimic
where
    P: Protocol,
    P::State: Send + Sync,
{
    fn name(&self) -> &'static str {
        "mimic"
    }

    fn react(
        &self,
        _protocol: &P,
        _role: Role,
        own: &mut P::State,
        partner: &P::State,
        _rng: &mut ByzRng<'_>,
    ) {
        *own = partner.clone();
    }
}

/// Follow the protocol, but pin one aspect of the own state after every
/// touch (the caller-supplied `fix`). The canonical use is jamming the
/// synthetic coin: the paper's lottery (Protocol 5) reads the
/// *responder's* coin, and an adversary that always answers with the
/// same coin attacks exactly the balance Lemma 28's argument needs —
/// see [`crate::ranking_byz::coin_jammer`].
#[derive(Debug, Clone)]
pub struct CoinJammer<F> {
    fix: F,
}

impl<F> CoinJammer<F> {
    /// Apply `fix` to the own (prescribed) state after every touch.
    pub fn new(fix: F) -> Self {
        Self { fix }
    }
}

impl<P, F> Strategy<P> for CoinJammer<F>
where
    P: Protocol,
    F: Fn(&mut P::State) + Send + Sync,
{
    fn name(&self) -> &'static str {
        "coin_jammer"
    }

    fn init_state(&self, _protocol: &P, honest: P::State) -> P::State {
        let mut s = honest;
        (self.fix)(&mut s);
        s
    }

    fn react(
        &self,
        _protocol: &P,
        _role: Role,
        own: &mut P::State,
        _partner: &P::State,
        _rng: &mut ByzRng<'_>,
    ) {
        (self.fix)(own);
    }
}

// ----------------------------------------------------------------------
// The wrapper
// ----------------------------------------------------------------------

/// A wrapped agent state: honest agents run the protocol, designated
/// adversaries present a `disguise` and carry a private RNG word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ByzState<S> {
    /// An honest agent, executing the protocol unchanged.
    Honest(S),
    /// A persistent adversary.
    Byz {
        /// The state the adversary currently presents to partners.
        disguise: S,
        /// The adversary's private randomness (advanced only when the
        /// strategy draws; see [`ByzRng`]).
        rng: u64,
    },
}

impl<S> ByzState<S> {
    /// The state this agent presents to interaction partners.
    pub fn state(&self) -> &S {
        match self {
            ByzState::Honest(s) | ByzState::Byz { disguise: s, .. } => s,
        }
    }

    /// Is this agent a designated adversary?
    pub fn is_byzantine(&self) -> bool {
        matches!(self, ByzState::Byz { .. })
    }

    /// Unwrap into the presented state.
    pub fn into_state(self) -> S {
        match self {
            ByzState::Honest(s) | ByzState::Byz { disguise: s, .. } => s,
        }
    }
}

impl<S: RankOutput> RankOutput for ByzState<S> {
    fn rank(&self) -> Option<u64> {
        self.state().rank()
    }
}

impl<S: RankOutput> HonestOutput for ByzState<S> {
    fn is_honest(&self) -> bool {
        !self.is_byzantine()
    }
}

/// How the `k` adversaries enter the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    /// Adversaries join `n` honest agents: `n + k` agents total, the
    /// honest population exactly the size the protocol expects.
    Infiltrate,
    /// Adversaries replace `k` of the `n` agents: `n` agents total,
    /// only `n − k` honest. The protocol's arithmetic still assumes
    /// `n` participants — see the module docs for why this makes
    /// silent honest ranking structurally unreachable for every
    /// non-participating strategy (confirmed exhaustively by
    /// [`classify`] at tiny `n`).
    Replace,
}

/// A [`Protocol`] with `k` persistent adversaries following one
/// [`Strategy`] — by default infiltrating (`inner.n() + k` agents
/// total); [`Byzantine::replacing`] builds the replacement variant.
/// See the module docs for the execution model, the
/// infiltration-vs-replacement discussion, and the determinism
/// contract.
#[derive(Debug, Clone)]
pub struct Byzantine<P, St> {
    inner: P,
    strategy: St,
    k: usize,
    seed: u64,
    placement: Placement,
}

impl<P: Protocol, St: Strategy<P>> Byzantine<P, St> {
    /// Wrap `inner` with `k` infiltrating adversaries following
    /// `strategy`: the wrapped population has `inner.n() + k` agents.
    /// `seed` determines adversary placement and seeds their private
    /// randomness; the whole trajectory is a pure function of
    /// `(seed, k, strategy)` plus the scheduler seed.
    pub fn new(inner: P, strategy: St, k: usize, seed: u64) -> Self {
        Self {
            inner,
            strategy,
            k,
            seed,
            placement: Placement::Infiltrate,
        }
    }

    /// The replacement variant: `k` of the `inner.n()` agents *are*
    /// the adversaries (population size stays `inner.n()`, honest
    /// count drops to `inner.n() − k`). Useful for probing the
    /// structural sensitivity of a protocol whose parameterization
    /// hard-codes the participant count — for `StableRanking` even a
    /// crashed agent makes silent honest ranking unreachable in this
    /// model (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `k > inner.n()`.
    pub fn replacing(inner: P, strategy: St, k: usize, seed: u64) -> Self {
        assert!(k <= inner.n(), "cannot replace {k} of {} agents", inner.n());
        Self {
            inner,
            strategy,
            k,
            seed,
            placement: Placement::Replace,
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The adversary strategy.
    pub fn strategy(&self) -> &St {
        &self.strategy
    }

    /// Number of infiltrating adversaries.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of honest agents: `inner.n()` when infiltrating,
    /// `inner.n() − k` when replacing.
    pub fn honest_count(&self) -> usize {
        match self.placement {
            Placement::Infiltrate => self.inner.n(),
            Placement::Replace => self.inner.n() - self.k,
        }
    }

    /// Wrap an honest initial configuration of `inner.n()` states.
    /// Infiltrating, the `k` adversaries are *inserted* at uniformly
    /// chosen positions (deterministically in the wrapper seed), each
    /// camouflaged as a uniformly drawn honest initial state filtered
    /// through [`Strategy::init_state`]; replacing, `k` uniformly
    /// chosen agents are *overwritten* instead. Every adversary gets a
    /// distinct private RNG word derived from the seed.
    ///
    /// # Panics
    ///
    /// Panics if `honest.len() != inner.n()`.
    pub fn init(&self, honest: Vec<P::State>) -> Vec<ByzState<P::State>> {
        let n = self.inner.n();
        assert_eq!(
            n,
            honest.len(),
            "initial configuration size must be inner.n()"
        );
        let mut placement = SmallRng::seed_from_u64(splitmix64(self.seed ^ 0xB1A5_ED00));
        let byz_word = |slot: usize| splitmix64(splitmix64(self.seed) ^ (slot as u64 + 1));
        let mut out: Vec<ByzState<P::State>> = honest.into_iter().map(ByzState::Honest).collect();
        match self.placement {
            Placement::Infiltrate => {
                for slot in 0..self.k {
                    let camouflage = match &out[placement.random_range(0..n)] {
                        ByzState::Honest(h) => h.clone(),
                        ByzState::Byz { disguise, .. } => disguise.clone(),
                    };
                    let at = placement.random_range(0..=out.len());
                    out.insert(
                        at,
                        ByzState::Byz {
                            disguise: self.strategy.init_state(&self.inner, camouflage),
                            rng: byz_word(slot),
                        },
                    );
                }
            }
            Placement::Replace => {
                // Partial Fisher–Yates: the first k slots of `idx` end
                // up holding k distinct uniform indices.
                let mut idx: Vec<usize> = (0..n).collect();
                for i in 0..self.k {
                    let j = placement.random_range(i..n);
                    idx.swap(i, j);
                }
                for (slot, &i) in idx[..self.k].iter().enumerate() {
                    let ByzState::Honest(h) = out[i].clone() else {
                        unreachable!("replacement indices are distinct");
                    };
                    out[i] = ByzState::Byz {
                        disguise: self.strategy.init_state(&self.inner, h),
                        rng: byz_word(slot),
                    };
                }
            }
        }
        out
    }

    /// Every ordered state pair `(u, v)` may step to — the
    /// model-checking seam. Honest pairs contribute their single
    /// deterministic transition; pairs involving an adversary branch
    /// over [`Strategy::branches`]. Adversary RNG words are left
    /// untouched (the branching already quantifies over every draw), so
    /// deterministic *and* randomized strategies explore a finite
    /// space. Feed this to
    /// [`population::modelcheck::explore_with`]:
    ///
    /// ```ignore
    /// let r = explore_with(&byz, init, cap, |p, u, v| p.successors(u, v));
    /// ```
    pub fn successors(
        &self,
        u: &ByzState<P::State>,
        v: &ByzState<P::State>,
    ) -> Vec<ByzPair<P::State>> {
        let mut a = u.state().clone();
        let mut b = v.state().clone();
        self.inner.transition(&mut a, &mut b);
        let u_options: Vec<P::State> = match u {
            ByzState::Honest(_) => vec![a.clone()],
            ByzState::Byz { .. } => self.strategy.branches(&self.inner, Role::Initiator, &a, &b),
        };
        let mut out = Vec::new();
        for ua in u_options {
            let v_options: Vec<P::State> = match v {
                ByzState::Honest(_) => vec![b.clone()],
                ByzState::Byz { .. } => {
                    self.strategy
                        .branches(&self.inner, Role::Responder, &b, &ua)
                }
            };
            for vb in v_options {
                out.push((rewrap(u, ua.clone()), rewrap(v, vb)));
            }
        }
        out
    }
}

/// An ordered pair of wrapped states — the element type of
/// [`Byzantine::successors`]'s branching output.
pub type ByzPair<S> = (ByzState<S>, ByzState<S>);

/// Rebuild a [`ByzState`] with a new presented state, keeping the
/// honest/adversary designation and the RNG word.
fn rewrap<S: Clone>(prev: &ByzState<S>, state: S) -> ByzState<S> {
    match prev {
        ByzState::Honest(_) => ByzState::Honest(state),
        ByzState::Byz { rng, .. } => ByzState::Byz {
            disguise: state,
            rng: *rng,
        },
    }
}

impl<P: Protocol, St: Strategy<P>> Protocol for Byzantine<P, St> {
    type State = ByzState<P::State>;

    fn n(&self) -> usize {
        match self.placement {
            Placement::Infiltrate => self.inner.n() + self.k,
            Placement::Replace => self.inner.n(),
        }
    }

    fn transition(&self, u: &mut Self::State, v: &mut Self::State) -> bool {
        // The honest fast path delegates outright — this is what makes
        // k = 0 bit-for-bit equivalent to the unwrapped protocol
        // (including the changed flag the batched engine's write-back
        // skip relies on).
        if let (ByzState::Honest(a), ByzState::Honest(b)) = (&mut *u, &mut *v) {
            return self.inner.transition(a, b);
        }
        let before = (u.clone(), v.clone());
        let mut a = u.state().clone();
        let mut b = v.state().clone();
        self.inner.transition(&mut a, &mut b);
        match u {
            ByzState::Honest(s) => *s = a,
            ByzState::Byz { disguise, rng } => {
                *disguise = a;
                let mut handle = ByzRng::new(rng);
                self.strategy
                    .react(&self.inner, Role::Initiator, disguise, &b, &mut handle);
            }
        }
        let initiator_final = u.state().clone();
        match v {
            ByzState::Honest(s) => *s = b,
            ByzState::Byz { disguise, rng } => {
                *disguise = b;
                let mut handle = ByzRng::new(rng);
                self.strategy.react(
                    &self.inner,
                    Role::Responder,
                    disguise,
                    &initiator_final,
                    &mut handle,
                );
            }
        }
        *u != before.0 || *v != before.1
    }
}

// ----------------------------------------------------------------------
// Honest-stabilization drivers
// ----------------------------------------------------------------------

/// Drive a Byzantine run on any engine until the honest agents hold
/// valid distinct ranks (polled every `check_every` interactions) or the
/// budget runs out; returns the hitting checkpoint — the
/// *honest-stabilization time* the `byzantine` benchmark aggregates.
/// Sugar over [`drive`](fn@drive) with a [`HonestRanking`] observer
/// polled on the whole configuration. Through the sharded API, at any
/// shard count, this is bit-for-bit the sequential run over a uniform
/// schedule.
pub fn run_honest<E, P, St>(engine: &mut E, max_interactions: u64, check_every: u64) -> Option<u64>
where
    E: Engine<Protocol = Byzantine<P, St>>,
    P: Protocol,
    P::State: RankOutput,
    St: Strategy<P>,
{
    let mut honest = HonestRanking::new();
    drive(
        engine,
        max_interactions,
        &mut NoFaults,
        &mut NoSaves,
        &mut Every(check_every, &mut honest),
        &mut NullProbe,
    );
    honest.converged_at()
}

// ----------------------------------------------------------------------
// Exhaustive classification
// ----------------------------------------------------------------------

/// Three-way verdict of the exhaustive tiny-`n` classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tolerance {
    /// From every reachable configuration — under every adversary
    /// behavior — the honest agents can still reach valid distinct
    /// ranks, and every absorbing configuration already has them: the
    /// strategy is absorbed.
    Tolerated,
    /// No absorbing configuration violates honest validity, but some
    /// reachable configuration has *no path back* to it: the adversary
    /// can deny honest stabilization forever.
    Livelocked,
    /// Some reachable **silent** configuration violates honest
    /// validity: the system can stop, wrong — the strategy breaks the
    /// safety half of "silent + correct".
    SafetyViolating,
}

impl Tolerance {
    /// Stable lowercase label for artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Tolerance::Tolerated => "tolerated",
            Tolerance::Livelocked => "livelocked",
            Tolerance::SafetyViolating => "safety-violating",
        }
    }
}

/// Result of [`classify`]: the verdict plus the exploration counts
/// behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classification {
    /// The three-way verdict.
    pub verdict: Tolerance,
    /// Reachable configurations (as multisets).
    pub reachable: usize,
    /// Reachable silent (absorbing) configurations.
    pub silent: usize,
    /// Silent configurations violating honest validity.
    pub silent_invalid: usize,
    /// Configurations with no path to honest validity.
    pub unrecoverable: usize,
}

/// Exhaustively classify a Byzantine strategy at tiny `n`: explore
/// every configuration reachable from `init` under every adversary
/// behavior ([`Byzantine::successors`]) and condense the verdict —
/// see [`Tolerance`] for the three-way reading. Returns `None` if the
/// exploration exceeds `cap` configurations (inconclusive).
pub fn classify<P, St>(
    byz: &Byzantine<P, St>,
    init: Vec<ByzState<P::State>>,
    cap: usize,
) -> Option<Classification>
where
    P: Protocol,
    P::State: Ord + Eq + std::hash::Hash + Clone + RankOutput,
    St: Strategy<P>,
{
    // The exploration asks for the successors of the same ordered state
    // pair once per configuration containing it — memoizing the answer
    // turns the dominant cost (strategy branching + inner transitions)
    // into a hash lookup.
    type PairCache<S> = std::collections::HashMap<ByzPair<S>, Vec<ByzPair<S>>>;
    let cache: std::cell::RefCell<PairCache<P::State>> =
        std::cell::RefCell::new(std::collections::HashMap::new());
    let r = explore_with(byz, init, cap, |p, u, v| {
        if let Some(hit) = cache.borrow().get(&(u.clone(), v.clone())) {
            return hit.clone();
        }
        let succ = p.successors(u, v);
        cache
            .borrow_mut()
            .insert((u.clone(), v.clone()), succ.clone());
        succ
    });
    if r.truncated() {
        return None;
    }
    let goal = |c: &[ByzState<P::State>]| is_valid_honest_ranking(c);
    let silent = r.silent_configs();
    let silent_count = silent.len();
    let silent_invalid = silent.iter().filter(|c| !goal(c)).count();
    let unrecoverable = r.count_cannot_reach(goal);
    let verdict = if silent_invalid > 0 {
        Tolerance::SafetyViolating
    } else if unrecoverable > 0 {
        Tolerance::Livelocked
    } else {
        Tolerance::Tolerated
    };
    Some(Classification {
        verdict,
        reachable: r.len(),
        silent: silent_count,
        silent_invalid,
        unrecoverable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::Simulator;

    /// Counts interactions on each side (the engine's test protocol).
    #[derive(Debug, Clone)]
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

    /// A strategy that zeroes itself on every touch.
    #[derive(Debug, Clone)]
    struct Zero;
    impl Strategy<Count> for Zero {
        fn name(&self) -> &'static str {
            "zero"
        }
        fn react(
            &self,
            _p: &Count,
            _role: Role,
            own: &mut (u64, u64),
            _partner: &(u64, u64),
            _rng: &mut ByzRng<'_>,
        ) {
            *own = (0, 0);
        }
    }

    #[test]
    fn k_zero_is_bit_for_bit_the_unwrapped_protocol() {
        let mut plain = Simulator::new(Count(16), vec![(0, 0); 16], 42);
        let byz = Byzantine::new(Count(16), Zero, 0, 7);
        let init = byz.init(vec![(0, 0); 16]);
        let mut wrapped = Simulator::new(byz, init, 42);
        plain.run_batched(12_345);
        wrapped.run_batched(12_345);
        let unwrapped: Vec<(u64, u64)> = wrapped
            .states()
            .iter()
            .map(|s| *ByzState::state(s))
            .collect();
        assert_eq!(unwrapped, plain.states());
        assert!(wrapped.states().iter().all(|s| !s.is_byzantine()));
    }

    #[test]
    fn adversaries_override_their_own_update_only() {
        let byz = Byzantine::new(Count(8), Zero, 2, 3);
        assert_eq!(byz.n(), 10, "two infiltrators join the eight");
        assert_eq!(byz.honest_count(), 8);
        let init = byz.init(vec![(0, 0); 8]);
        assert_eq!(init.len(), 10);
        assert_eq!(init.iter().filter(|s| s.is_byzantine()).count(), 2);
        let mut sim = Simulator::new(byz, init, 5);
        sim.run_batched(10_000);
        // Honest counters advance; adversary counters are pinned at 0.
        for s in sim.states() {
            match s {
                ByzState::Honest(c) => assert!(c.0 + c.1 > 0),
                ByzState::Byz { disguise, .. } => assert_eq!(*disguise, (0, 0)),
            }
        }
        assert_eq!(sim.interactions(), 10_000);
    }

    #[test]
    fn placement_and_trajectory_are_deterministic_in_the_seed() {
        let run = |wrapper_seed, sched_seed| {
            let byz = Byzantine::new(Count(12), Zero, 3, wrapper_seed);
            let init = byz.init(vec![(0, 0); 12]);
            let mut sim = Simulator::new(byz, init, sched_seed);
            sim.run_batched(5_000);
            sim.into_states()
        };
        assert_eq!(run(1, 9), run(1, 9));
        assert_ne!(run(1, 9), run(2, 9), "placement must follow the seed");
        assert_ne!(run(1, 9), run(1, 10));
    }

    #[test]
    fn changed_flag_has_no_false_negatives_for_rng_advances() {
        // A strategy that redraws its (identical) state still advanced
        // its RNG word — the transition must report a change, or the
        // batched write-back skip would desynchronize the word.
        #[derive(Debug)]
        struct Redraw;
        impl Strategy<Count> for Redraw {
            fn name(&self) -> &'static str {
                "redraw"
            }
            fn react(
                &self,
                _p: &Count,
                _role: Role,
                own: &mut (u64, u64),
                _partner: &(u64, u64),
                rng: &mut ByzRng<'_>,
            ) {
                let _ = rng.draw();
                *own = (0, 0);
            }
        }
        let byz = Byzantine::new(Count(2), Redraw, 1, 1);
        let states = byz.init(vec![(0, 0), (0, 0)]);
        assert_eq!(states.len(), 3);
        let mut a = *states
            .iter()
            .find(|s| s.is_byzantine())
            .expect("one adversary");
        let mut b = *states
            .iter()
            .find(|s| !s.is_byzantine())
            .expect("honest agents");
        let ByzState::Byz {
            rng: word_before, ..
        } = a
        else {
            unreachable!()
        };
        assert!(byz.transition(&mut a, &mut b), "rng advance is a change");
        let ByzState::Byz {
            rng: word_after, ..
        } = a
        else {
            unreachable!()
        };
        assert_ne!(word_before, word_after);
    }

    #[test]
    fn default_branches_reject_randomized_strategies() {
        #[derive(Debug)]
        struct Draws;
        impl Strategy<Count> for Draws {
            fn name(&self) -> &'static str {
                "draws"
            }
            fn react(
                &self,
                _p: &Count,
                _role: Role,
                own: &mut (u64, u64),
                _partner: &(u64, u64),
                rng: &mut ByzRng<'_>,
            ) {
                use rand::RngCore;
                own.0 = rng.draw().next_u64();
            }
        }
        let caught = std::panic::catch_unwind(|| {
            Draws.branches(&Count(2), Role::Initiator, &(0, 0), &(0, 0))
        });
        assert!(caught.is_err(), "must demand an explicit outcome set");
    }

    #[test]
    fn successors_branch_over_the_strategy_universe() {
        // Recorrupt over a 2-value state space: successors of a pair
        // involving the adversary enumerate both values.
        let byz = Byzantine::new(
            Count(2),
            Recorrupt::new(|_: &mut SmallRng| (0u64, 0u64)).with_universe(vec![(0, 0), (9, 9)]),
            1,
            1,
        );
        let init = byz.init(vec![(0, 0), (0, 0)]);
        let adv = init.iter().find(|s| s.is_byzantine()).expect("adversary");
        let honest = init.iter().find(|s| !s.is_byzantine()).expect("honest");
        let succ = byz.successors(adv, honest);
        assert_eq!(succ.len(), 2, "one per universe state");
        // Honest pair: single deterministic successor.
        let h = ByzState::Honest((0u64, 0u64));
        assert_eq!(byz.successors(&h, &h.clone()).len(), 1);
    }
}
