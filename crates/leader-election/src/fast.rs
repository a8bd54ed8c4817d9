//! `FastLeaderElection` — Protocol 5 of the paper, implemented exactly.
//!
//! Each agent holds a counter `LECount ∈ [0, L_max]`, a counter
//! `coinCount ∈ [0, ⌈log n⌉]` and flags `leaderDone`, `isLeader`. On each
//! activation as initiator the agent decrements `LECount` and, while not
//! done, observes the responder's synthetic coin: the first observed tails
//! finishes it as a non-leader; an agent whose `coinCount` is exhausted by
//! heads observations becomes the leader. A leader with
//! `LECount ≥ L_max/2` transitions to the main protocol (waiting agent);
//! an agent whose `LECount` hits zero triggers a reset.
//!
//! The module exposes the protocol as a *pure* state machine
//! ([`FastLe::step`]) returning an [`FastLeEffect`] so that the embedding
//! protocol (`StableRanking`) decides how to realize "become waiting
//! leader" and "trigger reset" in its own state space. A standalone
//! wrapper ([`FastLeLottery`]) runs the lottery alone for the Lemma 30
//! experiment (unique-leader probability ≥ 1/(8e)).

use population::Protocol;

/// Parameters of Protocol 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastLe {
    /// `L_max`: interaction budget before an agent assumes election failed.
    pub l_max: u32,
    /// `⌈log n⌉`: number of heads to observe to win the lottery.
    pub coin_target: u32,
}

impl FastLe {
    /// Paper defaults for population size `n`: `coin_target = ⌈log₂ n⌉`,
    /// `L_max = ⌈c_live · log₂ n⌉` (Appendix C bounds `L_max ∈ Θ(log n)`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `c_live` is not finite and positive.
    pub fn for_n(n: usize, c_live: f64) -> Self {
        assert!(n >= 2, "population must have at least two agents");
        assert!(
            c_live.is_finite() && c_live > 0.0,
            "c_live must be positive"
        );
        let log2n = (n as f64).log2();
        Self {
            l_max: (c_live * log2n).ceil() as u32,
            coin_target: log2n.ceil() as u32,
        }
    }

    /// The initial state `q_{0,i}` of Appendix C (the coin bit `i` lives in
    /// the embedding protocol's state).
    pub fn initial_state(&self) -> FastLeState {
        FastLeState {
            le_count: self.l_max,
            coin_count: self.coin_target,
            leader_done: false,
            is_leader: false,
        }
    }

    /// One activation of `u` as initiator observing the responder's coin.
    ///
    /// Implements Protocol 5 lines 1–15; the effect tells the embedder
    /// whether `u` must transition to the main phase (lines 9–12) or
    /// trigger a reset (lines 13–15). On [`FastLeEffect::BecomeWaitingLeader`]
    /// and [`FastLeEffect::TimedOut`] the caller is responsible for
    /// discarding the leader-election state (the paper sets all fields to
    /// `⊥`).
    #[inline]
    pub fn step(&self, u: &mut FastLeState, responder_coin: bool) -> FastLeEffect {
        // Line 1: LECount(u) ← LECount(u) − 1.
        u.le_count = u.le_count.saturating_sub(1);
        if !u.leader_done {
            if !responder_coin {
                // Line 2: a tails observation ends the lottery, no leader.
                u.leader_done = true;
            } else if u.coin_count > 0 {
                // Lines 4–5: count the heads.
                u.coin_count -= 1;
            } else {
                // Lines 6–8: enough heads in a row — become leader.
                u.is_leader = true;
                u.leader_done = true;
            }
        }
        // Lines 9–12: leader elected fast enough starts the main phase.
        if u.is_leader && u.le_count >= self.l_max / 2 {
            return FastLeEffect::BecomeWaitingLeader;
        }
        // Lines 13–15: out of budget — election failed, reset.
        if u.le_count == 0 {
            return FastLeEffect::TimedOut;
        }
        FastLeEffect::None
    }
}

/// Per-agent state of Protocol 5 (the synthetic coin lives in the
/// embedding protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FastLeState {
    /// Remaining interaction budget (`LECount`).
    pub le_count: u32,
    /// Remaining heads to observe (`coinCount`).
    pub coin_count: u32,
    /// Has this agent finished the lottery (`leaderDone`)?
    pub leader_done: bool,
    /// Did this agent win the lottery (`isLeader`)?
    pub is_leader: bool,
}

/// Width of each counter field in the packed representation.
const FIELD_BITS: u32 = 16;
const FIELD_MASK: u64 = (1 << FIELD_BITS) - 1;
const DONE_BIT: u64 = 1 << 32;
const LEADER_BIT: u64 = 1 << 33;

impl FastLeState {
    /// Number of bits used by [`to_bits`](FastLeState::to_bits):
    /// `LECount` (16) | `coinCount` (16) | `leaderDone` | `isLeader`.
    pub const BITS: u32 = 34;

    /// Pack into the low [`BITS`](FastLeState::BITS) bits of a word —
    /// the leader-election lanes of the packed-state representation
    /// used by the simulator's word-packed hot path.
    ///
    /// Lossless for counters below `2^16`, which `L_max = ⌈c_live log₂ n⌉`
    /// and `coinCount ≤ ⌈log₂ n⌉` satisfy for every representable `n`
    /// (debug-asserted).
    #[inline]
    pub fn to_bits(self) -> u64 {
        debug_assert!(u64::from(self.le_count) <= FIELD_MASK, "LECount overflow");
        debug_assert!(
            u64::from(self.coin_count) <= FIELD_MASK,
            "coinCount overflow"
        );
        u64::from(self.le_count)
            | (u64::from(self.coin_count) << FIELD_BITS)
            | if self.leader_done { DONE_BIT } else { 0 }
            | if self.is_leader { LEADER_BIT } else { 0 }
    }

    /// Inverse of [`to_bits`](FastLeState::to_bits). Bits above
    /// [`BITS`](FastLeState::BITS) are ignored.
    #[inline]
    pub fn from_bits(bits: u64) -> Self {
        Self {
            le_count: (bits & FIELD_MASK) as u32,
            coin_count: ((bits >> FIELD_BITS) & FIELD_MASK) as u32,
            leader_done: bits & DONE_BIT != 0,
            is_leader: bits & LEADER_BIT != 0,
        }
    }
}

/// What the embedding protocol must do after a [`FastLe::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastLeEffect {
    /// Keep executing leader election.
    None,
    /// Protocol 5 lines 9–12: the agent is the leader and starts the main
    /// phase as a waiting agent.
    BecomeWaitingLeader,
    /// Protocol 5 lines 13–15: the interaction budget ran out; trigger a
    /// reset.
    TimedOut,
}

/// Standalone lottery population for the Lemma 30 experiment: every agent
/// runs [`FastLe`] plus a synthetic coin; winners freeze. Used to measure
/// `Pr[exactly one leader] ≥ 1/(8e)`.
#[derive(Debug, Clone)]
pub struct FastLeLottery {
    params: FastLe,
    n: usize,
}

/// Agent state of [`FastLeLottery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LotteryState {
    /// Synthetic coin, toggled on every activation as responder.
    pub coin: bool,
    /// The embedded Protocol 5 state.
    pub le: FastLeState,
    /// Set when the agent ran out of budget (`LECount = 0`).
    pub timed_out: bool,
}

impl FastLeLottery {
    /// Lottery over `n` agents with paper-default parameters.
    pub fn new(n: usize, c_live: f64) -> Self {
        Self {
            params: FastLe::for_n(n, c_live),
            n,
        }
    }

    /// Initial configuration: coins alternate (a balanced start, cf. the
    /// `q_{0,i}` states of Appendix C).
    pub fn initial(&self) -> Vec<LotteryState> {
        (0..self.n)
            .map(|i| LotteryState {
                coin: i % 2 == 0,
                le: self.params.initial_state(),
                timed_out: false,
            })
            .collect()
    }

    /// True once every agent has decided (done or timed out).
    pub fn all_decided(states: &[LotteryState]) -> bool {
        states.iter().all(|s| s.le.leader_done || s.timed_out)
    }

    /// Number of lottery winners.
    pub fn winner_count(states: &[LotteryState]) -> usize {
        states.iter().filter(|s| s.le.is_leader).count()
    }
}

impl Protocol for FastLeLottery {
    type State = LotteryState;

    fn n(&self) -> usize {
        self.n
    }

    fn transition(&self, u: &mut LotteryState, v: &mut LotteryState) -> bool {
        if !u.timed_out {
            let effect = self.params.step(&mut u.le, v.coin);
            if effect == FastLeEffect::TimedOut {
                u.timed_out = true;
            }
        }
        // Protocol 3 lines 9–10: the responder's coin flips.
        v.coin = !v.coin;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::runner::run_seed_range;
    use population::Simulator;

    fn params() -> FastLe {
        FastLe {
            l_max: 40,
            coin_target: 4,
        }
    }

    #[test]
    fn for_n_uses_paper_formulas() {
        let p = FastLe::for_n(1024, 4.0);
        assert_eq!(p.coin_target, 10);
        assert_eq!(p.l_max, 40);
    }

    #[test]
    fn first_tails_finishes_as_non_leader() {
        let p = params();
        let mut s = p.initial_state();
        let effect = p.step(&mut s, false);
        assert_eq!(effect, FastLeEffect::None);
        assert!(s.leader_done && !s.is_leader);
        assert_eq!(s.le_count, 39);
    }

    #[test]
    fn heads_run_elects_leader_and_transitions() {
        let p = params();
        let mut s = p.initial_state();
        // coin_target = 4 heads consume the counter...
        for _ in 0..4 {
            assert_eq!(p.step(&mut s, true), FastLeEffect::None);
            assert!(!s.leader_done);
        }
        assert_eq!(s.coin_count, 0);
        // ...and the next heads observation wins the lottery; since
        // LECount = 35 ≥ L_max/2 = 20 the winner immediately becomes a
        // waiting agent (lines 9–12).
        assert_eq!(p.step(&mut s, true), FastLeEffect::BecomeWaitingLeader);
        assert!(s.is_leader && s.leader_done);
    }

    #[test]
    fn tails_after_heads_still_non_leader() {
        let p = params();
        let mut s = p.initial_state();
        for _ in 0..3 {
            p.step(&mut s, true);
        }
        p.step(&mut s, false);
        assert!(s.leader_done && !s.is_leader);
    }

    #[test]
    fn done_agent_ignores_lottery_but_keeps_counting_down() {
        let p = params();
        let mut s = p.initial_state();
        p.step(&mut s, false); // done, non-leader
        let cc = s.coin_count;
        for _ in 0..10 {
            p.step(&mut s, true);
        }
        assert_eq!(s.coin_count, cc, "lottery must be frozen after done");
        assert_eq!(s.le_count, 40 - 11);
    }

    #[test]
    fn budget_exhaustion_times_out() {
        let p = params();
        let mut s = p.initial_state();
        p.step(&mut s, false); // done as non-leader
        let mut last = FastLeEffect::None;
        for _ in 0..39 {
            last = p.step(&mut s, true);
        }
        assert_eq!(last, FastLeEffect::TimedOut);
        assert_eq!(s.le_count, 0);
    }

    #[test]
    fn slow_leader_does_not_transition_below_half_budget() {
        // A leader elected when LECount < L_max/2 must not become waiting
        // (Protocol 5 line 9 requires LECount ≥ L_max/2).
        // We need an agent that wins *late*: the lottery freezes on the
        // first tails, so use a large coin_count to keep it undecided
        // while the budget drains.
        let slow = FastLe {
            l_max: 40,
            coin_target: 25,
        };
        let mut s = slow.initial_state();
        for i in 0..25 {
            assert_eq!(slow.step(&mut s, true), FastLeEffect::None, "step {i}");
        }
        // 26th heads: wins, but le_count = 40 − 26 = 14 < 20 = L_max/2.
        let effect = slow.step(&mut s, true);
        assert_eq!(effect, FastLeEffect::None);
        assert!(s.is_leader, "won the lottery");
        // It lingers until the budget runs out, then times out.
        let mut last = FastLeEffect::None;
        for _ in 0..14 {
            last = slow.step(&mut s, true);
        }
        assert_eq!(last, FastLeEffect::TimedOut);
    }

    #[test]
    fn lottery_unique_winner_probability_matches_lemma_30() {
        // Lemma 30: Pr[exactly one winner] ≥ 1/(8e) ≈ 0.046. The bound is
        // loose; empirically the probability is ≈ 0.25–0.45. We assert the
        // lemma's bound with 400 trials at n = 128 (binomial std dev of the
        // estimate ≈ 0.02, so p̂ ≥ 0.1 gives a comfortable margin).
        let n = 128;
        let trials = 400;
        let unique: usize = run_seed_range(trials, |seed| {
            let protocol = FastLeLottery::new(n, 4.0);
            let init = protocol.initial();
            let mut sim = Simulator::new(protocol, init, seed);
            sim.run_until(FastLeLottery::all_decided, 10_000_000, n as u64);
            usize::from(FastLeLottery::winner_count(sim.states()) == 1)
        })
        .into_iter()
        .sum();
        let p_hat = unique as f64 / trials as f64;
        assert!(
            p_hat >= 0.1,
            "unique-winner probability {p_hat} below Lemma 30 expectation"
        );
    }

    #[test]
    fn lottery_winner_count_is_small() {
        // The expected number of winners is Θ(1); assert it never explodes.
        let n = 256;
        let max_winners: usize = run_seed_range(50, |seed| {
            let protocol = FastLeLottery::new(n, 4.0);
            let init = protocol.initial();
            let mut sim = Simulator::new(protocol, init, seed);
            sim.run_until(FastLeLottery::all_decided, 10_000_000, n as u64);
            FastLeLottery::winner_count(sim.states())
        })
        .into_iter()
        .max()
        .unwrap();
        assert!(max_winners <= 6, "saw {max_winners} simultaneous winners");
    }

    #[test]
    fn bits_roundtrip_over_the_full_state_space() {
        let p = params();
        for le in 0..=p.l_max {
            for cc in 0..=p.coin_target {
                for (done, lead) in [(false, false), (true, false), (true, true)] {
                    let s = FastLeState {
                        le_count: le,
                        coin_count: cc,
                        leader_done: done,
                        is_leader: lead,
                    };
                    let bits = s.to_bits();
                    assert!(bits < 1 << FastLeState::BITS);
                    assert_eq!(FastLeState::from_bits(bits), s);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_tiny_population() {
        let _ = FastLe::for_n(1, 4.0);
    }
}
