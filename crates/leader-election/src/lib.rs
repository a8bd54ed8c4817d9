//! Leader-election substrates for the ranking protocols.
//!
//! The paper uses leader election in two places:
//!
//! 1. **Protocol 1** (`SpaceEfficientRanking`) consumes a black-box leader
//!    election with the interface of its Lemma 15: states `q_LE`, a flag
//!    `isLeader`, and a flag `leaderDone` that is set when the agent
//!    believes election has finished; when all agents are done there is
//!    w.h.p. exactly one leader. The paper instantiates this with
//!    Gasieniec–Stachowiak (SODA'18). We substitute
//!    [`tournament::TournamentLe`], a paced coin-race with gossip
//!    elimination offering the same interface (its module doc gives the
//!    state-complexity trade-off; docs/PAPER_MAP.md's leader-election
//!    row records the substitution).
//! 2. **Protocol 5** (`FastLeaderElection`) is the paper's own lottery used
//!    inside the self-stabilizing `StableRanking`; [`fast`] implements it
//!    exactly, as a pure state machine that the ranking crate embeds.
//!
//! [`LeaderElectionBehavior`] is the common interface, and
//! [`LeaderElectionProtocol`] wraps any implementation as a standalone
//! population protocol so election can be tested and benchmarked in
//! isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fast;
pub mod tournament;

use std::fmt::Debug;

use population::Protocol;

/// The leader-election interface assumed by Protocol 1 (cf. Lemma 15).
pub trait LeaderElectionBehavior {
    /// Per-agent leader-election state (`q_LE` plus the `leaderDone` flag).
    type State: Copy + PartialEq + Debug;

    /// The state every agent starts in.
    fn initial_state(&self) -> Self::State;

    /// One interaction between two leader-electing agents
    /// `(initiator, responder)`.
    fn transition(&self, initiator: &mut Self::State, responder: &mut Self::State);

    /// Does this agent currently believe it is the leader?
    fn is_leader(&self, state: &Self::State) -> bool;

    /// Has this agent concluded that leader election is over?
    fn leader_done(&self, state: &Self::State) -> bool;
}

/// Adapter running a [`LeaderElectionBehavior`] as a standalone population
/// protocol (used by tests and the election experiments).
#[derive(Debug, Clone)]
pub struct LeaderElectionProtocol<L> {
    behavior: L,
    n: usize,
}

impl<L: LeaderElectionBehavior> LeaderElectionProtocol<L> {
    /// Wrap `behavior` for a population of size `n`.
    pub fn new(behavior: L, n: usize) -> Self {
        Self { behavior, n }
    }

    /// The wrapped behavior.
    pub fn behavior(&self) -> &L {
        &self.behavior
    }

    /// All-agents-initial configuration.
    pub fn initial(&self) -> Vec<L::State> {
        (0..self.n).map(|_| self.behavior.initial_state()).collect()
    }

    /// Number of agents that currently claim leadership.
    pub fn leader_count(&self, states: &[L::State]) -> usize {
        states.iter().filter(|s| self.behavior.is_leader(s)).count()
    }
}

impl<L: LeaderElectionBehavior> Protocol for LeaderElectionProtocol<L> {
    type State = L::State;

    fn n(&self) -> usize {
        self.n
    }

    fn transition(&self, u: &mut Self::State, v: &mut Self::State) -> bool {
        let (bu, bv) = (*u, *v);
        self.behavior.transition(u, v);
        *u != bu || *v != bv
    }
}
