//! `TournamentLe` — the workspace substitute for the paper's black-box
//! leader election (Gasieniec–Stachowiak, used by Protocol 1).
//!
//! The paper only relies on the *interface* of that protocol (its
//! Lemma 15): every agent eventually sets `leaderDone`, and when all have,
//! there is w.h.p. exactly one agent with `isLeader = 1`. We meet the same
//! interface with a paced coin-race in the spirit of the lottery/tournament
//! constructions of Alistarh et al. (SODA'17) and Bilke et al. (PODC'17):
//!
//! * Every agent starts as a **contender** and plays `R` *epochs*. An epoch
//!   lasts `D` of the agent's own initiator-activations; at each epoch
//!   boundary the contender draws a fresh bit from the responder's
//!   synthetic coin.
//! * A contender's *value* is the pair `(epoch, bit)`, ordered
//!   lexicographically (a later epoch beats any bit). Values are gossiped
//!   through the population; a contender that hears a value strictly
//!   greater than its own — someone flipped heads in an epoch where it
//!   flipped tails, or someone pulled ahead — becomes a **follower**.
//! * A contender that completes all `R` epochs becomes the **leader** and
//!   raises a `finished` flag that spreads as a one-way epidemic, setting
//!   `leaderDone` everywhere and eliminating any remaining contenders.
//!
//! Two contenders survive together only if their `(epoch, bit)` values
//! never order strictly at a meeting, which requires agreeing coin flips
//! epoch after epoch: with `R = 2⌈log₂ n⌉ + 6` the per-pair survival
//! probability is ≈ `2^{-R} ≤ n^{-2}/64`, giving a w.h.p. unique leader
//! after a union bound over pairs. The epoch length `D = 3⌈log₂ n⌉` keeps
//! gossip (an `O(n log n)`-interaction epidemic) faster than epoch
//! turnover. Total: `O(R·D·n) = O(n log² n)` interactions, matching
//! Lemma 15's time bound; the state cost is `O(log³ n)` instead of the
//! original's `O(log log n)`. docs/PAPER_MAP.md's leader-election row
//! records the substitution.

use crate::LeaderElectionBehavior;

/// Parameters of the tournament.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TournamentLe {
    /// Number of sudden-death epochs `R`.
    pub epochs: u32,
    /// Initiator-activations per epoch `D`.
    pub epoch_len: u32,
}

impl TournamentLe {
    /// Defaults for population size `n`: `R = 2⌈log₂ n⌉ + 6`,
    /// `D = 3⌈log₂ n⌉`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn for_n(n: usize) -> Self {
        assert!(n >= 2, "population must have at least two agents");
        let log2n = (n as f64).log2().ceil() as u32;
        Self {
            epochs: 2 * log2n + 6,
            epoch_len: 3 * log2n.max(1),
        }
    }

    /// Upper bound on the number of distinct states of this behavior, used
    /// by the state-space audit. Contenders contribute
    /// `R·2·D` (epoch × bit × tick) states, followers `(R+1)·2·2`
    /// (gossip epoch × gossip bit × finished), leaders `1`; everything is
    /// doubled by the synthetic coin.
    pub fn state_count(&self) -> u64 {
        let contender = u64::from(self.epochs) * 2 * u64::from(self.epoch_len);
        let follower = (u64::from(self.epochs) + 1) * 2 * 2;
        2 * (contender + follower + 1)
    }
}

/// A contender's comparable progress value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RaceValue {
    /// Current epoch (dominant in the ordering).
    pub epoch: u32,
    /// Coin bit drawn at the start of the epoch.
    pub bit: bool,
}

/// Gossip carried by followers: the largest value heard plus the finished
/// flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Gossip {
    /// Largest [`RaceValue`] heard so far.
    pub best: RaceValue,
    /// Has some contender completed all epochs?
    pub finished: bool,
}

/// Role of an agent in the tournament.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaceRole {
    /// Still in the race.
    Contender {
        /// Current progress value.
        value: RaceValue,
        /// Remaining initiator-activations in this epoch.
        ticks: u32,
    },
    /// Eliminated; relays gossip.
    Follower(Gossip),
    /// Completed all epochs without being eliminated.
    Leader,
}

/// Full per-agent state: role plus the synthetic coin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RaceState {
    /// Synthetic coin, toggled on each activation as responder.
    pub coin: bool,
    /// Tournament role.
    pub role: RaceRole,
}

impl TournamentLe {
    fn observed(&self, role: &RaceRole) -> Gossip {
        match role {
            RaceRole::Contender { value, .. } => Gossip {
                best: *value,
                finished: false,
            },
            RaceRole::Follower(g) => *g,
            RaceRole::Leader => Gossip {
                best: RaceValue {
                    epoch: self.epochs,
                    bit: true,
                },
                finished: true,
            },
        }
    }

    fn merge(a: Gossip, b: Gossip) -> Gossip {
        Gossip {
            best: a.best.max(b.best),
            finished: a.finished || b.finished,
        }
    }

    /// Apply elimination/relay of gossip `g` to one agent.
    fn absorb(&self, role: &mut RaceRole, g: Gossip) {
        match role {
            RaceRole::Contender { value, .. } => {
                if g.finished || g.best > *value {
                    *role = RaceRole::Follower(g);
                }
            }
            RaceRole::Follower(own) => *own = Self::merge(*own, g),
            RaceRole::Leader => {}
        }
    }
}

impl LeaderElectionBehavior for TournamentLe {
    type State = RaceState;

    fn initial_state(&self) -> RaceState {
        RaceState {
            coin: false,
            role: RaceRole::Contender {
                value: RaceValue {
                    epoch: 0,
                    bit: false,
                },
                ticks: self.epoch_len,
            },
        }
    }

    fn transition(&self, u: &mut RaceState, v: &mut RaceState) {
        // Exchange gossip and apply eliminations (two-way; gossip is
        // max-merge so symmetry is safe).
        let g = Self::merge(self.observed(&u.role), self.observed(&v.role));
        self.absorb(&mut u.role, g);
        self.absorb(&mut v.role, g);

        // Pacing: the initiator, if still a contender, spends one tick and
        // advances an epoch when its budget is used up, drawing the next
        // epoch's bit from the responder's synthetic coin.
        if let RaceRole::Contender { value, ticks } = &mut u.role {
            *ticks -= 1;
            if *ticks == 0 {
                value.epoch += 1;
                if value.epoch == self.epochs {
                    u.role = RaceRole::Leader;
                } else {
                    value.bit = v.coin;
                    *ticks = self.epoch_len;
                }
            }
        }

        // The responder's synthetic coin flips on every activation.
        v.coin = !v.coin;
    }

    fn is_leader(&self, s: &RaceState) -> bool {
        matches!(s.role, RaceRole::Leader)
    }

    fn leader_done(&self, s: &RaceState) -> bool {
        match s.role {
            RaceRole::Leader => true,
            RaceRole::Follower(g) => g.finished,
            RaceRole::Contender { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LeaderElectionProtocol;
    use population::runner::run_seed_range;
    use population::{Simulator, StopReason};

    fn elect(n: usize, seed: u64) -> (usize, u64) {
        let protocol = LeaderElectionProtocol::new(TournamentLe::for_n(n), n);
        let init = protocol.initial();
        let mut sim = Simulator::new(protocol, init, seed);
        let budget = 500 * (n as u64) * 64; // generous c·n·log²n
        let stop = sim.run_until(
            |s| s.iter().all(|x| TournamentLe::for_n(n).leader_done(x)),
            budget,
            n as u64,
        );
        let t = match stop {
            StopReason::Converged(t) => t,
            StopReason::BudgetExhausted => panic!("election did not finish in {budget}"),
        };
        let leaders = sim.protocol().leader_count(sim.states());
        (leaders, t)
    }

    #[test]
    fn race_value_ordering_is_lexicographic() {
        let lo = RaceValue {
            epoch: 3,
            bit: true,
        };
        let hi = RaceValue {
            epoch: 4,
            bit: false,
        };
        assert!(hi > lo, "later epoch beats any bit");
        let tails = RaceValue {
            epoch: 4,
            bit: false,
        };
        let heads = RaceValue {
            epoch: 4,
            bit: true,
        };
        assert!(heads > tails);
    }

    #[test]
    fn contender_hearing_greater_value_is_eliminated() {
        let le = TournamentLe::for_n(16);
        let mut u = le.initial_state();
        let mut v = le.initial_state();
        v.role = RaceRole::Contender {
            value: RaceValue {
                epoch: 2,
                bit: true,
            },
            ticks: 5,
        };
        le.transition(&mut u, &mut v);
        assert!(
            matches!(u.role, RaceRole::Follower(_)),
            "laggard must become follower, got {:?}",
            u.role
        );
        assert!(matches!(v.role, RaceRole::Contender { .. }));
    }

    #[test]
    fn finished_gossip_eliminates_contenders_and_sets_done() {
        let le = TournamentLe::for_n(16);
        let mut u = le.initial_state();
        let mut v = le.initial_state();
        v.role = RaceRole::Leader;
        le.transition(&mut u, &mut v);
        assert!(le.leader_done(&u), "follower of a finished race is done");
        assert!(!le.is_leader(&u));
        assert!(le.is_leader(&v));
    }

    #[test]
    fn epoch_advances_after_epoch_len_initiations() {
        let le = TournamentLe {
            epochs: 3,
            epoch_len: 4,
        };
        let mut u = le.initial_state();
        let mut v = le.initial_state();
        v.role = RaceRole::Follower(Gossip {
            best: RaceValue {
                epoch: 0,
                bit: false,
            },
            finished: false,
        });
        for _ in 0..3 {
            le.transition(&mut u, &mut v);
            assert!(matches!(
                u.role,
                RaceRole::Contender {
                    value: RaceValue { epoch: 0, .. },
                    ..
                }
            ));
        }
        le.transition(&mut u, &mut v);
        match u.role {
            RaceRole::Contender { value, ticks } => {
                assert_eq!(value.epoch, 1);
                assert_eq!(ticks, 4);
            }
            other => panic!("expected contender, got {other:?}"),
        }
    }

    #[test]
    fn lone_survivor_becomes_leader() {
        let le = TournamentLe {
            epochs: 2,
            epoch_len: 2,
        };
        let mut u = le.initial_state();
        let mut v = le.initial_state();
        v.role = RaceRole::Follower(Gossip {
            best: RaceValue {
                epoch: 0,
                bit: false,
            },
            finished: false,
        });
        // 2 epochs × 2 ticks = 4 initiator activations to finish.
        for _ in 0..4 {
            le.transition(&mut u, &mut v);
        }
        assert!(le.is_leader(&u));
        // The finished flag reaches the follower on the next meeting.
        le.transition(&mut u, &mut v);
        assert!(le.leader_done(&v), "follower hears the finished flag");
    }

    #[test]
    fn responder_coin_toggles_every_interaction() {
        let le = TournamentLe::for_n(8);
        let mut u = le.initial_state();
        let mut v = le.initial_state();
        assert!(!v.coin);
        le.transition(&mut u, &mut v);
        assert!(v.coin);
        le.transition(&mut u, &mut v);
        assert!(!v.coin);
    }

    #[test]
    fn election_always_produces_at_least_one_leader() {
        for n in [8, 32, 128] {
            let results = run_seed_range(20, |seed| elect(n, seed));
            for (leaders, _) in results {
                assert!(leaders >= 1, "n={n}: no leader elected");
            }
        }
    }

    #[test]
    fn election_is_almost_always_unique() {
        // 60 elections at n = 64: with R = 2·6+6 = 18, a duplicate-leader
        // event has probability ≲ n²·2⁻¹⁸ ≈ 1.6%, so allow one failure.
        let results = run_seed_range(60, |seed| elect(64, seed));
        let dupes = results.iter().filter(|(l, _)| *l > 1).count();
        assert!(dupes <= 1, "{dupes}/60 elections had multiple leaders");
    }

    #[test]
    fn election_time_scales_like_n_log_squared() {
        // Interface contract: O(n log² n). Check the normalized time is
        // bounded by a modest constant across sizes.
        for n in [32usize, 64, 128] {
            let times = run_seed_range(8, |seed| elect(n, seed).1 as f64);
            let mean = times.iter().sum::<f64>() / times.len() as f64;
            let log2n = (n as f64).log2();
            let normalized = mean / (n as f64 * log2n * log2n);
            assert!(
                normalized < 40.0,
                "n={n}: normalized election time {normalized}"
            );
        }
    }

    #[test]
    fn state_count_formula_is_sane() {
        let le = TournamentLe::for_n(1024);
        // R = 26, D = 30: 2·(26·2·30 + 27·4 + 1) = 2·(1560+108+1) = 3338.
        assert_eq!(le.state_count(), 3338);
    }
}
