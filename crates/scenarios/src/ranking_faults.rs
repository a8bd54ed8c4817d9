//! Ready-made fault injectors for the paper's `StableRanking`.
//!
//! Each constructor binds one of the generic injectors in
//! [`crate::fault`] to `StableRanking`'s state space, covering the
//! adversarial scenarios of the recovery benchmark:
//!
//! * [`corrupt`] — `k` agents overwritten with uniform garbage from the
//!   protocol's full (valid) state space;
//! * [`churn`] — `k` agents replaced by factory-new agents in the
//!   initial leader-election state (agent replacement / churn);
//! * [`duplicate_rank`] — a ranked agent's state copied onto victims,
//!   the exact inconsistency Figure 2's worst case is built around;
//! * [`erase_rank`] — ranked agents demoted to fresh joiners (rank
//!   loss);
//! * [`coin_bias`] — every synthetic coin forced to one side, attacking
//!   the one-third/two-thirds balance Lemma 28's argument rests on;
//! * [`randomize`] — the whole population re-drawn uniformly, i.e. a
//!   fresh adversarial initialization mid-run.

//! # Packed runs
//!
//! All injectors here corrupt structured [`StableState`]s, while the
//! throughput-critical simulations run `StableRanking` over its packed
//! single-word representation (`population::Packed`). The two meet at
//! the fault boundary: wrap any plan in
//! [`population::UnpackedHook`] and the engine unpacks the
//! configuration only at firing points, corrupts it with the exact same
//! injector logic and RNG stream, and re-packs — so a packed faulted
//! run is trajectory-equivalent to the structured one (property-tested
//! in `tests/packed_equivalence.rs`).

use rand::rngs::SmallRng;
use rand::RngExt;
use ranking::stable::state::{UnRole, UnState};
use ranking::stable::{StableRanking, StableState};

use crate::fault::{DuplicateRank, EraseRank, Fault, MapStates, StateRewrite};

/// Every injector kind this module provides, in canonical table order —
/// shared by the recovery benchmark and the packed-equivalence tests so
/// "every injector" means the same list everywhere.
pub const KINDS: [&str; 6] = [
    "corrupt",
    "churn",
    "duplicate_rank",
    "erase_rank",
    "coin_bias",
    "randomize",
];

/// Construct the injector named `kind` with its conventional severity
/// for population size `n` (a quarter corrupted / churned, an eighth
/// erased, two duplicates, all coins forced to heads, or the whole
/// population randomized).
///
/// # Panics
///
/// Panics on a name outside [`KINDS`].
pub fn standard(kind: &str, protocol: &StableRanking, n: usize) -> Box<dyn Fault<StableState>> {
    match kind {
        "corrupt" => Box::new(corrupt(protocol, (n / 4).max(1))),
        "churn" => Box::new(churn(protocol, (n / 4).max(1))),
        "duplicate_rank" => Box::new(duplicate_rank(2)),
        "erase_rank" => Box::new(erase_rank(protocol, (n / 8).max(1))),
        "coin_bias" => Box::new(coin_bias(true)),
        "randomize" => Box::new(randomize(protocol)),
        other => panic!("unknown injector kind {other} (see ranking_faults::KINDS)"),
    }
}

/// A factory-new agent: initial `FASTLEADERELECTION` state, random coin.
fn fresh_joiner(protocol: &StableRanking) -> impl FnMut(&mut SmallRng) -> StableState {
    let fast = *protocol.fast_le();
    move |rng| {
        StableState::Un(UnState {
            coin: rng.random_bool(0.5),
            role: UnRole::Elect(fast.initial_state()),
        })
    }
}

/// Transient corruption: `k` uniformly chosen agents overwritten with
/// uniform garbage from the protocol's state space.
pub fn corrupt(protocol: &StableRanking, k: usize) -> impl Fault<StableState> {
    let p = protocol.clone();
    StateRewrite::corrupt(k, move |rng: &mut SmallRng| p.random_state(rng))
}

/// Churn: `k` uniformly chosen agents replaced with factory-new agents
/// (initial leader-election state, random coin) — state replacement is
/// how the population model expresses an agent leaving and a new one
/// joining.
pub fn churn(protocol: &StableRanking, k: usize) -> impl Fault<StableState> {
    StateRewrite::churn(k, fresh_joiner(protocol))
}

/// Rank duplication: one ranked agent's state copied onto `copies`
/// victims.
pub fn duplicate_rank(copies: usize) -> DuplicateRank {
    DuplicateRank::new(copies)
}

/// Rank erasure: up to `k` ranked agents demoted to factory-new agents.
pub fn erase_rank(protocol: &StableRanking, k: usize) -> impl Fault<StableState> {
    EraseRank::new(k, fresh_joiner(protocol))
}

/// Coin bias: every unranked agent's synthetic coin forced to `value`
/// (ranked agents store no coin, so they are untouched).
pub fn coin_bias(value: bool) -> impl Fault<StableState> {
    MapStates::new("coin_bias", move |s: &mut StableState, _: &mut SmallRng| {
        if let StableState::Un(un) = s {
            un.coin = value;
        }
    })
}

/// Full-population randomization: a fresh adversarial initialization
/// injected mid-run.
pub fn randomize(protocol: &StableRanking) -> impl Fault<StableState> {
    let p = protocol.clone();
    StateRewrite::randomize(move |rng: &mut SmallRng| p.random_state(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::{has_duplicate_rank, ranked_count, RankOutput};
    use rand::SeedableRng;
    use ranking::Params;

    fn legal_states(n: usize) -> (StableRanking, Vec<StableState>) {
        let p = StableRanking::new(Params::new(n));
        let states = p.legal();
        (p, states)
    }

    #[test]
    fn corrupt_leaves_other_agents_untouched() {
        let (p, mut states) = legal_states(32);
        let mut rng = SmallRng::seed_from_u64(1);
        corrupt(&p, 5).apply(&mut states, &mut rng);
        assert!(ranked_count(&states) >= 32 - 5);
    }

    #[test]
    fn churn_injects_electing_agents() {
        let (p, mut states) = legal_states(32);
        let mut rng = SmallRng::seed_from_u64(2);
        churn(&p, 7).apply(&mut states, &mut rng);
        let electing = states.iter().filter(|s| s.is_electing()).count();
        assert_eq!(electing, 7);
        assert_eq!(ranked_count(&states), 25);
    }

    #[test]
    fn duplicate_rank_breaks_the_permutation() {
        let (_, mut states) = legal_states(32);
        let mut rng = SmallRng::seed_from_u64(3);
        Fault::<StableState>::apply(&mut duplicate_rank(2), &mut states, &mut rng);
        assert!(has_duplicate_rank(&states));
        assert_eq!(ranked_count(&states), 32, "victims stay ranked");
    }

    #[test]
    fn erase_rank_unranks_exactly_k() {
        let (p, mut states) = legal_states(32);
        let mut rng = SmallRng::seed_from_u64(4);
        erase_rank(&p, 6).apply(&mut states, &mut rng);
        assert_eq!(ranked_count(&states), 26);
    }

    #[test]
    fn coin_bias_flattens_every_coin() {
        let p = StableRanking::new(Params::new(32));
        let mut states = p.initial();
        let mut rng = SmallRng::seed_from_u64(5);
        coin_bias(true).apply(&mut states, &mut rng);
        assert!(states.iter().all(|s| s.coin() == Some(true)));
    }

    #[test]
    fn standard_builds_every_kind() {
        let p = StableRanking::new(Params::new(32));
        let mut rng = SmallRng::seed_from_u64(9);
        for kind in KINDS {
            let mut fault = standard(kind, &p, 32);
            assert_eq!(fault.name(), kind);
            let mut states = p.legal();
            fault.apply(&mut states, &mut rng);
            assert!(
                states.iter().all(|s| s.is_valid_for(p.params())),
                "{kind} left the state space"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown injector kind")]
    fn standard_rejects_unknown_kinds() {
        let p = StableRanking::new(Params::new(8));
        let _ = standard("bitflip", &p, 8);
    }

    #[test]
    fn injectors_drive_packed_runs_through_the_unpack_boundary() {
        // The packed hot path never sees structured states; the
        // injector fires through `UnpackedHook` at the fault boundary
        // and the run continues on words.
        use crate::FaultPlan;
        use population::{
            drive, ranked_count, NoPoll, NoSaves, NullProbe, Packed, Simulator, UnpackedHook,
        };

        let n = 32;
        let p = Packed(StableRanking::new(Params::new(n)));
        let init = p.pack_all(&p.inner().legal());
        let mut sim = Simulator::new(p, init, 4);
        let mut hook = UnpackedHook::new(
            FaultPlan::new(7).once(1000, standard("erase_rank", sim.protocol().inner(), n)),
        );
        drive(
            &mut sim,
            1001,
            &mut hook,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );
        assert_eq!(hook.inner().fired().len(), 1);
        // `PackedState` implements `RankOutput`, so the word-level
        // configuration is directly observable: exactly n/8 ranks lost.
        assert_eq!(ranked_count(sim.states()), n - n / 8);
    }

    #[test]
    fn randomize_rewrites_every_agent_validly() {
        let (p, mut states) = legal_states(32);
        let mut rng = SmallRng::seed_from_u64(6);
        randomize(&p).apply(&mut states, &mut rng);
        assert!(
            states.iter().all(|s| s.is_valid_for(p.params())),
            "randomized states must stay inside the state space"
        );
        // A uniform draw over the state space is (w.o.p.) not a
        // permutation of ranks.
        assert!(states.iter().any(|s| s.rank().is_none()));
    }
}
