//! The block transition kernel: `StableRanking`'s implementation of the
//! [`BatchedProtocol`] seam.
//!
//! The scalar packed path (`transition_packed`) already replaced enum
//! walks with tag tests and table lookups, but per pair it still pays
//! the `FastLe::step_bits` field unpack / effect-enum round trip, a
//! full `ranking_plus_step_packed` call on every main/main meeting —
//! including the null meetings a converged population consists of —
//! and an atomic RMW per instrumented event. The kernel processes a
//! whole schedule block in one in-order pass with those costs
//! restructured away:
//!
//! ```text
//!  schedule block (≤ 4096 pairs)
//!        │  in-order pass, one pair at a time
//!        ▼
//!  classify: branchless one-hot mask tests over the two loaded words
//!        │    reset: (u|v) & TAG_RESET       both-elect: u & v & TAG_ELECT
//!        │    one-elect: (u|v) & TAG_ELECT   main/main: otherwise
//!        ▼
//!  dispatch (same skewed branch chain as the scalar dispatcher)
//!        ├─ reset-involved → propagate_step_packed
//!        ├─ both-electing  → branchless lottery word step
//!        ├─ one-electing   → mask-selected join_phase1 rebirth
//!        └─ main/main      → ranked×ranked null fast path (no store),
//!        │                   else ranking_plus
//!        ▼  shared tail: branchless coin toggle + changed compare
//!  words (flat SoA Vec<PackedState>)
//! ```
//!
//! Because the pass executes pairs in draw order, it is bit-for-bit the
//! scalar packed loop by construction: repeated agents inside a block
//! need no special handling — a pair reads whatever the previous pair
//! wrote, exactly as the scalar loop does. (An earlier revision of this
//! kernel instead split blocks into hazard-free segments with an
//! occupancy bitset and ran per-class stashed lanes, so each class body
//! became a tight homogeneous loop. Measured on the `engine_throughput`
//! workload it *lost* to the scalar packed loop by ~2× — the per-pair
//! bookkeeping (six bitset updates, a 24-byte stash write + read) and
//! the short expected segment length (≈ √(πn/8) pairs before the first
//! repeated agent, ~63 at `n = 10⁴`) cost more than the removed
//! dispatch branches, while the reset and Ranking⁺ lanes still ran the
//! same helper bodies as the scalar path. The in-order form keeps every
//! per-class win and pays none of the segmentation tax.)
//!
//! The per-class wins over `transition_packed`:
//!
//! * **main/main**: two distinct ranked agents are a null pair —
//!   detected with one mask test, no store, no coin to toggle. This is
//!   the silent-configuration fast path: a converged population takes
//!   it on essentially every interaction, and there the kernel measures
//!   ~1.3–1.5× the scalar packed loop (~80% of the engine-bound
//!   epidemic ceiling; the `*_silent` rows of `BENCH_engine.json`).
//! * **both-electing**: the embedded Protocol 5 lottery runs as
//!   straight-line mask arithmetic directly on the packed word
//!   (`elect_step_word`) — no field unpack, no effect enum — with
//!   real branches only for the two rare effects (leader rebirth,
//!   timeout reset).
//! * **everywhere**: the responder coin toggle is a branchless
//!   mask-multiply, the changed flag is a non-shortcircuit compare, and
//!   reset-event / dispatch-mix instrumentation is accumulated in
//!   locals and flushed with one relaxed `fetch_add` per counter per
//!   block (the scalar dispatcher pays one per event). The mix feeds
//!   [`StableRanking::dispatch_mix`] so `engine_throughput` can
//!   attribute a kernel regression to a workload shift.
//!
//! On the churn-heavy transient from a clean start (the non-`silent`
//! bench rows) the kernel measures within ~10–20% of the scalar loop
//! either way: those interactions are dominated by the branchy
//! propagate / Ranking⁺ helper bodies both paths share, and paired A/B
//! runs show that even a bit-identical copy of the scalar loop reached
//! through the kernel's call route measures ~0.9× on the benchmark
//! host, so much of the residual is codegen/layout noise rather than
//! algorithmic cost.
//!
//! Equivalence with the scalar packed loop — and, through it, with the
//! structured enum path — is property-tested in
//! `tests/packed_equivalence.rs` (random runs, block boundaries,
//! repeated-agent blocks, faulted and sharded runs).

use population::schedule::Pair;
use population::{is_valid_ranking, pair_mut, BatchedProtocol, PackedProtocol};

use crate::stable::packed::{PackedState, A_SHIFT, COIN_BIT, TAG_ELECT, TAG_MASK, TAG_RESET};
use crate::stable::ranking_plus::ranking_plus_step_packed;
use crate::stable::reset;
use crate::stable::tables::StepTables;
use crate::stable::StableRanking;

/// `LECount` position inside an elect word (16 bits).
const LE_SHIFT: u32 = A_SHIFT;
/// `coinCount` position inside an elect word (16 bits).
const CC_SHIFT: u32 = A_SHIFT + 16;
/// `leaderDone` bit of an elect word.
const DONE_BIT: u64 = 1 << (A_SHIFT + 32);
/// `isLeader` bit of an elect word.
const LEADER_BIT: u64 = 1 << (A_SHIFT + 33);
/// Width mask of the embedded 16-bit counter fields.
const FIELD_MASK: u64 = 0xFFFF;

/// One both-electing interaction as straight-line word arithmetic: the
/// Protocol 5 lottery update of `FastLe::step` with the branches
/// replaced by mask selects, operating directly on the packed word.
/// Returns the initiator's new word and whether a timeout reset was
/// triggered. Must match `FastLe::step_bits` through the word layout
/// exactly (pinned by a unit test below and by the trajectory
/// equivalence suite).
#[inline(always)]
fn elect_step_word(t: &StepTables, half: u64, u: u64, v: u64) -> (u64, bool) {
    // Line 1: LECount ← LECount − 1 (saturating).
    let le = (u >> LE_SHIFT) & FIELD_MASK;
    let le1 = le - u64::from(le != 0);
    // Lines 2–8, applied only while ¬leaderDone: a tails observation
    // finishes the lottery; heads decrement coinCount; heads with an
    // exhausted coinCount win.
    let heads = v & COIN_BIT != 0;
    let live = u & DONE_BIT == 0;
    let cc = (u >> CC_SHIFT) & FIELD_MASK;
    let win = live & heads & (cc == 0);
    let dec = u64::from(live & heads & (cc != 0));
    let mut w = (u & !(FIELD_MASK << LE_SHIFT)) | (le1 << LE_SHIFT);
    w -= dec << CC_SHIFT;
    w |= u64::from(live & (!heads | win)) * DONE_BIT;
    w |= u64::from(win) * LEADER_BIT;
    // Lines 9–15: the two rare effects stay real branches — both are
    // once-per-agent-per-lottery events, so the predictor sees them as
    // almost-never-taken.
    if w & LEADER_BIT != 0 && le1 >= half {
        return (t.leader_wait.bits() | (u & COIN_BIT), false);
    }
    if le1 == 0 {
        return (t.triggered.bits() | (u & COIN_BIT), true);
    }
    (w, false)
}

impl BatchedProtocol for StableRanking {
    fn transition_block(&self, words: &mut [PackedState], pairs: &[Pair]) -> u64 {
        // n = 2 routes through the deterministic-election special case
        // inside `transition_packed`, which reads `params.n()`; keep it
        // on the scalar loop rather than teaching the kernel a case the
        // schedule only produces for a two-agent population.
        if self.params.n() == 2 {
            let mut changed = 0;
            for &(i, j) in pairs {
                let (u, v) = pair_mut(words, i as usize, j as usize);
                changed += u64::from(self.transition_packed(u, v));
            }
            return changed;
        }

        let t = &self.tables;
        let half = u64::from(self.fast.l_max / 2);
        let join = t.join_phase1.bits();
        let mut changed = 0u64;
        let mut resets = 0u64;
        let mut mix = [0u64; 4];

        for &(i, j) in pairs {
            let (u, v) = pair_mut(words, i as usize, j as usize);
            let (pu, pv) = (u.0, v.0);

            // One-hot classification over the two loaded words — each
            // test is a single fused mask op — feeding the same skewed
            // branch chain as the scalar dispatcher (which the
            // predictor tracks far better than a computed jump: a
            // `match` on the arithmetic class index measured ~5%
            // slower on the same workload). Only the class-specific
            // core lives in each arm; the responder coin toggle and
            // the changed compare are one shared tail, so the loop
            // body stays compact.
            let or = pu | pv;
            if or & TAG_RESET != 0 {
                // Reset-involved: Protocol 3 line 1.
                mix[0] += 1;
                reset::propagate_step_packed(t, u, v);
            } else if pu & pv & TAG_ELECT != 0 {
                // Both electing: the branchless lottery word step, no
                // field unpack / effect-enum round trip.
                mix[1] += 1;
                let (nu, reset_triggered) = elect_step_word(t, half, pu, pv);
                resets += u64::from(reset_triggered);
                u.0 = nu;
            } else if or & TAG_ELECT != 0 {
                // Exactly one electing: precomposed phase-1 rebirth
                // for the electing side (Protocol 3 lines 4–6),
                // mask-selected so the initiator/responder distinction
                // costs no branch.
                mix[2] += 1;
                let ue = pu & TAG_ELECT != 0;
                u.0 = if ue { join | (pu & COIN_BIT) } else { pu };
                v.0 = if ue { pv } else { join | (pv & COIN_BIT) };
            } else {
                // Both in main states: the silent-configuration fast
                // path first — two distinct ranked agents are a null
                // pair (no state change, no coin to toggle, no store),
                // and once ranking stabilizes almost every interaction
                // takes this exit — full Ranking⁺ otherwise.
                mix[3] += 1;
                if or & TAG_MASK == 0 && pu != pv {
                    continue;
                }
                let out = ranking_plus_step_packed(t, u, v);
                resets += u64::from(out.reset_triggered);
            }
            // Shared tail, Protocol 3 lines 9–10: the responder coin
            // toggles if it has one (unranked ⇔ some tag bit set) — a
            // branchless mask-multiply — and the changed flag is a
            // non-shortcircuit compare against the loaded words.
            v.0 ^= COIN_BIT * u64::from(v.0 & TAG_MASK != 0);
            changed += u64::from((u.0 != pu) | (v.0 != pv));
        }

        // Flush the locally accumulated instrumentation to the metrics
        // registry: one relaxed RMW per counter per block instead of
        // one per event.
        if resets > 0 {
            self.metrics.resets.add(resets);
        }
        for (hits, count) in self.metrics.classes.iter().zip(mix) {
            if count > 0 {
                hits.add(count);
            }
        }
        changed
    }

    /// A valid ranking is silent: every agent is ranked and the ranks
    /// are distinct, so every pair takes the main/main null exit above.
    /// `n = 2` runs the scalar loop, which counts no dispatch class, so
    /// it is never certified.
    fn silent(&self, words: &[PackedState]) -> bool {
        self.params.n() != 2 && is_valid_ranking(words)
    }

    /// Skipped pairs are main/main null pairs, as the kernel counts them.
    fn count_null(&self, pairs: u64) {
        self.metrics.classes[3].add(pairs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::stable::state::{StableState, UnRole, UnState};
    use leader_election::fast::FastLeState;
    use population::{Packed, Protocol};

    fn protocol(n: usize) -> StableRanking {
        StableRanking::new(Params::new(n))
    }

    /// The branchless lottery word step must agree with
    /// `FastLe::step_bits` (and the dispatcher built on it) over the
    /// full elect state space × both responder coins.
    #[test]
    fn elect_step_word_matches_the_scalar_dispatcher() {
        let p = protocol(64);
        let t = p.tables();
        let half = u64::from(p.fast_le().l_max / 2);
        for le in 0..=p.fast_le().l_max {
            for cc in 0..=p.fast_le().coin_target {
                for (done, lead) in [(false, false), (true, false), (true, true)] {
                    for (u_coin, v_coin) in [(false, false), (false, true), (true, false)] {
                        let state = StableState::Un(UnState {
                            coin: u_coin,
                            role: UnRole::Elect(FastLeState {
                                le_count: le,
                                coin_count: cc,
                                leader_done: done,
                                is_leader: lead,
                            }),
                        });
                        let u = PackedState::pack(&state);
                        let v = PackedState::elect(
                            v_coin,
                            FastLeState {
                                le_count: 1,
                                coin_count: 0,
                                leader_done: true,
                                is_leader: false,
                            },
                        );
                        let mut su = u;
                        let mut sv = v;
                        let resets_before = p.resets_triggered();
                        p.transition_packed(&mut su, &mut sv);
                        let (nu, reset) = elect_step_word(t, half, u.0, v.0);
                        assert_eq!(
                            nu, su.0,
                            "initiator diverged at le={le} cc={cc} done={done} \
                             lead={lead} v_coin={v_coin}"
                        );
                        assert_eq!(
                            reset,
                            p.resets_triggered() == resets_before + 1,
                            "reset flag diverged at le={le} cc={cc} done={done} lead={lead}"
                        );
                        assert_eq!(sv.0, v.0 ^ COIN_BIT, "responder must only toggle its coin");
                    }
                }
            }
        }
    }

    /// Crafted blocks with repeated agents: the kernel's in-order pass
    /// must reproduce the scalar loop exactly — including the
    /// degenerate all-same-pair block, where every pair reads the
    /// previous pair's writes.
    #[test]
    fn repeated_agent_blocks_reproduce_the_scalar_loop() {
        let n = 16u32;
        let pair_sets: Vec<Vec<Pair>> = vec![
            vec![(0, 1); 64],
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)],
            (0..200).map(|k| (k % n, (k * 7 + 1) % n)).collect(),
        ];
        for (case, pairs) in pair_sets.into_iter().enumerate() {
            let pairs: Vec<Pair> = pairs.into_iter().filter(|&(i, j)| i != j).collect();
            let p = Packed(protocol(n as usize));
            let init = p.pack_all(&p.inner().adversarial_uniform(case as u64 + 5));

            let mut kernel_words = init.clone();
            let kernel_changed = Protocol::transition_block(&p, &mut kernel_words, &pairs);

            let mut scalar_words = init;
            let mut scalar_changed = 0u64;
            let q = Packed(protocol(n as usize));
            for &(i, j) in &pairs {
                let (u, v) = pair_mut(&mut scalar_words, i as usize, j as usize);
                scalar_changed += u64::from(q.inner().transition_packed(u, v));
            }

            assert_eq!(kernel_words, scalar_words, "case {case}: words diverged");
            assert_eq!(kernel_changed, scalar_changed, "case {case}: changed count");
            assert_eq!(
                p.inner().resets_triggered(),
                q.inner().resets_triggered(),
                "case {case}: reset instrumentation"
            );
        }
    }

    /// The certificate holds exactly on valid rankings (never at n = 2),
    /// and skipped pairs land in the main/main counter.
    #[test]
    fn valid_rankings_certify_silence_and_skips_count_as_main_main() {
        let p = Packed(protocol(32));
        let legal = p.pack_all(&p.inner().legal());
        assert!(Protocol::silent(&p, &legal));
        assert!(Protocol::silent(p.inner(), &p.inner().legal()));
        let mut duplicate = legal.clone();
        duplicate[0] = duplicate[1];
        assert!(!Protocol::silent(&p, &duplicate));
        let initial = p.pack_all(&p.inner().initial());
        assert!(!Protocol::silent(&p, &initial));
        let two = Packed(protocol(2));
        assert!(!Protocol::silent(&two, &two.pack_all(&two.inner().legal())));

        let mut words = legal.clone();
        let pairs: Vec<Pair> = (0..31).map(|i| (i, i + 1)).collect();
        Protocol::transition_block(&p, &mut words, &pairs);
        assert_eq!(words, legal, "a valid ranking is silent");
        Protocol::count_null(&p, 5);
        assert_eq!(p.inner().dispatch_mix(), [0, 0, 0, 36]);
    }

    /// The dispatch-mix counters account for every kernel-executed pair.
    #[test]
    fn dispatch_mix_counts_every_pair() {
        let p = Packed(protocol(32));
        let init = p.pack_all(&p.inner().initial());
        let mut sim = population::Simulator::new(p, init, 3);
        sim.run_batched(10_000);
        let mix = sim.protocol().inner().dispatch_mix();
        assert_eq!(mix.iter().sum::<u64>(), 10_000, "mix must cover the run");
        // A clean start is all-electing: the hot lane dominates early.
        assert!(mix[1] > 0, "both-elect lane never ran");
    }
}
