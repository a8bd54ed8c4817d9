//! Protocol 3 on packed words: `StableRanking`'s implementation of the
//! [`PackedProtocol`] seam.
//!
//! One `#[inline(always)]` word step, `step`, is the only packed
//! implementation of the transition. Every packed entry runs it:
//!
//! ```text
//!  transition_packed ── one pair ─────────────────────┐ (Simulator::step)
//!                                                     │
//!  transition_block ──┐  in-order pass (≤ 4096 pairs) │
//!  transition_from ───┴► load u, v; ranked_null(u, v) │
//!   (MARK or not)        → count as main/main, next   │
//!                        pair (no borrow, no store);  │
//!                        else ────────────────────────┤
//!                                                     ▼
//!                                  step(t, half, u, v, tally)
//!                                                     │
//!                                                     ▼
//!  classify: one-hot mask tests over the two loaded words
//!        │    reset: (u|v) & TAG_RESET       both-elect: u & v & TAG_ELECT
//!        │    one-elect: (u|v) & TAG_ELECT   main/main: otherwise
//!        ▼
//!  dispatch (skewed branch chain, Protocol 3 line order)
//!        ├─ reset-involved → propagate_step_packed
//!        ├─ both-electing  → branchless lottery word step
//!        │                   (n = 2: the initiator wins outright)
//!        ├─ one-electing   → mask-selected join_phase1 rebirth
//!        └─ main/main      → ranked×ranked null exit (no store),
//!        │                   else ranking_plus
//!        ▼  shared tail: branchless coin toggle + changed compare
//!  words (flat SoA Vec<PackedState>)
//!        │
//!        ▼  MARK = true (the probed loop's feed) only, and only if a tag
//!           changed or the pair is main/main: one combined test of
//!           (old ^ new) & class_mask(old) over both agents, rarely taken
//!  marks (n-bit set; a hit sets the bit of each agent whose class changed)
//! ```
//!
//! The block pass and the step add reset events and dispatch classes to
//! a local `Tally`, which the block pass flushes to the metrics registry
//! once per block: one relaxed `fetch_add` per counter per block, not
//! one per event. `transition_packed` flushes only the reset count, so
//! the dispatch mix ([`StableRanking::dispatch_mix`]) counts what blocks
//! execute.
//!
//! Where the time goes, per class:
//!
//! * **main/main**: two distinct ranked agents are a null pair,
//!   detected with one mask test and a compare (`ranked_null`), with
//!   no store and no coin to toggle. A converged population takes this
//!   exit on essentially every interaction (about 96% of perfbench
//!   `stabilize`'s pairs). The block pass tests for it before anything
//!   else, on the two loaded words, so a null pair also skips the three
//!   class tests and the `pair_mut` borrow; this raised perfbench
//!   `stabilize` by about 1.2× (see docs/BENCHMARKS.md). A pair that
//!   fails the test pays one more branch before the class chain; in a
//!   reset-heavy run (perfbench `traced_sharded`: about 90% of pairs
//!   are not main/main) that is most pairs. `transition_packed`
//!   keeps the class chain first: the null test is the main/main arm's
//!   first step.
//! * **both-electing**: the embedded Protocol 5 lottery runs as
//!   straight-line mask arithmetic directly on the packed word
//!   (`elect_step_word`), with no field unpack and no effect enum.
//!   Only the two rare effects (leader rebirth, timeout reset) are
//!   real branches.
//! * **everywhere**: the responder coin toggle is a branchless
//!   mask-multiply and the changed flag is a non-shortcircuit compare.
//!
//! Because the pass executes pairs in draw order, a block is bit-for-bit
//! the same pairs run one at a time: repeated agents inside a block
//! need no special handling, since a pair reads whatever the previous
//! pair wrote. (An earlier revision instead split blocks into
//! hazard-free segments with an occupancy bitset and ran per-class
//! stashed lanes, so each class body became a tight homogeneous loop.
//! Measured on the `engine_throughput` workload it *lost* to the
//! pair-at-a-time loop by ~2×: the per-pair bookkeeping (six bitset
//! updates, a 24-byte stash write + read) and the short expected
//! segment length (≈ √(πn/8) pairs before the first repeated agent,
//! ~63 at `n = 10⁴`) cost more than the removed dispatch branches,
//! while the reset and Ranking⁺ lanes still ran the same helper bodies.
//! The in-order form pays none of that segmentation tax.)
//!
//! The marked pass (`transition_from::<true, _>`, the probed block
//! loop's feed) is the same pass with `MARK = true`: after each stepped
//! pair it sets the bits of the agents whose class key changed, so a
//! flight recorder diffs only those agents at the next block boundary.
//! Null exits change nothing and mark nothing. A stepped pair first
//! passes a filter on its four words: a tag changed,
//! `((pu ^ u) | (pv ^ v)) & TAG_MASK != 0`, or the pair is main/main,
//! `(pu | pv) & (TAG_RESET | TAG_ELECT) == 0`. Only then does it build
//! the two class masks and test `(old ^ new) & class_mask(old)` for
//! both agents in one combined, rarely taken branch. The filter is
//! exact, so the marks are those of the unfiltered test. A class key is
//! the tag, plus the rank of a ranked word and the phase of a phase
//! word, and ranks and phases move only in the main/main arm
//! (Ranking⁺). Every other arm changes a key only with its tag: the
//! reset arm either infects its partner (a new tag) or counts down
//! reset lanes, the electing arms rewrite lottery lanes or move an
//! agent to another tag, and the responder coin toggle lies outside
//! every non-ranked `class_mask` (a ranked agent has no coin).
//! `tests/one_step_exhaustive.rs` checks this on every ordered pair of
//! states. Most pairs of a reset wave keep both tags (perfbench
//! `traced_sharded` sends about two thirds of its pairs through the
//! reset arm and a quarter through the both-electing arm), so they skip
//! the masks. With `MARK = false` the whole test compiles away, so the
//! unprobed entries pay nothing for it.
//!
//! Equivalence with the structured enum path
//! ([`Protocol::transition`](population::Protocol::transition), the
//! readable reference) is property-tested in
//! `tests/packed_equivalence.rs`: random runs including n = 2 and 3,
//! block boundaries, repeated-agent blocks, faulted and sharded runs.

use population::schedule::Pair;
use population::{is_valid_ranking, pair_mut, PackedProtocol, PairSource};

use crate::stable::packed::{
    class_mask, PackedState, A_SHIFT, COIN_BIT, TAG_ELECT, TAG_MASK, TAG_RESET,
};
use crate::stable::ranking_plus::ranking_plus_step_packed;
use crate::stable::reset;
use crate::stable::tables::StepTables;
use crate::stable::{StableRanking, StableState};

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
/// triggered. Must match `FastLe::step` through the codec exactly
/// (pinned by a unit test below and by the trajectory equivalence
/// suite).
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

/// Instrumentation a run of [`step`] calls accumulates in locals:
/// reset events, and interactions per dispatch class, indexed like
/// [`StableRanking::dispatch_mix`].
#[derive(Default)]
struct Tally {
    resets: u64,
    mix: [u64; 4],
}

/// Whether two loaded words are a ranked×ranked null pair: both tags
/// are zero (so the pair is main/main) and the ranks differ, so neither
/// word changes and neither agent has a coin to toggle. A duplicate rank
/// is not null: Ranking⁺ resets it.
#[inline(always)]
fn ranked_null(pu: u64, pv: u64) -> bool {
    (pu | pv) & TAG_MASK == 0 && pu != pv
}

/// One Protocol 3 interaction on packed words, returning whether either
/// word changed. `half` is the lottery's `L_max / 2` (Protocol 5
/// line 9), hoisted by the callers.
#[inline(always)]
fn step(
    t: &StepTables,
    half: u64,
    u: &mut PackedState,
    v: &mut PackedState,
    tally: &mut Tally,
) -> bool {
    let (pu, pv) = (u.0, v.0);
    // One-hot classification over the two loaded words — each test is
    // a single fused mask op — feeding a skewed branch chain, which the
    // predictor tracks far better than a computed jump (a `match` on
    // the arithmetic class index measured ~5% slower). Only the
    // class-specific core lives in each arm; the responder coin toggle
    // and the changed compare are one shared tail.
    let or = pu | pv;
    if or & TAG_RESET != 0 {
        // Line 1: propagate resets / wake dormant agents.
        tally.mix[0] += 1;
        reset::propagate_step_packed(t, u, v);
    } else if pu & pv & TAG_ELECT != 0 {
        // Lines 2–3: both electing — the initiator's lottery step.
        tally.mix[1] += 1;
        if t.n == 2 {
            // Two-agent special case (see `Protocol::transition`): the
            // lottery cannot be won against a single alternating coin,
            // so the initiator becomes the waiting leader outright.
            u.0 = t.leader_wait.bits() | (pu & COIN_BIT);
        } else {
            let (nu, reset_triggered) = elect_step_word(t, half, pu, pv);
            tally.resets += u64::from(reset_triggered);
            u.0 = nu;
        }
    } else if or & TAG_ELECT != 0 {
        // Lines 4–6: exactly one electing — precomposed phase-1 rebirth
        // for the electing side, mask-selected so the
        // initiator/responder distinction costs no branch.
        tally.mix[2] += 1;
        let join = t.join_phase1.bits();
        let ue = pu & TAG_ELECT != 0;
        u.0 = if ue { join | (pu & COIN_BIT) } else { pu };
        v.0 = if ue { pv } else { join | (pv & COIN_BIT) };
    } else {
        // Lines 7–8: both in main states. The null exit first — two
        // distinct ranked agents leave each other alone (no state
        // change, no coin to toggle, no store), and once ranking
        // stabilizes almost every interaction takes it — full Ranking⁺
        // otherwise.
        tally.mix[3] += 1;
        if ranked_null(pu, pv) {
            return false;
        }
        let out = ranking_plus_step_packed(t, u, v);
        tally.resets += u64::from(out.reset_triggered);
    }
    // Lines 9–10: the responder coin toggles if it has one (unranked ⇔
    // some tag bit set) — a branchless mask-multiply — and the changed
    // flag is a non-shortcircuit compare against the loaded words.
    v.0 ^= COIN_BIT * u64::from(v.0 & TAG_MASK != 0);
    (u.0 != pu) | (v.0 != pv)
}

impl StableRanking {
    /// The lottery's `L_max / 2` as [`step`] takes it.
    fn half(&self) -> u64 {
        u64::from(self.fast.l_max / 2)
    }

    /// The in-order pass of [`step`] over `pairs`, returning the number
    /// of word-changing interactions. Both block entries run this one
    /// body: a sampled block feeds it a slice, and the uniform schedule
    /// feeds it pairs drawn as they are pulled.
    ///
    /// Each pair's two words are loaded and tested with [`ranked_null`]
    /// before anything is borrowed, so a null pair costs no `pair_mut`,
    /// no class test and no store; only the other pairs take `step`.
    /// Null exits count as main/main, as `step` counts them.
    ///
    /// With `MARK`, every stepped agent whose class key changed gets its
    /// bit set in `marks` (see [`class_mask`] and the module doc's
    /// tag filter); without it `marks` is never touched.
    #[inline(always)]
    fn kernel<const MARK: bool>(
        &self,
        words: &mut [PackedState],
        pairs: impl Iterator<Item = Pair>,
        marks: &mut [u64],
    ) -> u64 {
        let (t, half) = (&self.tables, self.half());
        let mut tally = Tally::default();
        let (mut changed, mut nulls) = (0u64, 0u64);
        for (i, j) in pairs {
            let (i, j) = (i as usize, j as usize);
            if ranked_null(words[i].0, words[j].0) {
                nulls += 1;
                continue;
            }
            let (u, v) = pair_mut(words, i, j);
            let (pu, pv) = (u.0, v.0);
            changed += u64::from(step(t, half, u, v, &mut tally));
            // Outside main/main a class key changes only with its tag
            // (see the module doc), so only a main/main pair or a tag
            // change needs the masks.
            if MARK
                && (((pu ^ u.0) | (pv ^ v.0)) & TAG_MASK != 0
                    || (pu | pv) & (TAG_RESET | TAG_ELECT) == 0)
            {
                let du = (pu ^ u.0) & class_mask(pu);
                let dv = (pv ^ v.0) & class_mask(pv);
                if du | dv != 0 {
                    marks[i / 64] |= u64::from(du != 0) << (i % 64);
                    marks[j / 64] |= u64::from(dv != 0) << (j % 64);
                }
            }
        }
        tally.mix[3] += nulls;
        // Flush the locally accumulated instrumentation: one relaxed
        // RMW per counter per block instead of one per event.
        if tally.resets > 0 {
            self.metrics.resets.add(tally.resets);
        }
        for (hits, count) in self.metrics.classes.iter().zip(tally.mix) {
            if count > 0 {
                hits.add(count);
            }
        }
        changed
    }
}

impl PackedProtocol for StableRanking {
    type Packed = PackedState;

    fn pack(&self, state: &StableState) -> PackedState {
        PackedState::pack(state)
    }

    fn unpack(&self, word: PackedState) -> StableState {
        word.unpack()
    }

    /// One pair through the kernel's word step. Only the reset count is
    /// flushed: the dispatch mix counts what blocks execute, not single
    /// pairs.
    #[inline]
    fn transition_packed(&self, u: &mut PackedState, v: &mut PackedState) -> bool {
        let mut tally = Tally::default();
        let changed = step(&self.tables, self.half(), u, v, &mut tally);
        if tally.resets > 0 {
            self.metrics.resets.add(tally.resets);
        }
        changed
    }

    fn transition_block(&self, words: &mut [PackedState], pairs: &[Pair]) -> u64 {
        self.kernel::<false>(words, pairs.iter().copied(), &mut [])
    }

    /// The drawn feed through the pass. Inlined into every caller, so
    /// each engine loop holds the kernel itself: left to the optimizer,
    /// a second caller moves it out of line, and the unprobed loop read
    /// about 0.93× on perfbench `stabilize` that way.
    #[inline(always)]
    fn transition_from<const MARK: bool, S: PairSource>(
        &self,
        words: &mut [PackedState],
        source: &mut S,
        max: usize,
        marks: &mut [u64],
    ) -> (usize, u64) {
        let pairs = source.pairs(max);
        let executed = pairs.len();
        (executed, self.kernel::<MARK>(words, pairs, marks))
    }

    /// A valid ranking is silent: every agent is ranked and the ranks
    /// are distinct, so every pair takes the main/main null exit above.
    fn silent(&self, words: &[PackedState]) -> bool {
        is_valid_ranking(words)
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
    use crate::stable::state::{MainKind, UnRole, UnState};
    use leader_election::fast::{FastLeEffect, FastLeState};
    use population::schedule::BLOCK_PAIRS;
    use population::{CursorSource, Packed, Protocol, Schedule, ScheduleCursor};

    fn protocol(n: usize) -> StableRanking {
        StableRanking::new(Params::new(n))
    }

    /// The branchless lottery word step must agree with the enum
    /// `FastLe::step` through the codec over the full elect state space
    /// × both responder coins, rebirths included.
    #[test]
    fn elect_step_word_matches_fast_le_step() {
        let p = protocol(64);
        let params = p.params();
        for le in 0..=p.fast_le().l_max {
            for cc in 0..=p.fast_le().coin_target {
                for (done, lead) in [(false, false), (true, false), (true, true)] {
                    for (u_coin, v_coin) in [(false, false), (false, true), (true, false)] {
                        let mut lottery = FastLeState {
                            le_count: le,
                            coin_count: cc,
                            leader_done: done,
                            is_leader: lead,
                        };
                        let u = PackedState::elect(u_coin, lottery);
                        let v = PackedState::elect(v_coin, p.fast_le().initial_state());
                        let effect = p.fast_le().step(&mut lottery, v_coin);
                        let expected = match effect {
                            FastLeEffect::None => StableState::Un(UnState {
                                coin: u_coin,
                                role: UnRole::Elect(lottery),
                            }),
                            FastLeEffect::BecomeWaitingLeader => StableState::Un(UnState {
                                coin: u_coin,
                                role: UnRole::Main {
                                    alive: params.l_max(),
                                    kind: MainKind::Waiting(params.wait_max()),
                                },
                            }),
                            FastLeEffect::TimedOut => {
                                let mut s = u.unpack();
                                reset::trigger_reset(params.r_max(), params.d_max(), &mut s);
                                s
                            }
                        };
                        let (nu, reset) = elect_step_word(p.tables(), p.half(), u.0, v.0);
                        let at = format!("le={le} cc={cc} done={done} lead={lead} v_coin={v_coin}");
                        assert_eq!(PackedState(nu).unpack(), expected, "initiator at {at}");
                        assert_eq!(reset, effect == FastLeEffect::TimedOut, "reset at {at}");
                    }
                }
            }
        }
    }

    /// The one-pair entry runs the same step and counts its resets, but
    /// adds nothing to the dispatch mix, which counts blocks only.
    #[test]
    fn transition_packed_counts_resets_but_no_dispatch_class() {
        let p = protocol(16);
        let (mut u, mut v) = (PackedState::ranked(3), PackedState::ranked(3));
        assert!(
            p.transition_packed(&mut u, &mut v),
            "a duplicate rank resets"
        );
        assert_eq!(p.resets_triggered(), 1);
        let words = p
            .initial()
            .iter()
            .map(PackedState::pack)
            .collect::<Vec<_>>();
        let (mut u, mut v) = (words[0], words[1]);
        p.transition_packed(&mut u, &mut v);
        assert_eq!(p.dispatch_mix(), [0; 4]);
    }

    /// Crafted blocks with repeated agents: the kernel's in-order pass
    /// must reproduce the enum reference loop exactly — including the
    /// degenerate all-same-pair block, where every pair reads the
    /// previous pair's writes — through both feeds. The slice feed runs
    /// each block as given. The drawn feed runs a schedule restored
    /// with the block pending, which serves it as one block, then one
    /// block it draws itself, which at n = 16 repeats agents throughout.
    #[test]
    fn repeated_agent_blocks_reproduce_the_enum_loop() {
        let n = 16u32;
        let pair_sets: Vec<Vec<Pair>> = vec![
            vec![(0, 1); 64],
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)],
            (0..200).map(|k| (k % n, (k * 7 + 1) % n)).collect(),
        ];
        for (case, pairs) in pair_sets.into_iter().enumerate() {
            let pairs: Vec<Pair> = pairs.into_iter().filter(|&(i, j)| i != j).collect();
            let init = protocol(n as usize).adversarial_uniform(case as u64 + 5);
            let cursor = ScheduleCursor {
                pending: pairs.clone(),
                ..Schedule::new(n as usize, case as u64).cursor()
            };
            let mut reference = Schedule::from_cursor(cursor.clone());
            let first = reference.sample_block(BLOCK_PAIRS).to_vec();
            let blocks = [first, reference.sample_block(BLOCK_PAIRS).to_vec()];
            assert_eq!(blocks[0], pairs, "case {case}: pending pairs come first");

            let q = protocol(n as usize);
            let mut enum_states = init.clone();
            let enum_changed: Vec<u64> = blocks
                .iter()
                .map(|block| Protocol::transition_block(&q, &mut enum_states, block))
                .collect();

            let slice = Packed(protocol(n as usize));
            let mut slice_words = slice.pack_all(&init);
            let slice_changed: Vec<u64> = blocks
                .iter()
                .map(|block| Protocol::transition_block(&slice, &mut slice_words, block))
                .collect();

            let drawn = Packed(protocol(n as usize));
            let mut drawn_words = drawn.pack_all(&init);
            let mut schedule = Schedule::from_cursor(cursor);
            let drawn_changed: Vec<u64> = blocks
                .iter()
                .map(|block| {
                    let (executed, changed) = Protocol::transition_from::<false, _>(
                        &drawn,
                        &mut drawn_words,
                        &mut schedule,
                        BLOCK_PAIRS,
                        &mut [],
                    );
                    assert_eq!(executed, block.len(), "case {case}: block length");
                    changed
                })
                .collect();
            assert_eq!(schedule.cursor(), reference.cursor(), "case {case}: cursor");

            for (feed, p, words, changed) in [
                ("slice", &slice, &slice_words, &slice_changed),
                ("drawn", &drawn, &drawn_words, &drawn_changed),
            ] {
                assert_eq!(
                    p.unpack_all(words),
                    enum_states,
                    "case {case}: {feed} words"
                );
                assert_eq!(changed, &enum_changed, "case {case}: {feed} changed counts");
                assert_eq!(
                    p.inner().resets_triggered(),
                    q.resets_triggered(),
                    "case {case}: {feed} reset instrumentation"
                );
            }
        }
    }

    /// The dispatch class of a pair of enum states, indexed like
    /// [`StableRanking::dispatch_mix`]: the reference the kernel's
    /// counts are checked against.
    fn enum_class(u: &StableState, v: &StableState) -> usize {
        let role = |s: &StableState| match s {
            StableState::Un(UnState { role, .. }) => Some(*role),
            StableState::Ranked(_) => None,
        };
        let reset = |s| matches!(role(s), Some(UnRole::Reset { .. }));
        let elect = |s| matches!(role(s), Some(UnRole::Elect(_)));
        match (reset(u) || reset(v), elect(u), elect(v)) {
            (true, _, _) => 0,
            (false, true, true) => 1,
            (false, true, false) | (false, false, true) => 2,
            (false, false, false) => 3,
        }
    }

    /// Crafted blocks that switch between null and busy stretches: a
    /// null head with a busy rest, and a busy head with a null rest,
    /// split at pair 256 and 255, 257 and 4096 pairs long. Duplicate
    /// ranks sit inside the null stretches, where the null test must let
    /// them through to Ranking⁺: one near the end of the null head (the
    /// busy rest then spreads its reset), one in the null rest. Through
    /// both feeds, the kernel must reproduce the enum loop's words,
    /// changed count, dispatch mix and reset count.
    #[test]
    fn null_first_pass_reproduces_the_enum_loop() {
        let n = 64u32;
        let p = protocol(n as usize);
        let params = p.params();
        // Agents 0..28 hold distinct ranks, 28 and 29 share one, as do
        // 30 and 31; 32..48 propagate a reset, 48..64 elect.
        let rank = |i: u64| if i < 28 { i + 1 } else { 29 + (i - 28) / 2 };
        let mut init: Vec<StableState> = (0..32).map(|i| StableState::Ranked(rank(i))).collect();
        init.extend((32..48).map(|i| {
            StableState::Un(UnState {
                coin: i % 2 == 0,
                role: UnRole::Reset {
                    reset_count: params.r_max(),
                    delay_count: params.d_max(),
                },
            })
        }));
        init.extend((48..64).map(|i| p.elect_state(i % 2 == 0)));
        assert_eq!(init[28], init[29]);
        assert_eq!(init[30], init[31]);
        assert!((0..28).all(|i| init[i] != init[i + 1]));

        // Null pairs: distinct ranks among agents 0..28.
        let null = |k: u32| (k % 28, (k % 28 + 1 + (k / 28) % 27) % 28);
        // Busy pairs: reset×reset, elect×elect and reset×elect, and
        // resets reaching the ranked agents if `spread`.
        let busy = |k: u32, spread: bool| match k % 4 {
            0 => (32 + k % 16, 32 + (k + 1) % 16),
            1 => (48 + k % 16, 48 + (k + 1) % 16),
            3 if spread => (32 + k % 16, k % 28),
            _ => (48 + k % 16, 32 + k % 16),
        };
        let split = 256u32;
        let null_then_busy = |k: u32| match k {
            _ if k == split - 4 => (28, 29),
            _ if k == split => (30, 31),
            _ if k < split => null(k),
            _ => busy(k, true),
        };
        let busy_then_null = |k: u32| match k {
            _ if k < split => busy(k, false),
            _ if k == split + 8 => (30, 31),
            _ => null(k),
        };
        let lengths = [split as usize - 1, split as usize + 1, BLOCK_PAIRS];
        for (shape, pair_at) in [
            ("null then busy", &null_then_busy as &dyn Fn(u32) -> Pair),
            ("busy then null", &busy_then_null),
        ] {
            for len in lengths {
                let block: Vec<Pair> = (0..len as u32).map(pair_at).collect();
                let at = format!("{shape}, {len} pairs");

                let q = protocol(n as usize);
                let mut enum_states = init.clone();
                let mut enum_mix = [0u64; 4];
                let mut enum_changed = 0u64;
                for &(i, j) in &block {
                    let (u, v) = pair_mut(&mut enum_states, i as usize, j as usize);
                    enum_mix[enum_class(u, v)] += 1;
                    enum_changed += u64::from(Protocol::transition(&q, u, v));
                }
                if shape == "null then busy" {
                    assert_ne!(enum_states[28], init[28], "{at}: the duplicate rank resets");
                }

                let slice = Packed(protocol(n as usize));
                let mut slice_words = slice.pack_all(&init);
                let slice_changed = Protocol::transition_block(&slice, &mut slice_words, &block);

                let drawn = Packed(protocol(n as usize));
                let mut drawn_words = drawn.pack_all(&init);
                let mut schedule = Schedule::from_cursor(ScheduleCursor {
                    pending: block.clone(),
                    ..Schedule::new(n as usize, 0).cursor()
                });
                let (executed, drawn_changed) = Protocol::transition_from::<false, _>(
                    &drawn,
                    &mut drawn_words,
                    &mut schedule,
                    len,
                    &mut [],
                );
                assert_eq!(executed, len, "{at}: drawn block length");

                for (feed, p, words, changed) in [
                    ("slice", &slice, &slice_words, slice_changed),
                    ("drawn", &drawn, &drawn_words, drawn_changed),
                ] {
                    assert_eq!(p.unpack_all(words), enum_states, "{at}: {feed} words");
                    assert_eq!(changed, enum_changed, "{at}: {feed} changed count");
                    assert_eq!(p.inner().dispatch_mix(), enum_mix, "{at}: {feed} mix");
                    assert_eq!(
                        p.inner().resets_triggered(),
                        q.resets_triggered(),
                        "{at}: {feed} reset count"
                    );
                }
            }
        }
    }

    /// The certificate holds exactly on valid rankings, n = 2 included,
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
        assert!(Protocol::silent(&two, &two.pack_all(&two.inner().legal())));

        let mut words = legal.clone();
        let pairs: Vec<Pair> = (0..31).map(|i| (i, i + 1)).collect();
        Protocol::transition_block(&p, &mut words, &pairs);
        assert_eq!(words, legal, "a valid ranking is silent");
        Protocol::count_null(&p, 5);
        assert_eq!(p.inner().dispatch_mix(), [0, 0, 0, 36]);
    }

    /// The dispatch-mix counters account for every kernel-executed
    /// pair, at n = 2 as everywhere else.
    #[test]
    fn dispatch_mix_counts_every_pair() {
        for n in [2, 32] {
            let p = Packed(protocol(n));
            let init = p.pack_all(&p.inner().initial());
            let mut sim = population::Simulator::new(p, init, 3);
            sim.run_batched(10_000);
            let mix = sim.protocol().inner().dispatch_mix();
            assert_eq!(
                mix.iter().sum::<u64>(),
                10_000,
                "mix must cover the run at n = {n}"
            );
            // A clean start is all-electing: the hot lane runs early.
            assert!(mix[1] > 0, "both-elect lane never ran at n = {n}");
        }
    }
}
