//! Packed single-word representation of [`StableState`].
//!
//! The paper's headline result is a state space of `n + O(log² n)`
//! states — small enough that the *entire* agent state fits comfortably
//! in one `u64`. The structured [`StableState`] enum is the readable
//! reference representation, but it occupies 24 bytes and its
//! transition walks a tree of matches; [`PackedState`] is the
//! simulation representation: 8 bytes, flat structure-of-arrays
//! storage, and a branch-reduced transition (the word step of
//! [`kernel`](crate::stable::kernel)) driven by the precomputed
//! [`StepTables`](crate::stable::tables::StepTables).
//!
//! # Layout
//!
//! ```text
//! bit    63 .. 39 38 37   36 .. 21   20 .. 5   4     3 .. 0
//!        ┌────────┬──┬──┬──────────┬─────────┬────┬────────┐
//! Ranked │            rank (59 bits)         │ 0  │  0000  │
//! Reset  │ 0      │     │ delayCnt │ resetCnt│coin│  0001  │
//! Elect  │ 0      │IL│LD│ coinCnt* │ LECount │coin│  0010  │
//! Wait   │ 0      │     │ waitCnt  │ aliveCnt│coin│  0100  │
//! Phase  │ 0      │     │ phase    │ aliveCnt│coin│  1000  │
//!        └────────┴──┴──┴──────────┴─────────┴────┴────────┘
//! ```
//!
//! * bits 0..4 — the role tag, **one-hot** (`Ranked` is all-zero): the
//!   dispatcher's role tests compile to single fused bit operations on
//!   the two interacting words — "either agent resetting" is
//!   `(u | v) & TAG_RESET`, "both electing" is `u & v & TAG_ELECT`,
//!   "both waiting" is `u & v & TAG_WAITING`, "unranked main agent" is
//!   `w & (TAG_WAITING | TAG_PHASE)` — instead of chains of compares;
//! * bit 4 — the synthetic coin (always 0 for ranked agents, which
//!   store *nothing but their rank* — the paper's space constraint);
//! * bits 5..21 / 21..37 — two 16-bit counter lanes (`A` / `B`);
//! * `Elect` embeds [`FastLeState::to_bits`] at bit 5: `LECount` in
//!   lane A, `coinCount` in lane B (marked `*`: its lane is 16 bits at
//!   bit 21 inside the embedded encoding), `leaderDone` (`LD`) at bit
//!   37 and `isLeader` (`IL`) at bit 38;
//! * `Ranked` uses bits 5..64 for the rank, so a ranked word is simply
//!   `rank << 5` and rank comparison is word comparison.
//!
//! The codec is parameter-free and lossless both ways:
//! `unpack(pack(s)) == s` for every valid state and `pack(unpack(w)) == w`
//! for every word `pack` produces (property-tested over the full state
//! space in `tests/packed_equivalence.rs`).

use leader_election::fast::FastLeState;
use population::RankOutput;
use telemetry::{AgentClass, TraceState};

use crate::stable::state::{MainKind, StableState, UnRole, UnState};

/// Number of low bits holding the one-hot role tag.
pub const TAG_BITS: u32 = 4;
/// Role tag: ranked agent (`rank` in bits 5..64). All tag bits zero, so
/// a ranked word is exactly `rank << 5`.
pub const TAG_RANKED: u64 = 0;
/// Role tag bit: `PROPAGATERESET` participant.
pub const TAG_RESET: u64 = 1 << 0;
/// Role tag bit: `FASTLEADERELECTION` participant.
pub const TAG_ELECT: u64 = 1 << 1;
/// Role tag bit: main-protocol waiting agent.
pub const TAG_WAITING: u64 = 1 << 2;
/// Role tag bit: main-protocol phase agent.
pub const TAG_PHASE: u64 = 1 << 3;
/// Mask selecting the unranked main roles (the agents carrying an
/// `aliveCount`).
pub const TAG_MAIN_UN: u64 = TAG_WAITING | TAG_PHASE;

/// Mask selecting the tag bits.
pub const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
/// The synthetic-coin bit (bit 4).
pub const COIN_BIT: u64 = 1 << TAG_BITS;
/// Shift of counter lane A (`resetCount` / `LECount` / `aliveCount`),
/// and of the rank / embedded leader-election bits.
pub const A_SHIFT: u32 = TAG_BITS + 1;
/// Shift of counter lane B (`delayCount` / `waitCount` / `phase`).
pub const B_SHIFT: u32 = A_SHIFT + 16;
/// Width mask of one counter lane.
pub const LANE_MASK: u64 = 0xFFFF;

/// A full [`StableState`] packed into one machine word.
#[repr(transparent)]
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PackedState(pub u64);

impl PackedState {
    /// A ranked agent (`rank ∈ [n]`, nothing else — not even a coin).
    #[inline]
    pub fn ranked(rank: u64) -> Self {
        debug_assert!(
            rank < 1 << (64 - A_SHIFT),
            "rank overflows the packed layout"
        );
        PackedState(rank << A_SHIFT)
    }

    /// A `PROPAGATERESET` participant.
    #[inline]
    pub fn reset(coin: bool, reset_count: u32, delay_count: u32) -> Self {
        PackedState(TAG_RESET | coin_bit(coin) | lane_a(reset_count) | lane_b(delay_count))
    }

    /// A `FASTLEADERELECTION` participant.
    #[inline]
    pub fn elect(coin: bool, le: FastLeState) -> Self {
        PackedState(TAG_ELECT | coin_bit(coin) | (le.to_bits() << A_SHIFT))
    }

    /// A main-protocol agent (waiting or phase).
    #[inline]
    pub fn main(coin: bool, alive: u32, kind: MainKind) -> Self {
        let (tag, value) = match kind {
            MainKind::Waiting(w) => (TAG_WAITING, w),
            MainKind::Phase(k) => (TAG_PHASE, k),
        };
        PackedState(tag | coin_bit(coin) | lane_a(alive) | lane_b(value))
    }

    /// The raw word.
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// The role tag (one of the `TAG_*` constants).
    #[inline]
    pub fn tag(self) -> u64 {
        self.0 & TAG_MASK
    }

    /// The synthetic coin (meaningless — always `false` — for ranked
    /// agents).
    #[inline]
    pub fn coin(self) -> bool {
        self.0 & COIN_BIT != 0
    }

    /// Counter lane A: `resetCount` / `LECount` / `aliveCount`.
    #[inline]
    pub fn lane_a(self) -> u32 {
        ((self.0 >> A_SHIFT) & LANE_MASK) as u32
    }

    /// Counter lane B: `delayCount` / `waitCount` / `phase`.
    #[inline]
    pub fn lane_b(self) -> u32 {
        ((self.0 >> B_SHIFT) & LANE_MASK) as u32
    }

    /// Overwrite counter lane A.
    #[inline]
    pub fn set_lane_a(&mut self, value: u32) {
        debug_assert!(u64::from(value) <= LANE_MASK);
        self.0 = (self.0 & !(LANE_MASK << A_SHIFT)) | (u64::from(value) << A_SHIFT);
    }

    /// Overwrite counter lane B.
    #[inline]
    pub fn set_lane_b(&mut self, value: u32) {
        debug_assert!(u64::from(value) <= LANE_MASK);
        self.0 = (self.0 & !(LANE_MASK << B_SHIFT)) | (u64::from(value) << B_SHIFT);
    }

    /// The rank of a ranked word (undefined for other tags).
    #[inline]
    pub fn rank_value(self) -> u64 {
        self.0 >> A_SHIFT
    }

    /// The embedded [`FastLeState`] bits of an elect word.
    #[inline]
    pub fn le_bits(self) -> u64 {
        self.0 >> A_SHIFT
    }

    /// Is this word an unranked *main* agent (waiting or phase) — the
    /// agents that carry an `aliveCount` in lane A?
    #[inline]
    pub fn is_unranked_main(self) -> bool {
        self.0 & TAG_MAIN_UN != 0
    }

    /// Toggle the synthetic coin (Protocol 3 lines 9–10; callers must
    /// ensure the word is unranked).
    #[inline]
    pub fn toggle_coin(&mut self) {
        self.0 ^= COIN_BIT;
    }

    /// Force the synthetic coin to `value` if the word is unranked; a
    /// no-op on ranked words (which store nothing but their rank).
    ///
    /// This is the packed-path access a word-level adversary needs: the
    /// `scenarios` crate's `CoinJammer` strategy pins its coin after
    /// every touch, overriding the responder-toggle of Protocol 3
    /// lines 9–10 — on packed runs it does so directly on the word,
    /// without a codec round-trip.
    #[inline]
    pub fn set_coin(&mut self, value: bool) {
        if self.0 & TAG_MASK != 0 {
            self.0 = (self.0 & !COIN_BIT) | if value { COIN_BIT } else { 0 };
        }
    }

    /// Pack a structured state (lossless; see the module docs for the
    /// layout).
    #[inline]
    pub fn pack(state: &StableState) -> Self {
        match *state {
            StableState::Ranked(r) => Self::ranked(r),
            StableState::Un(UnState { coin, role }) => match role {
                UnRole::Reset {
                    reset_count,
                    delay_count,
                } => Self::reset(coin, reset_count, delay_count),
                UnRole::Elect(le) => Self::elect(coin, le),
                UnRole::Main { alive, kind } => Self::main(coin, alive, kind),
            },
        }
    }

    /// Unpack back into the structured representation (exact inverse of
    /// [`pack`](PackedState::pack)).
    ///
    /// # Panics
    ///
    /// Panics on a word whose tag is not one of the five roles — such
    /// words are never produced by `pack` or by the packed transition.
    #[inline]
    pub fn unpack(self) -> StableState {
        match self.tag() {
            TAG_RANKED => StableState::Ranked(self.rank_value()),
            TAG_RESET => StableState::Un(UnState {
                coin: self.coin(),
                role: UnRole::Reset {
                    reset_count: self.lane_a(),
                    delay_count: self.lane_b(),
                },
            }),
            TAG_ELECT => StableState::Un(UnState {
                coin: self.coin(),
                role: UnRole::Elect(FastLeState::from_bits(self.le_bits())),
            }),
            TAG_WAITING => StableState::Un(UnState {
                coin: self.coin(),
                role: UnRole::Main {
                    alive: self.lane_a(),
                    kind: MainKind::Waiting(self.lane_b()),
                },
            }),
            TAG_PHASE => StableState::Un(UnState {
                coin: self.coin(),
                role: UnRole::Main {
                    alive: self.lane_a(),
                    kind: MainKind::Phase(self.lane_b()),
                },
            }),
            tag => unreachable!("invalid packed tag {tag}"),
        }
    }

    /// Fallible [`unpack`](PackedState::unpack) for words of unknown
    /// provenance (snapshot restore, fuzzing): rejects any word that is
    /// not the *exact* encoding of some structured state — a non-one-hot
    /// tag, or stray bits the codec would silently drop (e.g. a coin bit
    /// under a ranked tag, or garbage above an embedded field).
    ///
    /// Acceptance here is purely structural (the word round-trips
    /// through the codec); whether the decoded state belongs to the
    /// declared state space for some `Params` is a separate check
    /// (`StableState::is_valid_for`) layered on top by the snapshot
    /// loader.
    pub fn try_unpack(self) -> Result<StableState, String> {
        let tag = self.tag();
        if !matches!(
            tag,
            TAG_RANKED | TAG_RESET | TAG_ELECT | TAG_WAITING | TAG_PHASE
        ) {
            return Err(format!("word {:#x}: tag {tag:#b} is not one-hot", self.0));
        }
        let state = self.unpack();
        if Self::pack(&state).0 != self.0 {
            return Err(format!(
                "word {:#x}: stray bits outside the {} encoding",
                self.0,
                match tag {
                    TAG_RANKED => "ranked",
                    TAG_RESET => "reset",
                    TAG_ELECT => "elect",
                    TAG_WAITING => "waiting",
                    _ => "phase",
                }
            ));
        }
        Ok(state)
    }
}

#[inline]
fn coin_bit(coin: bool) -> u64 {
    if coin {
        COIN_BIT
    } else {
        0
    }
}

#[inline]
fn lane_a(value: u32) -> u64 {
    debug_assert!(u64::from(value) <= LANE_MASK, "lane A overflow");
    u64::from(value) << A_SHIFT
}

#[inline]
fn lane_b(value: u32) -> u64 {
    debug_assert!(u64::from(value) <= LANE_MASK, "lane B overflow");
    u64::from(value) << B_SHIFT
}

impl std::fmt::Debug for PackedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Show the decoded structure: raw words are unreadable in test
        // failures, and the codec is parameter-free, so decoding is
        // always available.
        write!(f, "PackedState({:#x} = {:?})", self.0, self.unpack())
    }
}

impl RankOutput for PackedState {
    #[inline]
    fn rank(&self) -> Option<u64> {
        if self.tag() == TAG_RANKED {
            Some(self.rank_value())
        } else {
            None
        }
    }
}

/// Classification straight off the word's tag bits — no unpack, so a
/// flight recorder can diff packed lanes at block boundaries for the
/// cost of a few mask tests per agent. Must agree with `StableState`'s
/// implementation through the codec (pinned by a unit test below).
impl TraceState for PackedState {
    #[inline]
    fn agent_class(&self) -> AgentClass {
        match self.tag() {
            TAG_RANKED => AgentClass::Ranked(self.rank_value()),
            TAG_RESET => AgentClass::Resetting,
            TAG_ELECT => AgentClass::Electing,
            TAG_WAITING => AgentClass::Waiting,
            TAG_PHASE => AgentClass::Phase(self.lane_b()),
            tag => unreachable!("invalid packed tag {tag}"),
        }
    }

    /// The class key is the word under its [`class_mask`]: the key
    /// layout mirrors this one, so no branch and no compare.
    #[inline]
    fn class_key(&self) -> u64 {
        self.0 & class_mask(self.0)
    }
}

/// The bits of packed word `w` that carry its [`AgentClass`]: a ranked
/// word (tag 0) keeps all of its bits, a phase word keeps its tag and
/// lane B, every other word keeps its tag. The mask depends on the tag
/// alone and always covers it, so a step from `old` to `new` changes
/// the class key exactly when `(old ^ new) & class_mask(old) != 0` —
/// the test the block kernel's marked pass makes per agent.
#[inline(always)]
pub fn class_mask(w: u64) -> u64 {
    let tag = w & TAG_MASK;
    // All ones for TAG_RANKED; otherwise `tag - 1`, inside TAG_MASK.
    let ranked = tag.wrapping_sub(1);
    // Lane B for TAG_PHASE (the highest one-hot tag bit), else 0.
    let phase = (tag >> 3).wrapping_neg() & (LANE_MASK << B_SHIFT);
    TAG_MASK | ranked | phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use leader_election::fast::FastLe;

    #[test]
    fn ranked_words_are_shifted_ranks() {
        for r in [1u64, 2, 7, 1 << 40] {
            let w = PackedState::ranked(r);
            assert_eq!(w.tag(), TAG_RANKED);
            assert!(!w.coin());
            assert_eq!(w.rank_value(), r);
            assert_eq!(w.bits(), r << A_SHIFT);
            assert_eq!(RankOutput::rank(&w), Some(r));
        }
    }

    #[test]
    fn unranked_words_have_no_rank_output() {
        let w = PackedState::reset(true, 3, 9);
        assert_eq!(RankOutput::rank(&w), None);
        assert!(w.coin());
        assert_eq!(w.lane_a(), 3);
        assert_eq!(w.lane_b(), 9);
    }

    #[test]
    fn lane_writes_do_not_clobber_neighbours() {
        let mut w = PackedState::main(true, 7, MainKind::Phase(3));
        w.set_lane_a(0xFFFF);
        assert_eq!(w.lane_a(), 0xFFFF);
        assert_eq!(w.lane_b(), 3);
        assert!(w.coin());
        assert_eq!(w.tag(), TAG_PHASE);
        w.set_lane_b(0xABCD);
        assert_eq!(w.lane_a(), 0xFFFF);
        assert_eq!(w.lane_b(), 0xABCD);
    }

    #[test]
    fn elect_roundtrips_the_fast_le_flags() {
        let fast = FastLe {
            l_max: 24,
            coin_target: 6,
        };
        for (done, lead) in [(false, false), (true, false), (true, true)] {
            let le = FastLeState {
                le_count: 13,
                coin_count: 2,
                leader_done: done,
                is_leader: lead,
            };
            let s = StableState::Un(UnState {
                coin: true,
                role: UnRole::Elect(le),
            });
            assert_eq!(PackedState::pack(&s).unpack(), s);
        }
        let init = StableState::Un(UnState {
            coin: false,
            role: UnRole::Elect(fast.initial_state()),
        });
        assert_eq!(PackedState::pack(&init).unpack(), init);
    }

    #[test]
    fn agent_class_agrees_with_the_enum_through_the_codec() {
        let states = [
            StableState::Ranked(1),
            StableState::Ranked(1 << 30),
            StableState::Un(UnState {
                coin: true,
                role: UnRole::Reset {
                    reset_count: 3,
                    delay_count: 9,
                },
            }),
            StableState::Un(UnState {
                coin: false,
                role: UnRole::Elect(FastLeState {
                    le_count: 13,
                    coin_count: 2,
                    leader_done: true,
                    is_leader: true,
                }),
            }),
            StableState::Un(UnState {
                coin: true,
                role: UnRole::Main {
                    alive: 5,
                    kind: MainKind::Waiting(2),
                },
            }),
            StableState::Un(UnState {
                coin: false,
                role: UnRole::Main {
                    alive: 5,
                    kind: MainKind::Phase(4),
                },
            }),
        ];
        for s in states {
            assert_eq!(
                PackedState::pack(&s).agent_class(),
                s.agent_class(),
                "codec changed the trace class of {s:?}"
            );
        }
        assert_eq!(PackedState::ranked(7).agent_class(), AgentClass::Ranked(7));
    }

    #[test]
    fn class_key_is_the_masked_word_over_the_whole_state_space() {
        for n in [2usize, 3, 17, 64, 1000] {
            let params = crate::Params::new(n);
            for s in crate::audit::enumerate_states(&params) {
                let w = PackedState::pack(&s);
                assert_eq!(w.class_key(), w.agent_class().key(), "n={n}: {s:?}");
                assert_eq!(w.class_key(), s.class_key(), "n={n}: {s:?}");
            }
        }
        // Payload edges the enumerated spaces do not reach.
        for w in [
            PackedState::ranked((1 << 59) - 1),
            PackedState::main(true, 0xFFFF, MainKind::Phase(0)),
            PackedState::main(true, 0xFFFF, MainKind::Phase(0xFFFF)),
            PackedState::main(true, 0xFFFF, MainKind::Waiting(0xFFFF)),
            PackedState::reset(true, 0xFFFF, 0xFFFF),
        ] {
            assert_eq!(w.class_key(), w.agent_class().key(), "{w:?}");
        }
    }

    #[test]
    fn coin_toggle_flips_exactly_one_bit() {
        let mut w = PackedState::main(false, 5, MainKind::Waiting(2));
        let before = w.bits();
        w.toggle_coin();
        assert_eq!(w.bits() ^ before, COIN_BIT);
        assert!(w.coin());
    }

    #[test]
    fn set_coin_pins_unranked_words_and_skips_ranked_ones() {
        let mut w = PackedState::main(false, 5, MainKind::Waiting(2));
        w.set_coin(true);
        assert!(w.coin());
        w.set_coin(true); // idempotent
        assert!(w.coin());
        w.set_coin(false);
        assert!(!w.coin());
        assert_eq!(w.lane_a(), 5);
        assert_eq!(w.lane_b(), 2);

        let mut r = PackedState::ranked(7);
        let before = r.bits();
        r.set_coin(true);
        assert_eq!(r.bits(), before, "ranked words carry no coin");
    }
}
