//! One interaction, every pair of states: the word kernel against the
//! enum reference, and the kernel's class-change marks against the class
//! keys.
//!
//! Random runs only reach the states their trajectories visit. This
//! suite runs every ordered pair of `audit::enumerate_states` (the whole
//! declared state space, adversarial corner cases included) through one
//! interaction on four paths:
//!
//! * the enum `Protocol::transition` (the readable reference);
//! * the block kernel, through `Packed<StableRanking>::transition_block`;
//! * the drawn feed, through `transition_from` on a one-pair source,
//!   unmarked and marked.
//!
//! The three kernel paths must reproduce the reference's two states, its
//! changed flag and its reset count. The marked path must set the bit of
//! exactly the agents whose class key changed: a missed mark would hide
//! a class change from a flight recorder, and a spurious one costs the
//! recorder a diff for nothing. The unmarked path must not touch the
//! marks at all.
//!
//! The marked pass builds class masks only for a main/main pair or a
//! pair that changed a tag. That is exact only because, outside
//! main/main, an agent's class key changes exactly when its tag does;
//! the suite asserts this for every pair, so an arm that one day moves
//! a rank or a phase outside main/main fails here by name.

use silent_ranking::population::schedule::Pair;
use silent_ranking::population::{Packed, PackedProtocol, PairSource, Protocol};
use silent_ranking::ranking::audit::enumerate_states;
use silent_ranking::ranking::stable::packed::{TAG_ELECT, TAG_RESET};
use silent_ranking::ranking::stable::{PackedState, StableRanking};
use silent_ranking::ranking::Params;
use silent_ranking::telemetry::TraceState;

/// A source that serves the pair (0, 1) as every block.
struct OnePair;

impl PairSource for OnePair {
    fn n(&self) -> usize {
        2
    }

    fn next_pair(&mut self) -> (usize, usize) {
        (0, 1)
    }

    fn sample_block(&mut self, _max: usize) -> &[Pair] {
        &[(0, 1)]
    }
}

fn check_every_pair(n: usize) {
    let params = Params::new(n);
    let states = enumerate_states(&params);
    let reference = StableRanking::new(params.clone());
    let block = Packed(StableRanking::new(params.clone()));
    let unmarked = Packed(StableRanking::new(params.clone()));
    let marked = Packed(StableRanking::new(params));
    for a in &states {
        for b in &states {
            let at = || format!("n={n}: {a:?} × {b:?}");
            let (mut u, mut v) = (*a, *b);
            let changed = Protocol::transition(&reference, &mut u, &mut v);

            let before = [block.inner().pack(a), block.inner().pack(b)];
            let mut words = before;
            let block_changed = Protocol::transition_block(&block, &mut words, &[(0, 1)]);
            assert_eq!(block.unpack_all(&words), [u, v], "{}", at());
            assert_eq!(block_changed, u64::from(changed), "{}", at());

            let mut unmarked_words = before;
            let mut sentinel = [0x5a5a_5a5a_5a5a_5a5au64];
            let (executed, unmarked_changed) = Protocol::transition_from::<false, _>(
                &unmarked,
                &mut unmarked_words,
                &mut OnePair,
                1,
                &mut sentinel,
            );
            assert_eq!(executed, 1, "{}", at());
            assert_eq!(unmarked_words, words, "{}", at());
            assert_eq!(unmarked_changed, block_changed, "{}", at());
            assert_eq!(sentinel, [0x5a5a_5a5a_5a5a_5a5a], "marks, {}", at());

            let mut marked_words = before;
            let mut marks = [0u64];
            let (executed, marked_changed) = Protocol::transition_from::<true, _>(
                &marked,
                &mut marked_words,
                &mut OnePair,
                1,
                &mut marks,
            );
            assert_eq!(executed, 1, "{}", at());
            assert_eq!(marked_words, words, "{}", at());
            assert_eq!(marked_changed, block_changed, "{}", at());
            let class_changed = |k: usize| before[k].class_key() != words[k].class_key();
            if (before[0].bits() | before[1].bits()) & (TAG_RESET | TAG_ELECT) != 0 {
                for k in 0..2 {
                    assert_eq!(
                        class_changed(k),
                        before[k].tag() != words[k].tag(),
                        "outside main/main, agent {k}'s class key must change \
                         exactly with its tag: {}",
                        at()
                    );
                }
            }
            let want = u64::from(class_changed(0)) | u64::from(class_changed(1)) << 1;
            assert_eq!(marks[0], want, "marks, {}", at());

            let resets = reference.resets_triggered();
            assert_eq!(block.inner().resets_triggered(), resets, "{}", at());
            assert_eq!(unmarked.inner().resets_triggered(), resets, "{}", at());
            assert_eq!(marked.inner().resets_triggered(), resets, "{}", at());
        }
    }
}

/// The small sizes, from the two-agent special case up.
#[test]
fn the_kernel_and_its_marks_agree_with_the_enum_on_every_state_pair() {
    for n in [2, 3, 5, 8, 17] {
        check_every_pair(n);
    }
}

/// n = 24 on its own, so that it runs beside the small sizes: its
/// 2,024 states make 4.1·10⁶ ordered pairs, about as many as the
/// 4.4·10⁶ of all the smaller sizes together.
#[test]
fn the_kernel_and_its_marks_agree_with_the_enum_on_every_state_pair_at_24() {
    check_every_pair(24);
}

/// n = 64: 3,014 states make 9.08·10⁶ ordered pairs, the size ROADMAP
/// E.0 names. Release builds only; a debug build takes minutes.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: 9.08e6 pairs")]
fn the_kernel_and_its_marks_agree_with_the_enum_on_every_state_pair_at_64() {
    check_every_pair(64);
}

/// The marks cover the word edges: agents 63 and 64 of a 65-agent
/// configuration land in two mark words.
#[test]
fn marks_land_on_the_agents_of_the_pair() {
    struct Pairs(Vec<Pair>);
    impl PairSource for Pairs {
        fn n(&self) -> usize {
            65
        }
        fn next_pair(&mut self) -> (usize, usize) {
            unreachable!()
        }
        fn sample_block(&mut self, _max: usize) -> &[Pair] {
            &self.0
        }
    }
    let p = Packed(StableRanking::new(Params::new(65)));
    let mut words: Vec<PackedState> = p.pack_all(&p.inner().legal());
    // A duplicate rank on agents 63 and 64: Ranking⁺ resets it.
    words[64] = words[63];
    let before = words.clone();
    let mut marks = [0u64; 2];
    let (executed, changed) = Protocol::transition_from::<true, _>(
        &p,
        &mut words,
        &mut Pairs(vec![(63, 64)]),
        1,
        &mut marks,
    );
    assert_eq!((executed, changed), (1, 1));
    let mut want = [0u64; 2];
    for i in 0..65 {
        if before[i].class_key() != words[i].class_key() {
            want[i / 64] |= 1 << (i % 64);
        }
    }
    assert_ne!(want, [0, 0], "the duplicate rank must change a class");
    assert_eq!(marks, want);
}
