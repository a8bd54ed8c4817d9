use std::fmt::Debug;

use crate::pairs::pair_mut;
use crate::schedule::{Pair, PairSource};

/// A population protocol: a state space and a common transition function
/// over ordered pairs of agents.
///
/// The model follows Section III of the paper: in each time step two agents
/// are chosen uniformly at random; the first argument of
/// [`transition`](Protocol::transition) is the *initiator* `u`, the second
/// the *responder* `v`. Protocols whose pseudocode is symmetric simply
/// ignore the distinction.
///
/// Implementations must be deterministic: all randomness comes from the
/// scheduler (and from *synthetic coins* stored inside agent states, as in
/// Section V of the paper). This is what makes every simulation exactly
/// reproducible from a seed.
pub trait Protocol {
    /// Per-agent state. Kept `Clone + PartialEq + Debug` so the engine can
    /// detect state changes and report configurations in test failures.
    type State: Clone + PartialEq + Debug;

    /// The population size `n` this protocol instance is configured for.
    ///
    /// Population protocols in this paper assume exact knowledge of `n`
    /// (required for ranking; see Theorem 1 of Cai et al. cited in
    /// Section IV), so the protocol value carries it.
    fn n(&self) -> usize;

    /// Apply one interaction to `(initiator, responder)`, mutating the
    /// states in place. Returns `true` iff either state changed.
    ///
    /// **Contract:** the flag must have no false negatives — returning
    /// `false` asserts that *neither* state was mutated, and the batched
    /// engine uses it to skip the write-back of null interactions (a
    /// silent configuration then dirties no cache lines). Returning a
    /// spurious `true` for an unchanged pair is always safe, merely
    /// unoptimized.
    fn transition(&self, initiator: &mut Self::State, responder: &mut Self::State) -> bool;

    /// Apply a whole block of scheduled `pairs` to `states`, in draw
    /// order, returning the number of interactions that changed a state
    /// (same no-false-negatives contract as the per-pair `changed`
    /// flag). This is the batched engine's per-block entry point:
    /// [`Simulator::run_batched`](crate::Simulator::run_batched) calls it
    /// once per block instead of dispatching per pair.
    ///
    /// The default is the scalar reference loop: split-borrow both
    /// states ([`pair_mut`]) and run [`transition`](Protocol::transition)
    /// on each pair in order — copy-free (no per-pair clones), and
    /// bit-for-bit what `count` calls of
    /// [`step`](crate::Simulator::step) would do. Implementations may
    /// override it with a block kernel (see
    /// [`PackedProtocol`] and `StableRanking`'s transition kernel), but
    /// must preserve exact trajectory equivalence with the scalar loop —
    /// including when `pairs` repeats an agent index, where the later
    /// pair must observe the earlier pair's writes.
    ///
    /// # Panics
    ///
    /// May panic if a pair has `i == j` or an index out of bounds;
    /// [`PairSource`](crate::PairSource) implementations never produce
    /// such pairs.
    fn transition_block(&self, states: &mut [Self::State], pairs: &[Pair]) -> u64 {
        let mut changed = 0;
        for &(i, j) in pairs {
            let (u, v) = pair_mut(states, i as usize, j as usize);
            changed += u64::from(self.transition(u, v));
        }
        changed
    }

    /// Execute the next at-most-`max` pairs of `source` on `states`,
    /// returning how many pairs ran and how many of them changed a state.
    /// This is the sequential engines' per-block entry point
    /// ([`Simulator`](crate::Simulator) and the `dynamic` crate's engine
    /// call it once per block, through
    /// [`advance_blocks`](crate::advance_blocks)).
    ///
    /// With `MARK` (the probed block loop), it also sets, in the bitset
    /// `marks` (agent `i` is bit `i % 64` of `marks[i / 64]`), the bit of
    /// every agent whose traced class may have changed, and never clears
    /// a bit; an active [`Probe`](crate::Probe) then sees only the marked
    /// agents. Marking an agent whose class did not change is always
    /// safe; missing one that did hides its change from the probe.
    /// Without `MARK`, `marks` is never touched (callers pass `&mut []`).
    ///
    /// The default marks every agent (so the probe sees the whole
    /// configuration at every boundary), samples a block
    /// ([`PairSource::sample_block`]) and hands it to
    /// [`transition_block`](Protocol::transition_block). A protocol may
    /// override it to pull pairs from the source's
    /// [`pairs`](PairSource::pairs) feed instead, so a source that draws
    /// pairs lazily (the uniform [`Schedule`](crate::Schedule)) never
    /// writes the block to memory. The override must execute exactly
    /// the pairs `sample_block(max)` would return, in the same order.
    fn transition_from<const MARK: bool, S: PairSource>(
        &self,
        states: &mut [Self::State],
        source: &mut S,
        max: usize,
        marks: &mut [u64],
    ) -> (usize, u64) {
        if MARK {
            marks.fill(!0);
        }
        let block = source.sample_block(max);
        (block.len(), self.transition_block(states, block))
    }

    /// A certificate that `states` is silent: `true` must imply that
    /// every ordered pair of agents is a null interaction, so an engine
    /// may skip interactions without executing them (advancing its pair
    /// source by as many pairs). `false` promises nothing. The default
    /// never certifies.
    fn silent(&self, states: &[Self::State]) -> bool {
        let _ = states;
        false
    }

    /// Credit `pairs` null interactions that an engine skipped under
    /// [`silent`](Protocol::silent) instead of passing them to
    /// [`transition_block`](Protocol::transition_block). Protocols that
    /// count what their blocks execute must count these exactly as those
    /// calls would have. The default does nothing.
    fn count_null(&self, pairs: u64) {
        let _ = pairs;
    }
}

/// A [`Protocol`] that additionally offers a *packed* machine-word
/// state representation, with its transition and block kernel over the
/// packed words.
///
/// Structured state types (nested enums with per-role counters) are the
/// readable reference representation, but they cost the hot loop dearly:
/// a three-level enum occupies several words, and its transition walks a
/// tree of matches. Protocols whose state space fits in one machine word
/// (the whole point of the paper's `n + O(log² n)` construction) can
/// expose a lossless codec plus a transition that operates on the packed
/// words directly.
///
/// The contract, property-tested for every implementation:
///
/// * `unpack(pack(s)) == s` for every valid state `s`, and
///   `pack(unpack(w)) == w` for every word `w` produced by `pack`;
/// * every packed entry commutes with the codec: packing, stepping
///   packed, and unpacking yields exactly what [`Protocol::transition`]
///   yields, pair by pair in draw order — bit-for-bit, so the packed
///   path is a pure optimization exactly like the batched loop. A pair
///   that repeats an agent of an earlier pair in the same block must
///   observe that pair's writes, which an in-order pass gives by
///   construction.
///
/// A block kernel written once over an iterator of pairs can serve both
/// block entries: [`transition_block`](PackedProtocol::transition_block)
/// feeds it a slice, and
/// [`transition_from`](PackedProtocol::transition_from) feeds it the
/// source's [`pairs`](PairSource::pairs), which the uniform
/// [`Schedule`](crate::Schedule) draws as the kernel consumes them
/// (see `StableRanking`'s `ranking::stable::kernel`, whose one word step
/// also serves [`transition_packed`](PackedProtocol::transition_packed)).
///
/// Run a protocol packed by wrapping it in [`Packed`], which implements
/// [`Protocol`] over the packed words: the simulator then stores the
/// population as a flat `Vec` of words (structure-of-arrays layout),
/// hands every block to the kernel, and never unpacks on the hot path.
/// Observation and fault injection unpack only at their boundaries —
/// see [`observe::Unpacked`](crate::observe::Unpacked) and
/// [`UnpackedHook`](crate::UnpackedHook).
pub trait PackedProtocol: Protocol {
    /// The packed word type (typically a `#[repr(transparent)]` wrapper
    /// over `u64`).
    type Packed: Copy + PartialEq + Debug;

    /// Encode a state into its packed word (lossless).
    fn pack(&self, state: &Self::State) -> Self::Packed;

    /// Decode a packed word back into the structured state.
    fn unpack(&self, word: Self::Packed) -> Self::State;

    /// Apply one interaction directly on packed words; must be
    /// trajectory-equivalent to [`Protocol::transition`] through the
    /// codec. Returns `true` iff either word changed.
    fn transition_packed(&self, u: &mut Self::Packed, v: &mut Self::Packed) -> bool;

    /// [`Protocol::transition_block`] over the packed words; [`Packed`]
    /// forwards it.
    fn transition_block(&self, words: &mut [Self::Packed], pairs: &[Pair]) -> u64;

    /// [`Protocol::transition_from`] over the packed words, with the same
    /// `MARK`/`marks` contract; [`Packed`] forwards it.
    fn transition_from<const MARK: bool, S: PairSource>(
        &self,
        words: &mut [Self::Packed],
        source: &mut S,
        max: usize,
        marks: &mut [u64],
    ) -> (usize, u64);

    /// [`Protocol::silent`] over the packed words; [`Packed`] forwards it.
    fn silent(&self, words: &[Self::Packed]) -> bool;

    /// [`Protocol::count_null`] for the block kernel's counters;
    /// [`Packed`] forwards it.
    fn count_null(&self, pairs: u64);
}

/// Adapter running a [`PackedProtocol`] over its packed words: the
/// simulator's state vector becomes a flat `Vec<P::Packed>`, every
/// block runs through the protocol's kernel, and single interactions
/// dispatch to
/// [`transition_packed`](PackedProtocol::transition_packed).
///
/// ```ignore
/// let protocol = Packed(StableRanking::new(Params::new(n)));
/// let init = protocol.pack_all(&protocol.inner().initial());
/// let mut sim = Simulator::new(protocol, init, seed);
/// sim.run_batched(1_000_000); // hot loop over u64 words
/// ```
#[derive(Debug, Clone)]
pub struct Packed<P>(pub P);

impl<P: PackedProtocol> Packed<P> {
    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.0
    }

    /// Pack a whole configuration.
    pub fn pack_all(&self, states: &[P::State]) -> Vec<P::Packed> {
        states.iter().map(|s| self.0.pack(s)).collect()
    }

    /// Unpack a whole configuration (the observation-boundary inverse
    /// of [`pack_all`](Packed::pack_all)).
    pub fn unpack_all(&self, words: &[P::Packed]) -> Vec<P::State> {
        words.iter().map(|&w| self.0.unpack(w)).collect()
    }
}

impl<P: PackedProtocol> Protocol for Packed<P> {
    type State = P::Packed;

    fn n(&self) -> usize {
        self.0.n()
    }

    fn transition(&self, u: &mut Self::State, v: &mut Self::State) -> bool {
        self.0.transition_packed(u, v)
    }

    // UFCS below: `Protocol` and `PackedProtocol` both name these
    // methods, and here they operate on the same word type.

    fn transition_block(&self, states: &mut [Self::State], pairs: &[Pair]) -> u64 {
        PackedProtocol::transition_block(&self.0, states, pairs)
    }

    #[inline(always)]
    fn transition_from<const MARK: bool, S: PairSource>(
        &self,
        states: &mut [Self::State],
        source: &mut S,
        max: usize,
        marks: &mut [u64],
    ) -> (usize, u64) {
        PackedProtocol::transition_from::<MARK, S>(&self.0, states, source, max, marks)
    }

    fn silent(&self, states: &[Self::State]) -> bool {
        PackedProtocol::silent(&self.0, states)
    }

    fn count_null(&self, pairs: u64) {
        PackedProtocol::count_null(&self.0, pairs)
    }
}

/// Output map for ranking protocols: the rank an agent currently outputs,
/// or `None` while unranked.
///
/// This decouples the engine's convergence predicates
/// ([`crate::is_valid_ranking`]) from any particular protocol's state
/// representation.
pub trait RankOutput {
    /// The rank in `1..=n` output by this state, if any.
    fn rank(&self) -> Option<u64>;
}

/// Output map for protocols with a designated adversary subset: each
/// state knows whether its agent is *honest* (executes the protocol) or
/// a persistent (Byzantine) adversary.
///
/// With `k` persistent adversaries, a self-stabilization claim can only
/// be made about the `n − k` honest agents — the adversaries never
/// converge by definition. This trait is the seam between the engine's
/// honest-subset predicates ([`crate::is_valid_honest_ranking`], the
/// [`HonestRanking`](crate::observe::HonestRanking) observer) and the
/// `scenarios` crate's `Byzantine` protocol wrapper, whose wrapped
/// states implement it.
pub trait HonestOutput: RankOutput {
    /// Is this agent honest (i.e. not a designated adversary)?
    fn is_honest(&self) -> bool;
}
