use std::fmt::Debug;

use crate::pairs::pair_mut;
use crate::schedule::Pair;

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
    /// [`Simulator::run_batched`](crate::Simulator::run_batched) and the
    /// sharded intra-phase lanes call it once per block instead of
    /// dispatching per pair.
    ///
    /// The default is the scalar reference loop: split-borrow both
    /// states ([`pair_mut`]) and run [`transition`](Protocol::transition)
    /// on each pair in order — copy-free (no per-pair clones), and
    /// bit-for-bit what `count` calls of
    /// [`step`](crate::Simulator::step) would do. Implementations may
    /// override it with a block kernel (see
    /// [`BatchedProtocol`] and `StableRanking`'s transition kernel), but
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
/// state representation with its own transition path.
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
/// * [`transition_packed`](PackedProtocol::transition_packed) commutes
///   with the codec: packing, stepping packed, and unpacking yields
///   exactly what [`Protocol::transition`] yields — bit-for-bit, so the
///   packed path is a pure optimization exactly like the batched loop.
///
/// Run a protocol packed by wrapping it in [`Packed`], which implements
/// [`Protocol`] over the packed words: the simulator then stores the
/// population as a flat `Vec` of words (structure-of-arrays layout) and
/// never unpacks on the hot path. Observation and fault injection
/// unpack only at their boundaries — see
/// [`observe::Unpacked`](crate::observe::Unpacked) and
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
}

/// The block-kernel seam: a [`PackedProtocol`] that can execute a whole
/// schedule block of interactions over the flat word array in one call.
///
/// Running pair-at-a-time, every interaction pays the full dispatch
/// cost — role classification branches, hazard-free but serialized
/// loads — and the branch predictor sees an unpredictable interleaving
/// of transition classes. A block kernel instead *gathers* the words
/// for a block of pairs, classifies every pair with branchless mask
/// tests, partitions the block into per-class lanes, and runs each lane
/// as a tight uniform loop (see `StableRanking`'s
/// `ranking::stable::kernel`). [`Packed`] routes
/// [`Protocol::transition_block`] here, so a packed simulation picks up
/// the kernel automatically wherever blocks are executed
/// ([`Simulator::run_batched`](crate::Simulator::run_batched),
/// `run_faulted`, the sharded intra-phase lanes).
///
/// The contract is exact trajectory equivalence: the override must be
/// bit-for-bit equal to running
/// [`transition_packed`](PackedProtocol::transition_packed) over the
/// pairs in draw order — including *intra-block hazards*, where a pair
/// touches an agent an earlier pair in the same block also touched and
/// must observe its writes (kernels split the block at such conflicts).
/// The provided default is exactly that scalar loop, so
/// `impl BatchedProtocol for X {}` is always a correct starting point.
///
/// To run a packed protocol *without* its kernel (A/B benchmarking,
/// differential tests), wrap it in [`ScalarBlock`].
pub trait BatchedProtocol: PackedProtocol {
    /// Apply a whole block of scheduled `pairs` to the packed `words`,
    /// in draw order; returns the number of word-changing interactions.
    /// Must be bit-for-bit trajectory-equivalent to the scalar
    /// [`transition_packed`](PackedProtocol::transition_packed) loop
    /// (the provided default).
    fn transition_block(&self, words: &mut [Self::Packed], pairs: &[Pair]) -> u64 {
        let mut changed = 0;
        for &(i, j) in pairs {
            let (u, v) = pair_mut(words, i as usize, j as usize);
            changed += u64::from(self.transition_packed(u, v));
        }
        changed
    }

    /// [`Protocol::silent`] over the packed words; [`Packed`] forwards it.
    fn silent(&self, words: &[Self::Packed]) -> bool {
        let _ = words;
        false
    }

    /// [`Protocol::count_null`] for the block kernel's counters;
    /// [`Packed`] forwards it.
    fn count_null(&self, pairs: u64) {
        let _ = pairs;
    }
}

/// Adapter running a [`PackedProtocol`] over its packed words: the
/// simulator's state vector becomes a flat `Vec<P::Packed>` and every
/// interaction dispatches to
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

impl<P: BatchedProtocol> Protocol for Packed<P> {
    type State = P::Packed;

    fn n(&self) -> usize {
        self.0.n()
    }

    fn transition(&self, u: &mut Self::State, v: &mut Self::State) -> bool {
        self.0.transition_packed(u, v)
    }

    fn transition_block(&self, states: &mut [Self::State], pairs: &[Pair]) -> u64 {
        // UFCS: both `Protocol` and `BatchedProtocol` name a
        // `transition_block`, and here they operate on the same word
        // type — this is the dispatch point that hands blocks to the
        // protocol's kernel (or the scalar default).
        BatchedProtocol::transition_block(&self.0, states, pairs)
    }

    fn silent(&self, states: &[Self::State]) -> bool {
        BatchedProtocol::silent(&self.0, states)
    }

    fn count_null(&self, pairs: u64) {
        BatchedProtocol::count_null(&self.0, pairs)
    }
}

/// Adapter forcing the default *scalar* block path for a protocol,
/// bypassing any [`BatchedProtocol`] kernel it may have.
///
/// `ScalarBlock(Packed(p))` runs the packed representation with the
/// pair-at-a-time reference loop — the A/B twin of `Packed(p)` (which
/// dispatches blocks to the kernel). Used by the `engine_throughput`
/// bench to report kernel and scalar-packed rows side by side, and by
/// the differential tests in `tests/packed_equivalence.rs`.
#[derive(Debug, Clone)]
pub struct ScalarBlock<P>(pub P);

impl<P: Protocol> Protocol for ScalarBlock<P> {
    type State = P::State;

    fn n(&self) -> usize {
        self.0.n()
    }

    fn transition(&self, u: &mut Self::State, v: &mut Self::State) -> bool {
        self.0.transition(u, v)
    }
    // No `transition_block` override: blocks run through the provided
    // scalar split-borrow loop regardless of the inner protocol. Nor a
    // `silent` one: the reference twin executes every interaction.
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
