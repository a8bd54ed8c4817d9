//! [`WordState`] implementations: snapshot word serialization for every
//! `StableRanking` execution shape.
//!
//! The impl here covers the readable enum path (`StableRanking`
//! itself); the packed kernel path (`Packed<StableRanking>`) gets its
//! impl from `population`'s blanket impl, which routes through this
//! one — so both shapes serialize through the *same* parameter-free
//! [`PackedState`] codec. A snapshot is therefore
//! execution-shape-agnostic: words written by a kernel run restore into
//! an enum run and vice versa, which is what lets the resume property
//! suite cross-check paths against one snapshot format.
//!
//! Decoding validates twice, per the [`WordState`] contract:
//!
//! 1. **structurally** — [`PackedState::try_unpack`] rejects words that
//!    are not exact codec outputs (non-one-hot tags, stray bits);
//! 2. **semantically** — [`StableState::is_valid_for`] rejects states
//!    outside the declared `n + O(log² n)` state space for this
//!    protocol's parameters (an out-of-range rank, an overflowed
//!    counter).
//!
//! This is the *silence* dividend: the legal state space is a closed,
//! locally checkable predicate, so restored state is validated rather
//! than trusted — a corrupted snapshot word can never enter a run.

use population::WordState;

use crate::stable::packed::PackedState;
use crate::stable::{StableRanking, StableState};

/// Decode `word` and check it against the state space for `protocol`'s
/// parameters — the shared body of both impls.
fn decode(protocol: &StableRanking, word: u64) -> Result<StableState, String> {
    let state = PackedState(word).try_unpack()?;
    if !state.is_valid_for(protocol.params()) {
        return Err(format!(
            "word {word:#x} decodes to {state:?}, outside the state space for n = {}",
            protocol.params().n()
        ));
    }
    Ok(state)
}

impl WordState for StableRanking {
    fn state_to_word(&self, state: &StableState) -> u64 {
        PackedState::pack(state).bits()
    }

    fn state_from_word(&self, word: u64) -> Result<StableState, String> {
        decode(self, word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::enumerate_states;
    use crate::params::Params;
    use population::Packed;

    #[test]
    fn every_legal_state_round_trips_on_all_shapes() {
        let params = Params::new(24);
        let enum_p = StableRanking::new(params.clone());
        let packed_p = Packed(StableRanking::new(params.clone()));
        for state in enumerate_states(&params) {
            let w = enum_p.state_to_word(&state);
            assert_eq!(enum_p.state_from_word(w).unwrap(), state);
            let pw = PackedState::pack(&state);
            assert_eq!(packed_p.state_to_word(&pw), w);
            assert_eq!(packed_p.state_from_word(w).unwrap(), pw);
        }
    }

    #[test]
    fn garbage_words_are_rejected_not_panicked() {
        let protocol = StableRanking::new(Params::new(16));
        // Non-one-hot tag, stray coin bit under a ranked tag, rank far
        // outside [n], counter overflow in a reset word.
        for bad in [
            0b0011u64,                // two tag bits
            0b1111,                   // four tag bits
            (5 << 5) | 0b1_0000,      // ranked with a coin bit
            1_000_000u64 << 5,        // rank 1e6 in an n=16 space
            (0xFFFF << 5) | 0b0_0001, // resetCount 65535 > R_max
            u64::MAX,                 // everything wrong at once
        ] {
            assert!(
                protocol.state_from_word(bad).is_err(),
                "word {bad:#x} must be rejected"
            );
        }
    }

    #[test]
    fn validation_is_parameter_dependent() {
        // Rank 20 is legal for n = 24 but outside the space for n = 16:
        // the same word must decode differently under different Params.
        let word = StableRanking::new(Params::new(24)).state_to_word(&StableState::Ranked(20));
        assert!(StableRanking::new(Params::new(24))
            .state_from_word(word)
            .is_ok());
        assert!(StableRanking::new(Params::new(16))
            .state_from_word(word)
            .is_err());
    }
}
