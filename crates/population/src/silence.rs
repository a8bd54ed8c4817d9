//! Exhaustive silence checking.
//!
//! A configuration is *silent* (Section III of the paper) when no sequence
//! of interactions changes any agent's state — equivalently, when no single
//! ordered pair changes state. [`is_silent`] verifies the latter by trying
//! all `n(n-1)` ordered pairs against the transition function on cloned
//! states, so it is `O(n²)` and intended for tests and end-of-run
//! verification rather than inner loops.
//!
//! Engines fast-forward instead on the protocol's own `O(n)` sufficient
//! condition, [`Protocol::silent`], cached between runs in a
//! [`Certificate`].

use crate::protocol::Protocol;

/// Returns `true` iff no ordered pair of agents would change state.
///
/// ```
/// use population::{silence::is_silent, Protocol};
///
/// struct Infect;
/// impl Protocol for Infect {
///     type State = bool;
///     fn n(&self) -> usize {
///         3
///     }
///     fn transition(&self, u: &mut bool, v: &mut bool) -> bool {
///         if *u && !*v {
///             *v = true;
///             return true;
///         }
///         false
///     }
/// }
///
/// assert!(is_silent(&Infect, &[true, true, true]));
/// assert!(is_silent(&Infect, &[false, false, false]));
/// assert!(!is_silent(&Infect, &[true, false, true]));
/// ```
pub fn is_silent<P: Protocol>(protocol: &P, states: &[P::State]) -> bool {
    first_active_pair(protocol, states).is_none()
}

/// Finds the first ordered pair `(i, j)` whose interaction would change a
/// state, if any. Useful in test diagnostics: a failing silence assertion
/// can report *which* interaction is still enabled.
pub fn first_active_pair<P: Protocol>(protocol: &P, states: &[P::State]) -> Option<(usize, usize)> {
    let n = states.len();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let mut u = states[i].clone();
            let mut v = states[j].clone();
            protocol.transition(&mut u, &mut v);
            if u != states[i] || v != states[j] {
                return Some((i, j));
            }
        }
    }
    None
}

/// After a failed certificate attempt, an engine runs at least this
/// many interactions per agent before trying again, so the `O(n)` test
/// costs at most 1/16 of a word read per interaction.
pub const RETRY_PER_AGENT: u64 = 16;

/// An engine's cached verdict of [`Protocol::silent`] on its current
/// configuration. It holds until the engine edits the configuration
/// ([`clear`](Certificate::clear)); null interactions cannot break it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Certificate {
    holds: bool,
    retry_at: u64,
}

impl Certificate {
    /// Whether the configuration is certified silent at interaction
    /// count `now`. Runs `test` if the certificate does not hold and the
    /// last failed attempt is [`RETRY_PER_AGENT`]`·n` interactions old.
    pub fn check(&mut self, now: u64, n: usize, test: impl FnOnce() -> bool) -> bool {
        if !self.holds && now >= self.retry_at {
            self.holds = test();
            if !self.holds {
                self.retry_at = now.saturating_add(RETRY_PER_AGENT * n as u64);
            }
        }
        self.holds
    }

    /// Interactions from `now` until the next try of a certificate that
    /// does not hold, rounded up to whole blocks of `block`: how far an
    /// engine executes before it checks again.
    pub fn retry_in(&self, now: u64, block: u64) -> u64 {
        self.retry_at
            .saturating_sub(now)
            .max(1)
            .next_multiple_of(block)
    }

    /// Forget the verdict: the configuration changed.
    pub fn clear(&mut self) {
        self.holds = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sort;
    impl Protocol for Sort {
        type State = u32;
        fn n(&self) -> usize {
            4
        }
        // Initiator keeps min, responder keeps max: silent iff... never —
        // wait, this rule is order-dependent; silent iff all equal.
        fn transition(&self, u: &mut u32, v: &mut u32) -> bool {
            let (lo, hi) = ((*u).min(*v), (*u).max(*v));
            let changed = (*u, *v) != (lo, hi);
            *u = lo;
            *v = hi;
            changed
        }
    }

    #[test]
    fn all_equal_is_silent() {
        assert!(is_silent(&Sort, &[5, 5, 5, 5]));
    }

    #[test]
    fn unequal_pair_is_reported() {
        let states = [5, 5, 3, 5];
        assert!(!is_silent(&Sort, &states));
        // First active ordered pair scanning row-major: (0,2) has u=5,v=3 ->
        // becomes (3,5), a change.
        assert_eq!(first_active_pair(&Sort, &states), Some((0, 2)));
    }

    #[test]
    fn certificate_retries_after_sixteen_n_and_clears_on_edit() {
        let mut cert = Certificate::default();
        let mut tries = 0;
        let mut test = |verdict: bool| {
            tries += 1;
            verdict
        };
        assert!(!cert.check(0, 4, || test(false)));
        assert!(!cert.check(63, 4, || test(true)), "retried too early");
        assert_eq!(cert.retry_in(10, 16), 64);
        assert_eq!(cert.retry_in(60, 16), 16);
        assert!(cert.check(64, 4, || test(true)));
        assert!(
            cert.check(65, 4, || test(false)),
            "a holding verdict is cached"
        );
        cert.clear();
        assert!(!cert.check(66, 4, || test(false)));
        assert_eq!(tries, 3);
    }

    #[test]
    fn silence_check_does_not_mutate() {
        let states = [1, 2, 3, 4];
        let copy = states;
        let _ = is_silent(&Sort, &states);
        assert_eq!(states, copy);
    }
}
