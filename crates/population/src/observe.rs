//! Composable run observers.
//!
//! Every consumer of the engine used to hand-roll its own polling loop:
//! convergence checks here, threshold crossings there, time-series
//! sampling somewhere else. The [`Observer`] trait replaces those loops
//! with small, composable values that the engine polls at checkpoints
//! (every `check_every` interactions, plus once before the first step):
//!
//! * [`Convergence`] — stop when a predicate over the configuration
//!   first holds, recording the hitting time;
//! * [`Sampler`] — invoke a closure at every checkpoint (time series);
//! * [`Series`] — record `(t, metric)` rows at every checkpoint;
//! * [`Thresholds`] — record the first time a monotone metric reaches
//!   each of a list of targets (Figure 3's fraction crossings);
//!
//! Observers compose as tuples: `(&mut a, &mut b)` polls both and stops
//! as soon as *any* member requests a stop. The engine entry point is
//! [`Simulator::run_observed`](crate::Simulator::run_observed);
//! [`run_until`](crate::Simulator::run_until) is thin sugar over this
//! pipeline.

use crate::protocol::{Packed, PackedProtocol, Protocol};

/// Verdict returned by an observer at a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep running.
    Continue,
    /// Stop the run; the engine reports convergence at this checkpoint.
    Stop,
}

impl Control {
    /// True iff this is [`Control::Stop`].
    pub fn is_stop(self) -> bool {
        matches!(self, Control::Stop)
    }
}

/// A checkpoint callback polled by the engine.
pub trait Observer<P: Protocol> {
    /// Inspect the configuration at interaction count `t`. Returning
    /// [`Control::Stop`] ends the run.
    fn observe(&mut self, protocol: &P, t: u64, states: &[P::State]) -> Control;
}

impl<P: Protocol, O: Observer<P> + ?Sized> Observer<P> for &mut O {
    fn observe(&mut self, protocol: &P, t: u64, states: &[P::State]) -> Control {
        (**self).observe(protocol, t, states)
    }
}

macro_rules! impl_observer_tuple {
    ($($name:ident . $idx:tt),+) => {
        impl<P: Protocol, $($name: Observer<P>),+> Observer<P> for ($($name,)+) {
            fn observe(&mut self, protocol: &P, t: u64, states: &[P::State]) -> Control {
                let mut stop = false;
                $(stop |= self.$idx.observe(protocol, t, states).is_stop();)+
                if stop { Control::Stop } else { Control::Continue }
            }
        }
    };
}
impl_observer_tuple!(A.0);
impl_observer_tuple!(A.0, B.1);
impl_observer_tuple!(A.0, B.1, C.2);
impl_observer_tuple!(A.0, B.1, C.2, D.3);

/// Stops when a predicate over the configuration first holds; records
/// the checkpoint time at which it did.
#[derive(Debug)]
pub struct Convergence<F> {
    pred: F,
    hit: Option<u64>,
}

impl<F> Convergence<F> {
    /// Observe with predicate `pred`.
    pub fn new(pred: F) -> Self {
        Self { pred, hit: None }
    }

    /// Checkpoint time at which the predicate first held, if it did.
    /// Overshoots the true hitting time by less than the polling period.
    pub fn converged_at(&self) -> Option<u64> {
        self.hit
    }
}

impl<P: Protocol, F: FnMut(&[P::State]) -> bool> Observer<P> for Convergence<F> {
    fn observe(&mut self, _protocol: &P, t: u64, states: &[P::State]) -> Control {
        if self.hit.is_none() && (self.pred)(states) {
            self.hit = Some(t);
        }
        if self.hit.is_some() {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

/// Invokes a closure at every checkpoint; never stops the run.
#[derive(Debug)]
pub struct Sampler<F> {
    f: F,
}

impl<F> Sampler<F> {
    /// Observe with callback `f(t, states)`.
    pub fn new(f: F) -> Self {
        Self { f }
    }
}

impl<P: Protocol, F: FnMut(u64, &[P::State])> Observer<P> for Sampler<F> {
    fn observe(&mut self, _protocol: &P, t: u64, states: &[P::State]) -> Control {
        (self.f)(t, states);
        Control::Continue
    }
}

/// Records `(t, metric(states))` at every checkpoint; never stops.
#[derive(Debug)]
pub struct Series<F, T> {
    metric: F,
    rows: Vec<(u64, T)>,
}

impl<F, T> Series<F, T> {
    /// Record the given metric at every checkpoint.
    pub fn new(metric: F) -> Self {
        Self {
            metric,
            rows: Vec::new(),
        }
    }

    /// The recorded `(t, value)` rows.
    pub fn rows(&self) -> &[(u64, T)] {
        &self.rows
    }
}

impl<P: Protocol, F: FnMut(&[P::State]) -> T, T> Observer<P> for Series<F, T> {
    fn observe(&mut self, _protocol: &P, t: u64, states: &[P::State]) -> Control {
        let v = (self.metric)(states);
        self.rows.push((t, v));
        Control::Continue
    }
}

/// Records the first checkpoint time at which a monotone metric reaches
/// each of a list of non-decreasing targets, stopping once all targets
/// are crossed. (Figure 3's "time to rank `c·n` agents".)
#[derive(Debug)]
pub struct Thresholds<F> {
    metric: F,
    targets: Vec<u64>,
    crossings: Vec<Option<u64>>,
}

impl<F> Thresholds<F> {
    /// Track when `metric(states)` first reaches each value in
    /// `targets`.
    pub fn new(metric: F, targets: Vec<u64>) -> Self {
        let crossings = vec![None; targets.len()];
        Self {
            metric,
            targets,
            crossings,
        }
    }

    /// The tracked targets.
    pub fn targets(&self) -> &[u64] {
        &self.targets
    }

    /// Crossing time per target (`None` where the budget ran out first).
    pub fn crossings(&self) -> &[Option<u64>] {
        &self.crossings
    }

    /// Consume the observer, returning the crossing times.
    pub fn into_crossings(self) -> Vec<Option<u64>> {
        self.crossings
    }

    /// Have all targets been crossed?
    pub fn complete(&self) -> bool {
        self.crossings.iter().all(|c| c.is_some())
    }
}

impl<P: Protocol, F: FnMut(&[P::State]) -> u64> Observer<P> for Thresholds<F> {
    fn observe(&mut self, _protocol: &P, t: u64, states: &[P::State]) -> Control {
        let value = (self.metric)(states);
        for (i, &target) in self.targets.iter().enumerate() {
            if self.crossings[i].is_none() && value >= target {
                self.crossings[i] = Some(t);
            }
        }
        if self.complete() {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

/// Adapts an observer written against a protocol's structured states to
/// a run over the [`Packed`] words: at every checkpoint the
/// configuration is unpacked into a reused scratch buffer and handed to
/// the inner observer.
///
/// This is the observation end of the packed-representation contract —
/// the hot loop never unpacks; only the (sparse) checkpoints pay the
/// codec cost, `O(n)` per poll. Predicates that can read packed words
/// directly (e.g. `is_valid_ranking` over a word type implementing
/// `RankOutput`) don't need this adapter at all.
#[derive(Debug)]
pub struct Unpacked<P: PackedProtocol, O> {
    inner: O,
    scratch: Vec<P::State>,
}

impl<P: PackedProtocol, O> Unpacked<P, O> {
    /// Wrap a structured-state observer for a packed run.
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            scratch: Vec::new(),
        }
    }

    /// The wrapped observer (e.g. to read its recorded results).
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<P: PackedProtocol, O: Observer<P>> Observer<Packed<P>> for Unpacked<P, O> {
    fn observe(&mut self, protocol: &Packed<P>, t: u64, words: &[P::Packed]) -> Control {
        self.scratch.clear();
        self.scratch
            .extend(words.iter().map(|&w| protocol.inner().unpack(w)));
        self.inner.observe(protocol.inner(), t, &self.scratch)
    }
}

/// Stops when every *honest* agent holds a distinct in-range rank —
/// the stabilization target of a population containing persistent
/// (Byzantine) adversaries ([`crate::is_valid_honest_ranking`]).
///
/// The observer works on any state type implementing
/// [`HonestOutput`](crate::HonestOutput) (the `scenarios` crate's
/// `ByzState` wrapper is the canonical one) and reads the whole
/// configuration, so every engine polls it the same way. Unlike
/// [`Convergence`] over [`crate::is_valid_ranking`], no completeness is
/// required — adversaries may leave ranks unclaimed. The verdict is
/// property-tested against the brute-force honest-subset check in
/// `tests/byzantine.rs`.
#[derive(Debug, Default)]
pub struct HonestRanking {
    hit: Option<u64>,
}

impl HonestRanking {
    /// New detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checkpoint time at which the honest agents first held valid
    /// distinct ranks, if they did.
    pub fn converged_at(&self) -> Option<u64> {
        self.hit
    }
}

impl<P: Protocol> Observer<P> for HonestRanking
where
    P::State: crate::HonestOutput,
{
    fn observe(&mut self, _protocol: &P, t: u64, states: &[P::State]) -> Control {
        if self.hit.is_none() && crate::is_valid_honest_ranking(states) {
            self.hit = Some(t);
        }
        if self.hit.is_some() {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::epidemic::Epidemic;
    use crate::{Simulator, StopReason};

    fn epidemic_sim(n: usize, m: usize, seed: u64) -> Simulator<Epidemic> {
        let protocol = Epidemic::new(n);
        let init = protocol.initial(m);
        Simulator::new(protocol, init, seed)
    }

    #[test]
    fn convergence_observer_records_hit_time() {
        let mut sim = epidemic_sim(32, 32, 5);
        let mut conv = Convergence::new(Epidemic::complete);
        let stop = sim.run_observed(1_000_000, 32, &mut conv);
        let t = conv.converged_at().expect("epidemic completes");
        assert_eq!(stop, StopReason::Converged(t));
        assert_eq!(t, sim.interactions());
    }

    #[test]
    fn series_collects_monotone_epidemic_counts() {
        let mut sim = epidemic_sim(64, 64, 3);
        let mut series = Series::new(|s: &[_]| Epidemic::infected_count(s) as u64);
        sim.run_observed(2000, 100, &mut series);
        let rows = series.rows();
        assert_eq!(rows.first().map(|r| r.0), Some(0));
        assert!(rows.windows(2).all(|w| w[0].1 <= w[1].1), "monotone");
        assert!(rows.len() >= 21, "start + 20 checkpoints");
    }

    #[test]
    fn thresholds_record_ordered_crossings() {
        let mut sim = epidemic_sim(64, 64, 7);
        let mut th = Thresholds::new(
            |s: &[_]| Epidemic::infected_count(s) as u64,
            vec![16, 32, 48, 64],
        );
        let stop = sim.run_observed(10_000_000, 16, &mut th);
        assert!(stop.converged_at().is_some(), "all thresholds crossed");
        let times: Vec<u64> = th.crossings().iter().map(|c| c.expect("crossed")).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }

    #[test]
    fn tuple_composition_stops_on_first_member() {
        let mut sim = epidemic_sim(32, 32, 11);
        let mut conv = Convergence::new(Epidemic::complete);
        let mut series = Series::new(|s: &[_]| Epidemic::infected_count(s) as u64);
        let stop = sim.run_observed(1_000_000, 32, &mut (&mut conv, &mut series));
        assert!(stop.converged_at().is_some());
        // The series saw the initial checkpoint plus one per burst, the
        // last one being the checkpoint at which the convergence stopped.
        let times: Vec<u64> = series.rows().iter().map(|r| r.0).collect();
        assert!(times.len() >= 2);
        assert_eq!(times.first(), Some(&0));
        assert_eq!(times.last(), Some(&sim.interactions()));
    }

    #[test]
    fn series_rows_pin_budgeted_checkpoints() {
        let mut sim = epidemic_sim(16, 1, 1);
        let mut series = Series::new(|s: &[_]| Epidemic::infected_count(s) as u64);
        let stop = sim.run_observed(500, 100, &mut series);
        assert_eq!(stop, StopReason::BudgetExhausted);
        let times: Vec<u64> = series.rows().iter().map(|r| r.0).collect();
        assert_eq!(times, [0, 100, 200, 300, 400, 500]);
    }
}
