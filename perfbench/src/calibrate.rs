//! Host-speed calibration.
//!
//! The benchmark runs on hosts shared with other tenants, whose load
//! slows every instruction the benchmark executes, by up to 40% and in
//! stretches from a fraction of a second to minutes; CPU time slows with
//! it. A fixed reference loop, owned by the benchmark and untouched by any
//! library change, therefore runs in short samples interleaved with the
//! workload (every [`GAP_S`], from the hooks the library calls), and each
//! measured time is scaled by how fast the reference loop ran while it
//! was taken. Scaled times read in seconds of a host on which the
//! reference loop runs at [`REFERENCE_PAIRS_PER_S`]. A library change
//! moves the library's times and not the reference loop's, so it shows in
//! full; a change in host load moves both, and cancels.
//!
//! The calibrator is thread-local and active only in the untraced pass;
//! the time spent in samples is taken out of every measured time.

use std::cell::RefCell;
use std::time::Instant;

/// Speed of the reference loop on the quiet reference host (2-core VM,
/// Intel Xeon, 4 MiB L2 per core), in pairs per second. Only a scale.
const REFERENCE_PAIRS_PER_S: f64 = 3.0e8;

/// Pairs per calibration sample: a few milliseconds.
const SAMPLE_PAIRS: usize = 1 << 20;

/// Pairs drawn, then applied, per block of the reference loop.
const BLOCK: usize = 256;

/// Least wall time between two calibration samples, in seconds.
const GAP_S: f64 = 0.1;

/// The reference loop's state: a population of `n` 64-bit words and a
/// xoshiro256++ generator. The loop has the shape of the library's hot
/// path: draw a block of uniformly random ordered pairs of distinct
/// agents, then apply a branch-free two-agent rule to each pair.
struct Reference {
    states: Vec<u64>,
    rng: [u64; 4],
    block: Vec<(u32, u32)>,
}

impl Reference {
    fn new(n: usize) -> Self {
        Self {
            states: (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            rng: [
                0x1234_5678_9ABC_DEF0,
                0x0FED_CBA9_8765_4321,
                0xDEAD_BEEF_CAFE_F00D,
                0x0123_4567_89AB_CDEF,
            ],
            block: vec![(0, 0); BLOCK],
        }
    }

    fn next(&mut self) -> u64 {
        let s = &mut self.rng;
        let r = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        r
    }

    /// Run `pairs` pairs (a multiple of [`BLOCK`]); returns pairs per
    /// second of wall time.
    fn run(&mut self, pairs: usize) -> f64 {
        let n = self.states.len() as u64;
        let t0 = Instant::now();
        for _ in 0..pairs / BLOCK {
            for i in 0..BLOCK {
                let r = self.next();
                let u = ((r & 0xFFFF_FFFF) * n) >> 32;
                let v = ((r >> 32) * (n - 1)) >> 32;
                let v = v + u64::from(v >= u);
                self.block[i] = (u as u32, v as u32);
            }
            for &(u, v) in &self.block {
                let (a, b) = (self.states[u as usize], self.states[v as usize]);
                let (lo, hi) = (a.min(b), a.max(b));
                self.states[u as usize] = lo.wrapping_add(hi >> 61);
                self.states[v as usize] = hi ^ (lo << 3);
            }
        }
        std::hint::black_box(&self.states);
        pairs as f64 / t0.elapsed().as_secs_f64()
    }
}

struct State {
    reference: Reference,
    /// Host speed of each sample: the reference loop's rate over
    /// [`REFERENCE_PAIRS_PER_S`].
    speeds: Vec<f64>,
    /// When the last sample ended.
    last: Instant,
    /// Wall time spent in samples so far.
    spent_s: f64,
}

impl State {
    fn sample(&mut self) {
        let t0 = Instant::now();
        let rate = self.reference.run(SAMPLE_PAIRS);
        self.speeds.push(rate / REFERENCE_PAIRS_PER_S);
        self.last = Instant::now();
        self.spent_s += (self.last - t0).as_secs_f64();
    }
}

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Start calibrating on this thread, with a reference population of `n`
/// agents (the workload's own, so that the loop shares its cache
/// footprint); takes the first sample.
pub fn begin(n: usize) {
    assert!(n >= 2, "the reference loop needs two agents");
    let mut state = State {
        reference: Reference::new(n),
        speeds: Vec::new(),
        last: Instant::now(),
        spent_s: 0.0,
    };
    state.sample();
    STATE.with(|s| *s.borrow_mut() = Some(state));
}

/// Take a sample if calibration is on and the last sample is at least
/// [`GAP_S`] old. Called from the hooks the library calls, between
/// blocks of its work.
#[inline]
pub fn tick() {
    STATE.with(|s| {
        if let Some(state) = s.borrow_mut().as_mut() {
            if state.last.elapsed().as_secs_f64() >= GAP_S {
                state.sample();
            }
        }
    });
}

/// Stop calibrating: take a closing sample and return every sample's
/// host speed, in order; empty if calibration was off.
pub fn finish() -> Vec<f64> {
    STATE.with(|s| {
        s.borrow_mut().take().map_or_else(Vec::new, |mut state| {
            state.sample();
            state.speeds
        })
    })
}

/// The start of a measured stretch.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    t0: Instant,
    spent_s: f64,
    samples: usize,
}

fn spent_and_samples() -> (f64, usize) {
    STATE.with(|s| {
        s.borrow()
            .as_ref()
            .map_or((0.0, 0), |st| (st.spent_s, st.speeds.len()))
    })
}

/// Start a measured stretch now.
pub fn mark() -> Mark {
    let (spent_s, samples) = spent_and_samples();
    Mark {
        t0: Instant::now(),
        spent_s,
        samples,
    }
}

/// A measured stretch: its wall time without the samples taken inside
/// it, and the samples that tell the host's speed while it ran.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall time, in seconds, calibration samples excluded.
    pub wall_s: f64,
    /// Host speed while the stretch ran: 1 on the reference host, below
    /// 1 on a slower or busier one. Filled in by [`resolve`].
    pub speed: f64,
    /// Samples taken before the stretch began, and by its end.
    samples: (usize, usize),
}

impl Timing {
    /// The same stretch's calibration with another wall time.
    pub fn with_wall(self, wall_s: f64) -> Timing {
        Timing { wall_s, ..self }
    }

    /// The wall time scaled to the reference host.
    pub fn ref_s(&self) -> f64 {
        self.wall_s * self.speed
    }
}

/// End the stretch begun at `mark`.
pub fn timing(mark: &Mark) -> Timing {
    let wall_s = mark.t0.elapsed().as_secs_f64();
    let (spent_s, samples) = spent_and_samples();
    Timing {
        wall_s: wall_s - (spent_s - mark.spent_s),
        speed: 1.0,
        samples: (mark.samples, samples),
    }
}

/// Fill in each timing's host speed from the samples `speeds` (as
/// [`finish`] returned them): the mean of the samples taken while it ran,
/// or, for a stretch too short to hold one, of the samples just before
/// and just after it. Without samples every speed stays 1.
pub fn resolve<'a>(speeds: &[f64], timings: impl IntoIterator<Item = &'a mut Timing>) {
    if speeds.is_empty() {
        return;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let last = speeds.len() - 1;
    for t in timings {
        let (a, b) = (t.samples.0.min(last), t.samples.1.min(last + 1));
        t.speed = if b > a {
            mean(&speeds[a..b])
        } else {
            mean(&[speeds[a.saturating_sub(1)], speeds[a]])
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_take_the_speed_of_the_samples_inside_or_around_them() {
        let speeds = [1.0, 0.5, 0.7, 0.9];
        let inside = (1, 3);
        let between = (2, 2);
        let mut t = [inside, between].map(|samples| Timing {
            wall_s: 2.0,
            speed: 1.0,
            samples,
        });
        resolve(&speeds, &mut t);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(t[0].speed, 0.6));
        assert!(close(t[1].speed, 0.6));
        assert!(close(t[0].ref_s(), 1.2));
    }

    #[test]
    fn samples_are_taken_out_of_the_measured_time() {
        begin(64);
        let m = mark();
        std::thread::sleep(std::time::Duration::from_secs_f64(GAP_S));
        tick();
        let t = timing(&m);
        let speeds = finish();
        assert_eq!(speeds.len(), 3);
        assert_eq!(t.samples, (1, 2));
        assert!(t.wall_s < m.t0.elapsed().as_secs_f64());
        tick();
        assert!(finish().is_empty(), "finish stops calibrating");
    }
}
