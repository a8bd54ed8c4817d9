//! The three pinned workloads. Each is generic over the pass ([`Mode`]):
//! the untraced pass gives the end-to-end numbers, the traced pass the
//! per-layer ones, and both must follow the same trajectory.
//!
//! Work is fixed per run by `units` (seeds, faults, windows or chunks),
//! so the simulated trajectory, and with it the fingerprint, repeats
//! exactly for a given seed and unit count.

use std::path::Path;
use std::time::Instant;

use population::silence::is_silent;
use population::{is_valid_ranking, Frame, Observer, Packed, Schedule, Simulator, UnpackedHook};
use ranking::stable::StableRanking;
use ranking::Params;
use scenarios::{ranking_faults, FaultPlan};
use shard::ShardedSimulator;
use snapshot::{Crc64, Meta, Rotation, SnapshotSink};
use telemetry::Recorder;

use crate::calibrate::{self, Mark, Timing};
use crate::stats::quantile;
use crate::trace::{self, Layer, Report};
use crate::wrap::{Engine, Kernel, Mode, Tap, ValidPoll};

/// Each workload's set-up is repeated at least this many times, and for
/// at least [`SETUP_MIN_S`]; the median build time is reported. A single
/// build takes microseconds to milliseconds, so one sample mostly
/// measures the host's momentary load.
const SETUP_MIN_REPS: usize = 15;

/// Least total time spent repeating a set-up, in seconds.
const SETUP_MIN_S: f64 = 1.0;

/// What one pass of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Median set-up time.
    pub setup: Option<Timing>,
    /// Interactions executed in the timed phase.
    pub interactions: u64,
    /// Time of each episode: a seed's stabilization, a fault's recovery,
    /// a sharded chunk.
    pub episodes: Vec<Timing>,
    /// Interactions and time of each window: a seed, a fault interval, a
    /// sharded chunk. Calibration samples taken inside a window are cut
    /// out of its time.
    pub windows: Vec<(u64, Timing)>,
    /// Host speed of every calibration sample.
    pub speeds: Vec<f64>,
    /// Operations attempted: seeds, faults, saves and checks.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// The simulated trajectory, as named lists of counts.
    pub fingerprint: Vec<(&'static str, Vec<u64>)>,
    /// Resets triggered by the kernel.
    pub resets: u64,
    /// Kernel dispatch counts, `[reset, both_elect, one_elect, main]`.
    pub mix: [u64; 4],
    /// Snapshot saves that succeeded and that failed.
    pub saves: (u64, u64),
    /// Recorder events recorded and overwritten.
    pub recorder: (u64, u64),
    /// The traced pass's layer report.
    pub report: Option<Report>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn kernel_counts(&mut self, kernel: &Kernel) {
        let k = kernel.inner();
        self.resets += k.resets_triggered();
        for (sum, c) in self.mix.iter_mut().zip(k.dispatch_mix()) {
            *sum += c;
        }
    }

    /// Wall time of the timed phase: the windows, without the
    /// calibration samples between them.
    pub fn run_wall_s(&self) -> f64 {
        self.windows.iter().map(|(_, t)| t.wall_s).sum()
    }

    /// Stop calibrating and fill in the host speed of every timing.
    fn calibrated(&mut self) {
        let speeds = calibrate::finish();
        calibrate::resolve(
            &speeds,
            self.windows
                .iter_mut()
                .map(|(_, t)| t)
                .chain(&mut self.episodes)
                .chain(&mut self.setup),
        );
        self.speeds = speeds;
    }

    fn finish_fingerprint(&mut self, crcs: Vec<u64>) {
        self.fingerprint.push(("resets", vec![self.resets]));
        self.fingerprint.push(("dispatch", self.mix.to_vec()));
        self.fingerprint.push(("frame_crc64", crcs));
    }

    /// CRC-64 over every fingerprint entry: equal digests, equal
    /// trajectories.
    pub fn digest(&self) -> u64 {
        let mut crc = Crc64::new();
        for (name, values) in &self.fingerprint {
            crc.update(name.as_bytes());
            for &v in values {
                crc.update_u64(v);
            }
        }
        crc.finish()
    }
}

/// CRC-64 of a frame: interaction count, state words, and every
/// scheduler cursor (RNG words and pending pairs).
fn frame_crc(frame: &Frame) -> u64 {
    let mut crc = Crc64::new();
    crc.update_u64(frame.interactions);
    for &w in &frame.words {
        crc.update_u64(w);
    }
    for c in &frame.cursors {
        for &r in &c.rng {
            crc.update_u64(r);
        }
        for &(a, b) in &c.pending {
            crc.update_u64(u64::from(a) << 32 | u64::from(b));
        }
    }
    crc.finish()
}

/// Seed `i` of a workload's seed set under benchmark seed `seed`.
fn seed_of(seed: u64, i: u64) -> u64 {
    seed * 1000 + i
}

fn kernel(n: usize) -> Kernel {
    Packed(StableRanking::new(Params::new(n)))
}

/// Build the workload repeatedly (see [`SETUP_MIN_REPS`]); keep the
/// last build and report the median build time.
fn setup<T>(out: &mut Outcome, mut build: impl FnMut() -> T) -> T {
    let (start, mark) = (Instant::now(), calibrate::mark());
    let mut times = Vec::new();
    let mut built = None;
    while times.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_S {
        drop(built.take());
        calibrate::tick();
        let t0 = Instant::now();
        built = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    out.setup = Some(calibrate::timing(&mark).with_wall(quantile(&times, 0.5)));
    built.expect("at least one set-up")
}

/// A fresh snapshot rotation directory.
fn fresh_rotation(dir: &Path) -> Rotation {
    let _ = std::fs::remove_dir_all(dir);
    Rotation::open(dir).expect("create the snapshot directory")
}

/// Calibrate the untraced pass, with a reference population of `n`.
fn calibrate_untraced<M: Mode>(n: usize) {
    if !M::TRACED {
        calibrate::begin(n);
    }
}

fn begin<M: Mode>() {
    if M::TRACED {
        trace::begin();
    }
}

fn end<M: Mode>(out: &mut Outcome) {
    if M::TRACED {
        out.report = Some(trace::finish());
    }
    out.calibrated();
}

/// `stabilize`: n = 2048 from the clean start `initial()`, one seed per
/// unit, each run until the first valid poll (polled every n).
pub fn stabilize<M: Mode>(seed: u64, units: u64) -> Outcome {
    const N: usize = 2048;
    let budget = 40 * (N * N) as u64 * 11;
    let mut out = Outcome::default();
    calibrate_untraced::<M>(N);
    let mut sims = setup(&mut out, || {
        (0..units)
            .map(|i| {
                let k = kernel(N);
                let init = k.pack_all(&k.inner().initial());
                let source = M::source(Schedule::new(N, seed_of(seed, i)));
                Simulator::with_source(M::protocol(k), init, source)
            })
            .collect::<Vec<_>>()
    });

    begin::<M>();
    let mut stops = Vec::with_capacity(sims.len());
    for sim in &mut sims {
        let mark = calibrate::mark();
        let stop = trace::timed(Layer::Episode, || {
            trace::timed(Layer::Driver, || {
                sim.run_observed(budget, N as u64, &mut Tap::new(ValidPoll))
            })
        });
        let timing = calibrate::timing(&mark);
        out.episodes.push(timing);
        out.windows.push((sim.interactions(), timing));
        stops.push(stop);
    }
    end::<M>(&mut out);

    let mut crcs = Vec::new();
    let mut times = Vec::new();
    for (i, (sim, stop)) in sims.iter().zip(&stops).enumerate() {
        out.interactions += sim.interactions();
        out.check(stop.converged_at().is_some(), || {
            format!("seed {i}: no valid ranking within {budget} interactions")
        });
        out.check(
            is_valid_ranking(sim.states()) && is_silent(sim.protocol(), sim.states()),
            || format!("seed {i}: final configuration is not a valid, silent ranking"),
        );
        times.push(stop.converged_at().unwrap_or(0));
        out.kernel_counts(sim.protocol().kernel());
        crcs.push(frame_crc(&sim.frame()));
    }
    out.fingerprint.push(("stabilize_interactions", times));
    out.finish_fingerprint(crcs);
    out
}

/// Simulations `traced_sharded` spreads its chunks over.
const SHARDED_SIMS: u64 = 8;

/// The five injectors that act on a legal configuration, in the order
/// `soak` rotates through them.
const SOAK_KINDS: [&str; 5] = [
    "corrupt",
    "churn",
    "duplicate_rank",
    "erase_rank",
    "randomize",
];

/// `soak`: the run-forever service shape at n = 512 from `legal()`: one
/// fault per unit, every 300 n², rotating through [`SOAK_KINDS`]; a
/// snapshot every 10⁶ interactions and a validity poll every n.
pub fn soak<M: Mode>(seed: u64, units: u64, workdir: &Path) -> Outcome {
    const N: usize = 512;
    // Recoveries average 73 n², but 2 of 200 measured took longer than
    // 150 n²; a 300 n² gap keeps a fault from landing on an unrecovered one.
    const GAP: u64 = 300 * (N * N) as u64;
    const SAVE_EVERY: u64 = 1_000_000;
    // The last fault gets 0.9 of a gap to recover; ending on the save
    // grid makes the newest snapshot the final frame.
    let total = (units * GAP + GAP * 9 / 10).div_ceil(SAVE_EVERY) * SAVE_EVERY;
    assert!(
        total < (units + 1) * GAP,
        "no fault beyond `units` may fire"
    );
    let dir = workdir.join("soak");
    let mut out = Outcome::default();
    calibrate_untraced::<M>(N);
    let (mut sim, mut hook, sink) = setup(&mut out, || {
        let k = kernel(N);
        let init = k.pack_all(&k.inner().legal());
        let mut plan = FaultPlan::new(seed_of(seed, 500));
        for (i, kind) in SOAK_KINDS.iter().enumerate() {
            let fault = ranking_faults::standard(kind, k.inner(), N);
            plan = plan.periodic((i as u64 + 1) * GAP, 5 * GAP, fault);
        }
        let hook = Tap::new(UnpackedHook::new(plan));
        let sink = SnapshotSink::every(
            fresh_rotation(&dir),
            SAVE_EVERY,
            Meta::bare("perfbench soak", seed),
        );
        let source = M::source(Schedule::new(N, seed_of(seed, 0)));
        (
            Simulator::with_source(M::protocol(k), init, source),
            hook,
            sink,
        )
    });
    let mut sink = Tap::new(sink);
    let mut poll = Tap::new(ValidPoll);

    begin::<M>();
    let mut pending: Option<(u64, Mark)> = None;
    let mut recoveries = Vec::new();
    let mut unrecovered = Vec::new();
    let mut broken_closure = Vec::new();
    while sim.interactions() < total {
        let interval_end = total.min((sim.interactions() / GAP + 1) * GAP);
        let (t0, mark) = (sim.interactions(), calibrate::mark());
        trace::timed(Layer::Episode, || {
            while sim.interactions() < interval_end {
                let before = hook.fired_at.len();
                let burst = (N as u64).min(interval_end - sim.interactions());
                trace::timed(Layer::Driver, || {
                    sim.run_faulted_checkpointed(burst, &mut hook, &mut sink)
                });
                if hook.fired_at.len() > before {
                    let at = hook.inner.inner().fired().last().expect("a fault fired").at;
                    let fired = *hook.fired_at.last().expect("a fault fired");
                    if let Some((old, _)) = pending.replace((at, fired)) {
                        unrecovered.push(old);
                    }
                }
                let t = sim.interactions();
                let valid = poll.observe(sim.protocol(), t, sim.states()).is_stop();
                match pending {
                    Some((at, fired)) if valid => {
                        recoveries.push((t - at, calibrate::timing(&fired)));
                        pending = None;
                    }
                    None if !valid => broken_closure.push(t),
                    _ => {}
                }
            }
        });
        out.windows
            .push((sim.interactions() - t0, calibrate::timing(&mark)));
    }
    unrecovered.extend(pending.map(|(at, _)| at));
    out.episodes = recoveries.iter().map(|&(_, t)| t).collect();
    end::<M>(&mut out);

    out.interactions = sim.interactions();
    let fired = hook.inner.inner().fired().len() as u64;
    out.check(fired == units, || {
        format!("{fired} faults fired, {units} planned")
    });
    for at in &unrecovered {
        out.check(false, || {
            format!("fault at t={at} not recovered before the next one")
        });
    }
    out.attempted += recoveries.len() as u64;
    out.check(broken_closure.is_empty(), || {
        format!("valid ranking lost without a fault at t={broken_closure:?}")
    });
    check_saves(&mut out, &sink.inner, &sim.frame());
    out.kernel_counts(sim.protocol().kernel());
    out.fingerprint.push((
        "fault_at",
        hook.inner.inner().fired().iter().map(|f| f.at).collect(),
    ));
    out.fingerprint.push((
        "recovery_interactions",
        recoveries.iter().map(|r| r.0).collect(),
    ));
    out.finish_fingerprint(vec![frame_crc(&sim.frame())]);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Count the sink's saves as operations and check that the newest
/// snapshot on disk, re-read and verified, is the live frame.
fn check_saves(out: &mut Outcome, sink: &SnapshotSink, live: &Frame) {
    out.saves = (sink.saves, sink.failures);
    out.attempted += sink.saves;
    for _ in 0..sink.failures {
        out.check(false, || "snapshot save failed".to_string());
    }
    let newest = sink.rotation().latest_valid();
    out.check(
        newest.is_some_and(|l| l.skipped.is_empty() && l.snapshot.frame == *live),
        || "newest snapshot does not decode to the live frame".to_string(),
    );
}

/// `traced_sharded`: n = 10⁵ on 2 shards and 2 workers from `legal()`,
/// one `erase_rank` at t = 0, then `run_faulted_probed` with a
/// `Recorder` in one 10⁷-interaction chunk per unit. The chunks go round
/// robin to [`SHARDED_SIMS`] simulations with seeds of their own: the
/// recorder's cost follows the reset wave after the fault, whose course
/// depends on the seed (one seed in five ran 25% faster than the rest),
/// and the median over many seeds' chunks keeps one seed from setting
/// the run's figure.
pub fn traced_sharded<M: Mode>(seed: u64, units: u64) -> Outcome {
    const N: usize = 100_000;
    const SHARDS: usize = 2;
    const WORKERS: usize = 2;
    const CHUNK: u64 = 10_000_000;
    let sims = SHARDED_SIMS.min(units);
    let mut out = Outcome::default();
    calibrate_untraced::<M>(N);
    let mut runs = setup(&mut out, || {
        (0..sims)
            .map(|i| {
                let k = kernel(N);
                let init = k.pack_all(&k.inner().legal());
                let fault = ranking_faults::standard("erase_rank", k.inner(), N);
                let hook = Tap::new(UnpackedHook::new(
                    FaultPlan::new(seed_of(seed, 500 + i)).once(0, fault),
                ));
                let sim = ShardedSimulator::new(M::protocol(k), init, seed_of(seed, i), SHARDS)
                    .with_workers(WORKERS);
                (sim, hook, Tap::new(Recorder::new()))
            })
            .collect::<Vec<_>>()
    });

    begin::<M>();
    for j in 0..units {
        let (sim, hook, probe) = &mut runs[(j % sims) as usize];
        let mark = calibrate::mark();
        trace::timed(Layer::Episode, || {
            trace::timed(Layer::Shard, || sim.run_faulted_probed(CHUNK, hook, probe))
        });
        let timing = calibrate::timing(&mark);
        out.episodes.push(timing);
        out.windows.push((CHUNK, timing));
    }
    end::<M>(&mut out);

    let mut recorded = Vec::new();
    let mut crcs = Vec::new();
    for (i, (sim, hook, probe)) in runs.iter().enumerate() {
        out.interactions += sim.interactions();
        let recorder = &probe.inner;
        let counter = recorder.metrics().snapshot().counter("recorder_events");
        out.recorder.0 += recorder.recorded();
        out.recorder.1 += recorder.dropped();
        recorded.extend([recorder.recorded(), recorder.dropped()]);
        out.check(counter == Some(recorder.recorded()), || {
            format!(
                "sim {i}: recorded() = {} but recorder_events = {counter:?}",
                recorder.recorded()
            )
        });
        let kept = recorder.events().len() as u64;
        out.check(kept == recorder.recorded() - recorder.dropped(), || {
            format!(
                "sim {i}: {kept} events kept, {} recorded − {} dropped",
                recorder.recorded(),
                recorder.dropped()
            )
        });
        let fired = hook.inner.inner().fired().len();
        out.check(fired == 1, || {
            format!("sim {i}: {fired} faults fired, 1 planned")
        });
        out.kernel_counts(sim.protocol().kernel());
        crcs.push(frame_crc(&sim.frame()));
    }
    out.fingerprint.push(("recorder", recorded));
    out.finish_fingerprint(crcs);
    out
}
