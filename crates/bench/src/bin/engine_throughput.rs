//! Engine throughput: scalar stepping vs the batched hot path, and the
//! structured enum states vs the packed-word block kernel.
//!
//! Measures interactions/second of [`Simulator::step`] in a loop (the
//! reference execution path) against [`Simulator::run_batched`] (the
//! block-sampling hot path), over `n ∈ {10³, 10⁴, 10⁵}` by default, for:
//!
//! * the one-way epidemic (engine-bound: a two-byte compare per
//!   transition — the engine's speed-of-light);
//! * the paper's `StableRanking` over its structured enum states
//!   (transition-bound: the protocol dominates), the readable
//!   reference every packed row is gated against;
//! * `StableRanking` through its block transition kernel
//!   (`Packed<StableRanking>`, see `ranking::stable::kernel`): flat
//!   `u64` storage, table-driven transitions, whole schedule blocks
//!   walked in one in-order pass of the packed word step, each pair
//!   drawn from the schedule as the pass pulls it (the enum rows read
//!   a pre-sampled block, so the pair is an A/B of both the
//!   representation and the pair feed). The kernel rows
//!   also record the *dispatch mix* — the fraction of interactions
//!   each transition class executed — so a throughput shift can be
//!   attributed to a workload shift vs a kernel change;
//! * both paths again on the *converged* configuration
//!   (`stable_ranking_silent` / `stable_ranking_kernel_silent`): a
//!   fully ranked population is silent, every meeting is a
//!   ranked×ranked null pair, and a stabilized simulation spends all
//!   further interactions there — the regime the kernel's null exit
//!   targets. These rows, the transient kernel row and the probe rows
//!   below run through [`Executes`], which hides the protocol's
//!   silence certificate, so they keep timing transitions rather than
//!   the engine's fast-forward once a run is silent;
//! * the engine's silent fast-forward itself
//!   (`stable_ranking_fastforward_silent`, at `n ∈ {10³, …, 10⁶}`
//!   whatever `sizes=` says): the same converged configuration run in
//!   bursts of `n` interactions (the cadence of a validity poll every
//!   `n`), each burst skipped by owing its draws to the scheduler,
//!   which pays them with one jump when its stream is next read (the
//!   timed loop never reads it; the closing cursor check jumps a copy).
//!   Every sample times the kernel row's workload and the fast-forward
//!   back to back; the "scalar" column holds the paired kernel
//!   throughput, and the JSON's `fastforward` block records each
//!   size's median paired ratio with its spread across samples (the
//!   noise floor).
//!
//! All paths execute the identical trajectory, so every comparison is
//! pure representation/engine overhead.
//!
//! One extra kernel row measures an active **probe**
//! (`population::Probe`): `stable_ranking_kernel_recorded` times a
//! `telemetry::Recorder` riding the kernel's blocks, handed at each
//! block boundary the agents the marked kernel pass flagged (see
//! `population::Probe::block`), against `run_batched` in interleaved
//! pairs (in this row the "scalar" column is the paired unprobed
//! throughput). The JSON artifact additionally records each size's best
//! paired recorded/unprobed ratio (`probe_overhead`), and every
//! artifact embeds a run-provenance `manifest` block (arguments, git
//! revision, rustc, host cores).
//!
//! Writes `BENCH_engine.json` (override with `out=`) so later
//! performance work has a recorded trajectory to beat. Pass
//! `baseline=BENCH_engine.json` to print per-protocol speedup against a
//! previously recorded artifact — perf regressions visible in one
//! command. Pass `--smoke` to assert (exit 1 on failure) that the
//! kernel is at least `floor=` (default 0.9) times the enum path on
//! the transient workload and, at `n ≥ 10⁴`, at least `silent_floor=`
//! (default 1.05) times it on the converged workload, and that at
//! `n = 10⁴` the best paired recorded/unprobed ratio reaches
//! `RECORD_FLOOR` (0.7) — the CI throughput smoke.
//!
//! Usage: `cargo run --release -p bench --bin engine_throughput --
//! [interactions=20000000] [samples=5] [sizes=1000,10000,100000]
//! [out=BENCH_engine.json] [baseline=PATH] [floor=0.9]
//! [silent_floor=1.05] [--smoke] [--csv]`

use std::process::ExitCode;
use std::time::Instant;

use bench::timing::time_runs;
use bench::{f3, Experiment, Json, Table};
use population::primitives::epidemic::Epidemic;
use population::schedule::Pair;
use population::{
    drive, CursorSource, NoFaults, NoPoll, NoSaves, Packed, PairSource, Protocol, Simulator,
};
use ranking::stable::state::StableState;
use ranking::stable::StableRanking;
use ranking::Params;

/// Smoke floor on the best paired recorded/unprobed ratio at `n = 10⁴`.
const RECORD_FLOOR: f64 = 0.7;

/// Population sizes of the fast-forward rows.
const FASTFORWARD_SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

struct Measurement {
    protocol: &'static str,
    n: usize,
    interactions: u64,
    scalar_ips: f64,
    batched_ips: f64,
    /// Kernel rows only: fraction of batched interactions executed by
    /// each dispatch lane (`[reset, both-elect, one-elect, main/main]`).
    dispatch_mix: Option<[f64; 4]>,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.batched_ips / self.scalar_ips
    }
}

fn measure<P, F>(
    name: &'static str,
    n: usize,
    interactions: u64,
    samples: usize,
    make: F,
) -> Measurement
where
    P: Protocol,
    F: Fn() -> (P, Vec<P::State>),
{
    measure_with(name, n, interactions, samples, make, |_, _| None)
}

/// Like [`measure`], but `finish` inspects the batched simulator's
/// protocol after its timed runs — the hook the kernel row uses to pull
/// the accumulated dispatch-mix counters.
fn measure_with<P, F>(
    name: &'static str,
    n: usize,
    interactions: u64,
    samples: usize,
    make: F,
    finish: impl Fn(&P, u64) -> Option<[f64; 4]>,
) -> Measurement
where
    P: Protocol,
    F: Fn() -> (P, Vec<P::State>),
{
    let (protocol, init) = make();
    let mut sim = Simulator::new(protocol, init, 7);
    let scalar = time_runs(1, samples, || {
        for _ in 0..interactions {
            sim.step();
        }
    });

    let (protocol, init) = make();
    let mut sim = Simulator::new(protocol, init, 7);
    let batched = time_runs(1, samples, || {
        sim.run_batched(interactions);
    });
    let dispatch_mix = finish(sim.protocol(), sim.interactions());

    Measurement {
        protocol: name,
        n,
        interactions,
        scalar_ips: scalar.per_second(interactions as f64),
        batched_ips: batched.per_second(interactions as f64),
        dispatch_mix,
    }
}

/// Minimal reader for previously written `BENCH_engine.json` artifacts:
/// extracts `(protocol, n, batched_interactions_per_sec)` triples from
/// the pretty-printed (one key per line) layout. Not a JSON parser —
/// just enough to compare against our own output format.
fn read_baseline(path: &str) -> Vec<(String, usize, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.trim().strip_prefix(&format!("\"{key}\":"))?;
        Some(
            rest.trim()
                .trim_end_matches(',')
                .trim_matches('"')
                .to_string(),
        )
    };
    let mut out = Vec::new();
    let (mut protocol, mut n) = (None::<String>, None::<usize>);
    for line in text.lines() {
        if let Some(p) = field(line, "protocol") {
            protocol = Some(p);
        } else if let Some(v) = field(line, "n") {
            n = v.parse().ok();
        } else if let Some(v) = field(line, "batched_interactions_per_sec") {
            if let (Some(p), Some(nn), Ok(ips)) = (protocol.take(), n.take(), v.parse()) {
                out.push((p, nn, ips));
            }
        }
    }
    assert!(
        !out.is_empty(),
        "baseline {path} contains no measurements (expected the BENCH_engine.json layout)"
    );
    out
}

/// The dispatch-mix hook for kernel rows: read the per-class counters
/// out of the protocol's unified metrics registry (the same snapshot
/// any telemetry consumer sees) and turn them into fractions of the
/// executed interactions.
fn kernel_mix(p: &Packed<StableRanking>, executed: u64) -> Option<[f64; 4]> {
    let snap = p.inner().metrics().snapshot();
    let mix = ranking::stable::DISPATCH_COUNTERS.map(|name| snap.counter(name).unwrap_or(0));
    let total: u64 = mix.iter().sum();
    debug_assert_eq!(total, executed);
    let _ = executed;
    (total > 0).then(|| mix.map(|c| c as f64 / total as f64))
}

/// The converged configuration: a valid ranking is silent, so every
/// interaction is a ranked×ranked null pair.
fn ranked_init(n: usize) -> Vec<StableState> {
    (1..=n as u64).map(StableState::Ranked).collect()
}

/// A protocol with its silence certificate hidden: only the methods
/// that execute interactions are forwarded, so the engine never
/// fast-forwards it and every interaction reaches the transition.
/// Blocks keep the inner protocol's feed: the kernel pulls pairs as
/// the schedule draws them, while the enum rows read a sampled block.
/// Probed blocks keep its marks, so the recorded row's recorder diffs
/// only the agents whose class changed.
struct Executes<P>(P);

impl<P: Protocol> Protocol for Executes<P> {
    type State = P::State;

    fn n(&self) -> usize {
        self.0.n()
    }

    fn transition(&self, u: &mut P::State, v: &mut P::State) -> bool {
        self.0.transition(u, v)
    }

    fn transition_block(&self, states: &mut [P::State], pairs: &[Pair]) -> u64 {
        self.0.transition_block(states, pairs)
    }

    fn transition_from<S: PairSource>(
        &self,
        states: &mut [P::State],
        source: &mut S,
        max: usize,
    ) -> (usize, u64) {
        self.0.transition_from(states, source, max)
    }

    fn transition_marked<S: PairSource>(
        &self,
        states: &mut [P::State],
        source: &mut S,
        max: usize,
        marks: &mut [u64],
    ) -> (usize, u64) {
        self.0.transition_marked(states, source, max, marks)
    }
}

/// The silent kernel row and the fast-forward row at one size, from
/// interleaved paired samples.
struct FastForward {
    n: usize,
    interactions: u64,
    kernel_ips: f64,
    skip_ips: f64,
    /// Per-sample `t_kernel / t_fastforward`, sorted.
    ratios: Vec<f64>,
}

/// Time `interactions` silent interactions in bursts of `n` through the
/// kernel (certificate hidden) and through the fast-forward, back to
/// back in every sample.
fn measure_fastforward(n: usize, interactions: u64, samples: usize) -> FastForward {
    let p = Packed(StableRanking::new(Params::new(n)));
    let init = p.pack_all(&ranked_init(n));
    let mut kernel = Simulator::new(Executes(p.clone()), init.clone(), 7);
    let mut skip = Simulator::new(p, init, 7);
    let bursts = interactions.div_ceil(n as u64);
    let interactions = bursts * n as u64;
    let timed = |run: &mut dyn FnMut(u64)| {
        let t0 = Instant::now();
        for _ in 0..bursts {
            run(n as u64);
        }
        t0.elapsed().as_secs_f64()
    };
    let (mut kernel_t, mut skip_t, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..samples {
        let tk = timed(&mut |c| kernel.run_batched(c));
        let ts = timed(&mut |c| skip.run_batched(c));
        kernel_t.push(tk);
        skip_t.push(ts);
        ratios.push(tk / ts);
    }
    assert_eq!(
        skip.source().cursor(),
        kernel.source().cursor(),
        "the fast-forward must land where the kernel does"
    );
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    ratios.sort_by(f64::total_cmp);
    FastForward {
        n,
        interactions,
        kernel_ips: interactions as f64 / median(kernel_t),
        skip_ips: interactions as f64 / median(skip_t),
        ratios,
    }
}

/// The recorded row, measured by **interleaved paired sampling**.
///
/// The bench host shares its cores with other tenants and its clock is
/// unstable: two independently timed medians of *identical* machine
/// code routinely differ by ~10%. Instead every sample times
/// `run_batched` and a `drive` call with a `Recorder` in the probe slot
/// back-to-back (same frequency window), and the smoke gate uses the
/// **best** paired ratio across samples: at least one quiet window shows
/// the recorder's real per-block cost, while a real regression caps
/// every window's ratio below the floor (active tracing may cost, but
/// only so much).
struct ProbeRows {
    n: usize,
    interactions: u64,
    plain_ips: f64,
    recorded_ips: f64,
    /// Best (max) per-sample ratio `t_plain / t_recorded` — the smoke
    /// gate.
    best_recorded_ratio: f64,
}

fn measure_probe_rows(n: usize, interactions: u64, samples: usize) -> ProbeRows {
    let fresh = || {
        let p = Packed(StableRanking::new(Params::new(n)));
        let init = p.pack_all(&p.inner().initial());
        Simulator::new(Executes(p), init, 7)
    };
    let mut plain_sim = fresh();
    let mut rec_sim = fresh();
    // A small ring keeps the recorded row's memory bounded; overwritten
    // events are still counted, which is all this row needs.
    let mut recorder = telemetry::Recorder::with_capacity(1 << 12);
    let mut plain_t = Vec::with_capacity(samples);
    let mut rec_t = Vec::with_capacity(samples);
    let mut best_recorded_ratio = 0.0f64;
    // Sample 0 is each path's untimed warmup.
    for sample in 0..=samples {
        let t0 = Instant::now();
        plain_sim.run_batched(interactions);
        let tp = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        drive(
            &mut rec_sim,
            interactions,
            &mut NoFaults,
            &mut NoSaves,
            &mut NoPoll,
            &mut recorder,
        );
        let tr = t0.elapsed().as_secs_f64();
        if sample == 0 {
            continue;
        }
        best_recorded_ratio = best_recorded_ratio.max(tp / tr);
        plain_t.push(tp);
        rec_t.push(tr);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    ProbeRows {
        n,
        interactions,
        plain_ips: interactions as f64 / median(plain_t),
        recorded_ips: interactions as f64 / median(rec_t),
        best_recorded_ratio,
    }
}

fn main() -> ExitCode {
    let exp = Experiment::from_env("engine_throughput");
    let interactions: u64 = exp.get("interactions", 20_000_000);
    let samples: usize = exp.get("samples", 5);
    let sizes: Vec<usize> = exp
        .args()
        .get_str("sizes")
        .unwrap_or("1000,10000,100000")
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .expect("sizes= must be comma-separated integers")
        })
        .collect();

    let mut results = Vec::new();
    for &n in &sizes {
        results.push(measure("epidemic", n, interactions, samples, || {
            let p = Epidemic::new(n);
            let init = p.initial(n);
            (p, init)
        }));
        // StableRanking transitions dominate the engine overhead, so
        // its speedup bounds what protocol-heavy workloads see; fewer
        // interactions keep the run short.
        results.push(measure(
            "stable_ranking",
            n,
            interactions / 4,
            samples,
            || {
                let p = StableRanking::new(Params::new(n));
                let init = p.initial();
                (p, init)
            },
        ));
        // Packed words through the block transition kernel: one
        // in-order pass of the word step per block. Same trajectory
        // bit-for-bit as the enum row; the
        // dispatch-mix counters attribute the throughput to the
        // classes that did the work.
        results.push(measure_with(
            "stable_ranking_kernel",
            n,
            interactions / 4,
            samples,
            || {
                let p = Packed(StableRanking::new(Params::new(n)));
                let init = p.pack_all(&p.inner().initial());
                (Executes(p), init)
            },
            |p, executed| kernel_mix(&p.0, executed),
        ));
        // The converged regime, no warmup needed: a pre-built valid
        // ranking starts silent and stays silent. The enum row is the
        // reference the kernel's null exit is gated against.
        results.push(measure(
            "stable_ranking_silent",
            n,
            interactions / 4,
            samples,
            || (Executes(StableRanking::new(Params::new(n))), ranked_init(n)),
        ));
        results.push(measure_with(
            "stable_ranking_kernel_silent",
            n,
            interactions / 4,
            samples,
            || {
                let p = Packed(StableRanking::new(Params::new(n)));
                let init = p.pack_all(&ranked_init(n));
                (Executes(p), init)
            },
            |p, executed| kernel_mix(&p.0, executed),
        ));
    }

    // Silent fast-forward rows, paired against the silent kernel path;
    // the "scalar" column is the paired kernel throughput.
    let ff_rows: Vec<FastForward> = FASTFORWARD_SIZES
        .iter()
        .map(|&n| measure_fastforward(n, interactions / 4, samples))
        .collect();
    for f in &ff_rows {
        results.push(Measurement {
            protocol: "stable_ranking_fastforward_silent",
            n: f.n,
            interactions: f.interactions,
            scalar_ips: f.kernel_ips,
            batched_ips: f.skip_ips,
            dispatch_mix: None,
        });
    }

    // The recorded row: paired unprobed vs Recorder samples over the
    // kernel path (see [`measure_probe_rows`]). In this row the
    // "scalar" column is the *paired unprobed* `run_batched`
    // throughput, not a step loop.
    let probe_rows: Vec<ProbeRows> = sizes
        .iter()
        .map(|&n| measure_probe_rows(n, interactions / 4, samples))
        .collect();
    for p in &probe_rows {
        results.push(Measurement {
            protocol: "stable_ranking_kernel_recorded",
            n: p.n,
            interactions: p.interactions,
            scalar_ips: p.plain_ips,
            batched_ips: p.recorded_ips,
            dispatch_mix: None,
        });
    }

    let mut table = Table::new(
        format!("Engine throughput, median of {samples} runs"),
        &[
            "protocol",
            "n",
            "scalar M/s",
            "batched M/s",
            "speedup",
            "mix rst/e2/e1/main %",
        ],
    );
    for m in &results {
        let mix = m.dispatch_mix.map_or_else(
            || "-".to_string(),
            |mix| mix.map(|f| format!("{:.1}", f * 100.0)).join("/"),
        );
        table.push(vec![
            m.protocol.to_string(),
            m.n.to_string(),
            f3(m.scalar_ips / 1e6),
            f3(m.batched_ips / 1e6),
            f3(m.speedup()),
            mix,
        ]);
    }
    exp.emit(&table);

    if let Some(baseline_path) = exp.args().get_str("baseline") {
        let baseline = read_baseline(baseline_path);
        let mut cmp = Table::new(
            format!("Batched throughput vs baseline {baseline_path}"),
            &[
                "protocol",
                "n",
                "baseline M/s",
                "now M/s",
                "speedup vs baseline",
            ],
        );
        for m in &results {
            let Some((_, _, base)) = baseline
                .iter()
                .find(|(p, n, _)| p == m.protocol && *n == m.n)
            else {
                continue;
            };
            cmp.push(vec![
                m.protocol.to_string(),
                m.n.to_string(),
                f3(base / 1e6),
                f3(m.batched_ips / 1e6),
                f3(m.batched_ips / base),
            ]);
        }
        exp.emit(&cmp);
    }

    let payload = Json::obj([
        ("samples", samples.into()),
        (
            "probe_overhead",
            Json::Arr(
                probe_rows
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("n", p.n.into()),
                            ("best_recorded_paired_ratio", p.best_recorded_ratio.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "fastforward",
            Json::Arr(
                ff_rows
                    .iter()
                    .map(|f| {
                        let at = |q: f64| f.ratios[((f.ratios.len() - 1) as f64 * q) as usize];
                        Json::obj([
                            ("n", f.n.into()),
                            ("median_paired_ratio", at(0.5).into()),
                            ("min_paired_ratio", at(0.0).into()),
                            ("max_paired_ratio", at(1.0).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "measurements",
            Json::Arr(
                results
                    .iter()
                    .map(|m| {
                        let mut fields = vec![
                            ("protocol", m.protocol.into()),
                            ("n", m.n.into()),
                            ("interactions_per_sample", m.interactions.into()),
                            ("scalar_interactions_per_sec", m.scalar_ips.into()),
                            ("batched_interactions_per_sec", m.batched_ips.into()),
                            ("speedup", m.speedup().into()),
                        ];
                        if let Some(mix) = m.dispatch_mix {
                            fields.extend([
                                ("mix_reset", mix[0].into()),
                                ("mix_both_elect", mix[1].into()),
                                ("mix_one_elect", mix[2].into()),
                                ("mix_main_main", mix[3].into()),
                            ]);
                        }
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
    ]);
    exp.write_json("BENCH_engine.json", payload);

    // Historical note: this ratio sat at ~2.5x while the scalar step
    // path cloned both states per transition; the copy-free scalar loop
    // tripled scalar epidemic throughput, so batched/scalar ~0.7-1.0x
    // on a trivial transition is expected now (batching pays a block
    // buffer round-trip that the inline sampler does not).
    if let Some(engine_bound) = results
        .iter()
        .find(|m| m.protocol == "epidemic" && m.n == 100_000)
    {
        exp.note(&format!(
            "engine-bound batched/scalar at n = 1e5: {:.2}x \
             (informational; both paths are copy-free since the kernel PR)",
            engine_bound.speedup()
        ));
    }

    // CI throughput smoke: the block kernel must hold its measured
    // position against the enum reference — not slower on the
    // churn-heavy transient, a clear win on the converged/silent
    // workload. The floors sit well below the steady-state measurements
    // (0.9x vs 1.3-1.7x, 1.05x vs 3.0-3.2x at n = 1e4) so shared-runner
    // noise cannot flake the build; real regressions are far below
    // them.
    if exp.flag("smoke") {
        let floor: f64 = exp.get("floor", 0.9);
        let silent_floor: f64 = exp.get("silent_floor", 1.05);
        let mut ok = true;
        // The recorder guard: at n = 1e4 a key-diffing scan of the
        // marked agents keeps the recorded run well above the floor, a
        // per-agent class decode does not.
        for p in probe_rows.iter().filter(|p| p.n == 10_000) {
            exp.note(&format!(
                "smoke n={}: best paired recorded/unprobed ratio {:.3} (floor {RECORD_FLOOR})",
                p.n, p.best_recorded_ratio
            ));
            if p.best_recorded_ratio < RECORD_FLOOR {
                eprintln!(
                    "SMOKE FAILURE: Recorder kernel path reached only {:.3}x the \
                     unprobed path at n={} across every paired sample \
                     (floor {RECORD_FLOOR}) — the recorder's block scan regressed",
                    p.best_recorded_ratio, p.n
                );
                ok = false;
            }
        }
        for &n in &sizes {
            let by = |name: &str| {
                results
                    .iter()
                    .find(|m| m.protocol == name && m.n == n)
                    .expect("measured above")
            };
            let enum_ips = by("stable_ranking").batched_ips;
            let kernel_ips = by("stable_ranking_kernel").batched_ips;
            let ratio = kernel_ips / enum_ips;
            exp.note(&format!(
                "smoke n={n}: kernel/enum batched ratio {ratio:.2} (floor {floor})"
            ));
            if ratio < floor {
                eprintln!(
                    "SMOKE FAILURE: block kernel is {ratio:.2}x the enum path at n={n} \
                     (floor {floor}) — the packed path regressed"
                );
                ok = false;
            }
            // Tiny populations blur under measurement noise; gate the
            // silent floor from n = 1e4 up.
            if n >= 10_000 {
                let silent_enum = by("stable_ranking_silent").batched_ips;
                let silent_kernel = by("stable_ranking_kernel_silent").batched_ips;
                let sratio = silent_kernel / silent_enum;
                exp.note(&format!(
                    "smoke n={n}: silent kernel/enum ratio {sratio:.2} (floor {silent_floor})"
                ));
                if sratio < silent_floor {
                    eprintln!(
                        "SMOKE FAILURE: block kernel is {sratio:.2}x the enum path on the \
                         silent workload at n={n} (floor {silent_floor}) — the null exit \
                         regressed"
                    );
                    ok = false;
                }
            }
        }
        if !ok {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
