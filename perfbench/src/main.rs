//! The repository benchmark: three pinned workloads against the
//! unmodified library, end-to-end metrics from an untraced pass and
//! per-layer metrics from a traced one. End-to-end times are scaled to
//! the reference host by a reference loop timed alongside the workload
//! (see `calibrate`). See `perfbench/README.md`.
//!
//! Usage: `perfbench --workload <name> [--seed N] [--seconds S]
//! [--trace 0|1] [--workdir DIR]`. Prints one JSON result as the last
//! line of standard output; exits non-zero if any check failed.

mod calibrate;
mod stats;
mod trace;
mod workloads;
mod wrap;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use calibrate::Timing;
use stats::quantile;
use trace::Layer;
use workloads::Outcome;
use wrap::{Mode, Plain, Traced};

/// A workload: its name and the wall time one unit of its work takes on
/// the reference host (2 cores, 4 MiB L2 per core), which sets how many
/// units fill `--seconds`.
struct Workload {
    name: &'static str,
    unit_s: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "stabilize",
        unit_s: 1.7,
    },
    Workload {
        name: "soak",
        unit_s: 0.5,
    },
    Workload {
        name: "traced_sharded",
        unit_s: 0.6,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut workdir = PathBuf::from("perfbench/work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| bad("stabilize, soak or traced_sharded"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--workdir" => workdir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        workdir,
    })
}

fn run<M: Mode>(name: &str, seed: u64, units: u64, workdir: &Path) -> Outcome {
    match name {
        "stabilize" => workloads::stabilize::<M>(seed, units),
        "soak" => workloads::soak::<M>(seed, units, workdir),
        "traced_sharded" => workloads::traced_sharded::<M>(seed, units),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = Vec<(String, f64, &'static str)>;

/// Largest share of the traced wall the accounting accepts outside
/// every wrapped layer and engine call.
const UNACCOUNTED_LIMIT: f64 = 0.05;

/// Which clock a timing is read on: scaled to the reference host, or
/// the wall clock.
type Clock = fn(&Timing) -> f64;
const REF: Clock = Timing::ref_s;
const WALL: Clock = |t| t.wall_s;

/// Median over windows of interactions per second on `clock`.
fn rate_p50(out: &Outcome, clock: Clock) -> f64 {
    let rates: Vec<f64> = out
        .windows
        .iter()
        .map(|(i, span)| *i as f64 / clock(span))
        .collect();
    quantile(&rates, 0.5)
}

/// The `q`-quantile of the episode times on `clock`.
fn episode_q(out: &Outcome, clock: Clock, q: f64) -> f64 {
    quantile(&out.episodes.iter().map(clock).collect::<Vec<_>>(), q)
}

fn setup(out: &Outcome) -> Timing {
    out.setup.expect("every workload times its set-up")
}

fn end_to_end(out: &Outcome) -> Metrics {
    vec![
        ("setup_s".into(), REF(&setup(out)), "s"),
        ("interactions_per_s".into(), rate_p50(out, REF), "1/s"),
        ("episode_s_p50".into(), episode_q(out, REF, 0.5), "s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ]
}

/// Lines printed besides the bounded metrics: the episode tail, the
/// workload-specific names of the episode metrics, and the timings on
/// the wall clock.
fn episode_lines(name: &str, out: &Outcome) {
    let (p50, p75) = (episode_q(out, REF, 0.5), episode_q(out, REF, 0.75));
    println!("episode_s_p75 = {p75} s");
    match name {
        "stabilize" => println!("stabilize_s = {p50} s"),
        "soak" => println!("recover_s_p50 = {p50} s\nrecover_s_p75 = {p75} s"),
        _ => {}
    }
    println!(
        "wall clock: setup_s = {} s, interactions_per_s = {} 1/s, episode_s_p50 = {} s",
        setup(out).wall_s,
        rate_p50(out, WALL),
        episode_q(out, WALL, 0.5),
    );
    println!(
        "host speed: {} calibration samples, median {:.3}, quartiles {:.3} to {:.3}",
        out.speeds.len(),
        quantile(&out.speeds, 0.5),
        quantile(&out.speeds, 0.25),
        quantile(&out.speeds, 0.75)
    );
}

fn per_layer(plain: &Outcome, traced: &Outcome) -> Metrics {
    let r = traced
        .report
        .as_ref()
        .expect("the traced pass has a report");
    let per = |num: u64, den: u64, scale: f64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64 / scale
        }
    };
    let p50_ms = |layer| {
        quantile(
            &r.layer(layer)
                .samples
                .iter()
                .map(|&ns| ns as f64 / 1e6)
                .collect::<Vec<_>>(),
            0.5,
        )
    };
    let l = |layer| r.layer(layer);
    let mix_total: u64 = traced.mix.iter().sum();
    let mut m: Metrics = vec![
        (
            "population.schedule.pairs".into(),
            l(Layer::Schedule).items as f64,
            "count",
        ),
        (
            "population.schedule.ns_per_pair".into(),
            per(l(Layer::Schedule).total_ns, l(Layer::Schedule).items, 1.0),
            "ns",
        ),
        (
            "ranking.kernel.ns_per_pair".into(),
            per(l(Layer::Kernel).total_ns, l(Layer::Kernel).items, 1.0),
            "ns",
        ),
        (
            "ranking.kernel.changed_frac".into(),
            per(r.kernel_changed, l(Layer::Kernel).items, 1.0),
            "frac",
        ),
    ];
    for (i, class) in ["reset", "both_elect", "one_elect", "main"]
        .iter()
        .enumerate()
    {
        m.push((
            format!("ranking.kernel.mix.{class}"),
            per(traced.mix[i], mix_total, 1.0),
            "frac",
        ));
    }
    m.extend([
        ("ranking.resets".into(), traced.resets as f64, "count"),
        (
            "population.observe.polls".into(),
            l(Layer::Observe).calls as f64,
            "count",
        ),
        (
            "population.observe.us_per_poll".into(),
            per(l(Layer::Observe).total_ns, l(Layer::Observe).calls, 1e3),
            "us",
        ),
        (
            "scenarios.fault.fires".into(),
            l(Layer::Fault).calls as f64,
            "count",
        ),
        (
            "scenarios.fault.us_per_fire".into(),
            per(l(Layer::Fault).total_ns, l(Layer::Fault).calls, 1e3),
            "us",
        ),
        ("snapshot.save.count".into(), traced.saves.0 as f64, "count"),
        (
            "snapshot.save.failures".into(),
            traced.saves.1 as f64,
            "count",
        ),
        ("snapshot.save.ms_p50".into(), p50_ms(Layer::Save), "ms"),
        ("snapshot.encode.ms_p50".into(), p50_ms(Layer::Encode), "ms"),
        (
            "snapshot.bytes_per_save".into(),
            per(l(Layer::Encode).items, l(Layer::Encode).calls, 1.0),
            "B",
        ),
        (
            "telemetry.recorder.ns_per_block".into(),
            per(l(Layer::Recorder).total_ns, l(Layer::Recorder).items, 1.0),
            "ns",
        ),
        (
            "telemetry.recorder.events".into(),
            traced.recorder.0 as f64,
            "count",
        ),
        (
            "telemetry.recorder.dropped".into(),
            traced.recorder.1 as f64,
            "count",
        ),
        (
            "shard.exchange.pairs_frac".into(),
            per(r.exchange_pairs, traced.interactions, 1.0),
            "frac",
        ),
    ]);
    // Every layer's self time as a share of the traced wall; together
    // with the driver's and the unaccounted share they sum to 1.
    for layer in Layer::ALL {
        let name = match layer {
            Layer::Glue | Layer::Episode => continue,
            Layer::Driver => "population.driver.self_share".to_string(),
            _ => format!("{}.share", layer.name()),
        };
        m.push((name, r.share(layer), "frac"));
    }
    m.push((
        "trace.unaccounted_share".into(),
        r.unaccounted_ns() as f64 / r.wall_ns.max(1) as f64,
        "frac",
    ));
    m.push((
        "trace.overhead".into(),
        traced.run_wall_s() / plain.run_wall_s(),
        "x",
    ));
    m
}

fn print_outcome(pass: &str, out: &Outcome) {
    println!(
        "{pass}: {} interactions in {:.3} s, {} episodes, {} operations, {} failed",
        out.interactions,
        out.run_wall_s(),
        out.episodes.len(),
        out.attempted,
        out.failures.len()
    );
    for f in &out.failures {
        println!("{pass}: FAILED {f}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name;
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let units = (seconds / args.workload.unit_s).round().max(1.0) as u64;
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", args.workdir.display());
        return ExitCode::from(2);
    }

    let plain = run::<Plain>(name, args.seed, units, &args.workdir);
    print_outcome("untraced", &plain);
    let mut attempted = plain.attempted;
    let mut failed = plain.failures.len() as u64;
    let metrics = if args.trace {
        let traced = run::<Traced>(name, args.seed, units, &args.workdir);
        print_outcome("traced", &traced);
        attempted += traced.attempted + 1;
        failed += traced.failures.len() as u64;
        if traced.digest() != plain.digest() {
            println!("traced: FAILED tracing changed the trajectory");
            failed += 1;
        }
        let report = traced
            .report
            .as_ref()
            .expect("the traced pass has a report");
        let path = args.workdir.join(format!("trace-{name}.jsonl"));
        match std::fs::write(&path, report.to_jsonl()) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => println!("trace not written to {}: {e}", path.display()),
        }
        // Time outside every library call is the benchmark's own loop;
        // a few percent is expected, more means a layer went unwrapped.
        let unaccounted = report.unaccounted_ns() as f64 / report.wall_ns.max(1) as f64;
        let verdict = if unaccounted <= UNACCOUNTED_LIMIT {
            "ok"
        } else {
            "WARNING, a library layer is not wrapped"
        };
        println!(
            "accounting: layers and population.driver cover {:.2}% of the traced wall ({verdict})",
            100.0 * (1.0 - unaccounted)
        );
        per_layer(&plain, &traced)
    } else {
        end_to_end(&plain)
    };

    let fingerprint: Vec<String> = plain
        .fingerprint
        .iter()
        .map(|(k, v)| {
            let v: Vec<String> = v.iter().map(u64::to_string).collect();
            format!("\"{k}\":[{}]", v.join(","))
        })
        .collect();
    println!(
        "fingerprint {{\"workload\":\"{name}\",\"seed\":{},\"units\":{units},\"digest\":\"{:016x}\",{}}}",
        args.seed,
        plain.digest(),
        fingerprint.join(",")
    );
    for (k, v, unit) in &metrics {
        println!("{k} = {v} {unit}");
    }
    episode_lines(name, &plain);
    println!("fail_frac = {}", failed as f64 / attempted.max(1) as f64);
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, unit)| format!("\"{k}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
