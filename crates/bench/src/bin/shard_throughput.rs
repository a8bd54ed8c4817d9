//! Sharded-engine throughput: the `shard` crate's partitioned
//! single-run simulator vs the sequential packed batched path.
//!
//! For every `(n, shards)` point in the `sizes=` × `shards=` sweep the
//! single-thread baseline (`Simulator::run_batched` over
//! `Packed<StableRanking>` words) and the sharded engine (at `workers=`
//! threads, defaulting to the machine parallelism capped at the shard
//! count) are sampled back to back, alternating, so clock-speed drift
//! on shared machines cancels out of the speedup column. Each adjacent
//! pair of samples gives one paired ratio (sharded rate over baseline
//! rate); the speedup column is the median of those ratios, and next to
//! it every row reports their first and third quartiles, so the
//! headline and its spread are one statistic and a row shows how far
//! host load moves it. The rate columns are each engine's median. All
//! configurations execute the paper protocol from its clean start.
//!
//! Wall-clock speedup needs real cores: the JSON artifact records
//! `cores` (honoring `SSR_WORKERS`) next to every row, so a sweep taken
//! on a single-core box — where every sharded row runs inline and
//! measures pure partitioning overhead plus locality effects — is not
//! mistaken for a parallel measurement. On a multi-core machine the
//! intra phase scales with the worker count and the exchange rounds at
//! `shards/2`-way parallelism; ≥ 2× over the sequential baseline is the
//! expectation from 4 shards up.
//!
//! `--smoke` (the CI step) additionally asserts, at the first
//! configured `(n, shards)` point: (a) the best *paired*
//! sharded/batched ratio — adjacent samples, so shared-runner CPU-steal
//! spikes cancel while a real regression degrades every pair — is at
//! least `floor=` (default 0.9 with > 1 core; 0.6 on a single core,
//! where inline boundary-pair deferral legitimately costs ~20–25%); and
//! (b) two identical sharded runs produce bit-for-bit identical final
//! configurations (the determinism contract). When `shards=` is
//! omitted the sweep honors the `SSR_SHARDS` environment override
//! (mirroring `SSR_WORKERS`), so CI pins the partition without CLI
//! plumbing.
//!
//! Writes `BENCH_shard.json` (override with `out=`).
//!
//! Usage: `cargo run --release -p bench --bin shard_throughput --
//! [interactions=20000000] [samples=3] [sizes=10000,100000,1000000]
//! [shards=1,2,4,8] [workers=N] [floor=0.9] [out=BENCH_shard.json]
//! [--smoke] [--csv]`

use std::process::ExitCode;
use std::time::Instant;

use analysis::stats::quantile;
use bench::{f3, Experiment, Json, Table};
use population::{Packed, Simulator};
use ranking::stable::{PackedState, StableRanking};
use ranking::Params;
use shard::ShardedSimulator;

fn packed(n: usize) -> (Packed<StableRanking>, Vec<PackedState>) {
    let p = Packed(StableRanking::new(Params::new(n)));
    let init = p.pack_all(&p.inner().initial());
    (p, init)
}

/// Measure one `(n, shards)` point with the baseline and the sharded
/// engine sampled back to back, alternating, and the medians taken per
/// engine. On shared machines the clock speed drifts on the scale of a
/// whole sweep; interleaving makes every ratio compare samples taken
/// milliseconds apart, so drift cancels out of the speedup column.
fn measure_pair(
    n: usize,
    shards: usize,
    workers: Option<usize>,
    interactions: u64,
    samples: usize,
) -> Measurement {
    let (protocol, init) = packed(n);
    let mut baseline = Simulator::new(protocol, init, 7);
    let (protocol, init) = packed(n);
    let mut sharded = ShardedSimulator::new(protocol, init, 7, shards);
    if let Some(w) = workers {
        sharded = sharded.with_workers(w);
    }
    let effective = sharded.workers();
    // Warm-up both engines (page in the lanes, settle frequency).
    baseline.run_batched(interactions);
    sharded.run(interactions);
    let mut base_s = Vec::with_capacity(samples);
    let mut shard_s = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        baseline.run_batched(interactions);
        base_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        sharded.run(interactions);
        shard_s.push(t0.elapsed().as_secs_f64());
    }
    // Paired ratios: each sample pair ran milliseconds apart, so a
    // CPU-steal spike hits at most a few pairs — a real regression
    // degrades *every* pair. The smoke gates on the best one
    // (flake-resistant); the table reports the paired ratios' median as
    // the speedup, with their quartiles, the spread a single speedup
    // hides.
    let ratios: Vec<f64> = base_s.iter().zip(&shard_s).map(|(b, s)| b / s).collect();
    base_s.sort_by(f64::total_cmp);
    shard_s.sort_by(f64::total_cmp);
    let per_sec = |s: &[f64]| interactions as f64 / s[s.len() / 2];
    Measurement {
        baseline: per_sec(&base_s),
        sharded: per_sec(&shard_s),
        best_ratio: ratios.iter().copied().fold(f64::MIN, f64::max),
        speedup: quantile(&ratios, 0.5),
        ratio_q1: quantile(&ratios, 0.25),
        ratio_q3: quantile(&ratios, 0.75),
        workers: effective,
    }
}

struct Measurement {
    baseline: f64,
    sharded: f64,
    best_ratio: f64,
    speedup: f64,
    ratio_q1: f64,
    ratio_q3: f64,
    workers: usize,
}

/// Final configuration of a fresh sharded run — the determinism probe.
fn sharded_final(n: usize, shards: usize, interactions: u64) -> Vec<PackedState> {
    let (protocol, init) = packed(n);
    let mut sim = ShardedSimulator::new(protocol, init, 7, shards);
    sim.run(interactions);
    sim.into_states()
}

struct Row {
    n: usize,
    shards: usize,
    m: Measurement,
}

fn main() -> ExitCode {
    let exp = Experiment::from_env("shard_throughput");
    let interactions: u64 = exp.get("interactions", 20_000_000);
    let samples: usize = exp.get("samples", 3);
    let workers: Option<usize> = exp
        .args()
        .get_str("workers")
        .map(|w| w.parse().expect("workers= must be a positive integer"));
    let sizes: Vec<usize> = exp
        .args()
        .get_str("sizes")
        .unwrap_or("10000,100000,1000000")
        .split(',')
        .map(|s| s.trim().parse().expect("sizes= must be integers"))
        .collect();
    let shard_counts: Vec<usize> = match exp.args().get_str("shards") {
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().expect("shards= must be integers"))
            .collect(),
        // No explicit sweep: honor the SSR_SHARDS override (mirroring
        // SSR_WORKERS), falling back to the default ladder.
        None if std::env::var("SSR_SHARDS").is_ok() => vec![shard::default_shards().get()],
        None => vec![1, 2, 4, 8],
    };
    let cores = population::runner::available_workers().get();

    let mut rows = Vec::new();
    for &n in &sizes {
        for &shards in &shard_counts {
            assert!(shards <= n, "shards={shards} exceeds n={n}");
            let m = measure_pair(n, shards, workers, interactions, samples);
            rows.push(Row { n, shards, m });
        }
    }

    let mut table = Table::new(
        format!(
            "Sharded vs sequential packed throughput, median of {samples} runs ({cores} core(s))"
        ),
        &[
            "n",
            "shards",
            "workers",
            "batched M/s",
            "sharded M/s",
            "speedup",
            "paired q1",
            "paired q3",
        ],
    );
    for r in &rows {
        table.push(vec![
            r.n.to_string(),
            r.shards.to_string(),
            r.m.workers.to_string(),
            f3(r.m.baseline / 1e6),
            f3(r.m.sharded / 1e6),
            f3(r.m.speedup),
            f3(r.m.ratio_q1),
            f3(r.m.ratio_q3),
        ]);
    }
    exp.emit(&table);

    let payload = Json::obj([
        ("cores", cores.into()),
        ("samples", samples.into()),
        ("interactions_per_sample", interactions.into()),
        (
            "measurements",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("n", r.n.into()),
                            ("shards", r.shards.into()),
                            ("workers", r.m.workers.into()),
                            ("batched_interactions_per_sec", r.m.baseline.into()),
                            ("sharded_interactions_per_sec", r.m.sharded.into()),
                            ("speedup", r.m.speedup.into()),
                            ("best_paired_ratio", r.m.best_ratio.into()),
                            ("paired_ratio_q1", r.m.ratio_q1.into()),
                            ("paired_ratio_q3", r.m.ratio_q3.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    exp.write_json("BENCH_shard.json", payload);
    if cores == 1 {
        exp.note(
            "\nnote: single-core environment — every sharded row ran inline \
             (workers = 1), so speedups measure partitioning overhead and \
             locality only, not parallel scaling.",
        );
    }

    if exp.flag("smoke") {
        // With real cores the sharded engine must not lose throughput
        // (0.9 floor). A single-core machine runs inline, where the
        // boundary-pair deferral legitimately costs ~20–25% — the floor
        // there bounds that overhead instead (0.6).
        let floor: f64 = exp.get("floor", if cores > 1 { 0.9 } else { 0.6 });
        // Gate on the highest shard count measured: a shards = 1 row
        // never runs boundary pairs or exchange rounds, so it cannot
        // protect the code paths the smoke exists for.
        let r = rows
            .iter()
            .max_by_key(|r| r.shards)
            .expect("at least one configuration");
        // Gate on the best paired ratio (see `measure_pair`): robust to
        // CPU-steal spikes on shared runners, while a real regression
        // degrades every pair and still trips the floor.
        let ratio = r.m.best_ratio;
        exp.note(&format!(
            "smoke n={} shards={}: best paired sharded/batched ratio {ratio:.2} (floor {floor})",
            r.n, r.shards
        ));
        if ratio < floor {
            eprintln!(
                "SMOKE FAILURE: sharded engine is {ratio:.2}x the sequential baseline \
                 at n={} shards={} (floor {floor})",
                r.n, r.shards
            );
            return ExitCode::FAILURE;
        }
        // Determinism across two identical runs (fixed seed + shards).
        let probe = interactions.min(2_000_000);
        let first = sharded_final(r.n, r.shards, probe);
        let second = sharded_final(r.n, r.shards, probe);
        if first != second {
            eprintln!(
                "SMOKE FAILURE: two identical sharded runs diverged at n={} shards={}",
                r.n, r.shards
            );
            return ExitCode::FAILURE;
        }
        exp.note(&format!(
            "smoke n={} shards={}: determinism OK ({} interactions, bit-identical reruns)",
            r.n, r.shards, probe
        ));
    }
    ExitCode::SUCCESS
}
