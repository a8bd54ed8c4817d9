//! E14 — dynamic-population benchmark: ranking quality under churn.
//!
//! Two experiments over the `DynamicPopulation` engine
//! (see `docs/DYNAMICS.md`):
//!
//! 1. **Steady state**: for each arrival rate λ (joins per 10⁶
//!    interactions), run an M/M/∞ churn process whose mean lifetime is
//!    chosen so the equilibrium population sits at the starting `n`
//!    (`lifetime = n·10⁶/λ`), warm up past stabilization, then sample
//!    the fraction of live agents holding a valid (in-range, distinct)
//!    rank. The curve of that fraction against the normalized churn
//!    rate λ/n is the headline: with rank leasing, departures hand
//!    their ranks to arrivals and validity stays near 1 until churn
//!    outpaces repair.
//!
//! 2. **Churn-burst re-stabilization lag**: converge a quiescent run,
//!    then replace a fraction of the population at once
//!    (`inject_burst`) and measure interactions until every live agent
//!    is validly ranked again — once with rank leasing (arrivals adopt
//!    the freed ranks; the lag collapses) and once without (arrivals
//!    are fresh electors whose presence forces detection → reset →
//!    full re-ranking; the lag is a whole stabilization).
//!
//! `--smoke` runs the CI gate instead: zero-churn bit-equivalence
//! against the fixed-n engine on both execution shapes (enum, kernel),
//! bit-identical rerun determinism under churn, and a steady-state
//! validity floor at modest λ. Any failure exits nonzero.
//!
//! Writes `BENCH_dyn.json` (override with `out=`).
//!
//! Usage: `cargo run --release -p bench --bin dynamic --
//! [n=64] [lambdas=0,25,50,100,200,400] [burst_frac=0.25] [seed=1]
//! [--smoke] [--csv]`

use bench::{f3, Experiment, Json, Table};
use dynamic::{ChurnConfig, DynamicPopulation};
use population::{Packed, Simulator};
use ranking::stable::StableRanking;
use ranking::Params;

/// Warmup horizon: clean-start stabilization reaches ~90% ranked by
/// 7·n² (BENCH_fig2) but the last stragglers take much longer — 120·n²
/// puts the zero-churn baseline at full validity before sampling
/// starts.
const WARMUP_N2: u64 = 120;

/// Steady-state sampling: this many samples, one per n² interactions.
const SAMPLES: u64 = 32;

fn die(msg: &str) -> ! {
    eprintln!("dynamic: {msg}");
    std::process::exit(1)
}

/// The churn config for arrival rate `lambda` with the equilibrium
/// population pinned at `n` (M/M/∞: live ≈ λ·lifetime).
fn config_for(n: usize, lambda: f64) -> ChurnConfig {
    if lambda > 0.0 {
        ChurnConfig::poisson(lambda, n as f64 * 1.0e6 / lambda)
    } else {
        ChurnConfig::quiescent()
    }
}

struct SteadyPoint {
    valid_mean: f64,
    valid_min: f64,
    live_mean: f64,
    joins: u64,
    leaves: u64,
    epochs: u64,
}

/// One steady-state measurement at arrival rate `lambda`.
fn steady_state(n: usize, lambda: f64, seed: u64) -> SteadyPoint {
    let mut engine =
        DynamicPopulation::<StableRanking>::new(Params::new(n), config_for(n, lambda), seed);
    let n2 = (n * n) as u64;
    engine.run(WARMUP_N2 * n2);
    let (mut valid_sum, mut valid_min, mut live_sum) = (0.0, 1.0f64, 0u64);
    for _ in 0..SAMPLES {
        engine.run(n2);
        let v = engine.fraction_valid();
        valid_sum += v;
        valid_min = valid_min.min(v);
        live_sum += engine.live() as u64;
    }
    let metrics = engine.metrics().snapshot();
    let counter = |name: &str| metrics.counter(name).unwrap_or(0);
    SteadyPoint {
        valid_mean: valid_sum / SAMPLES as f64,
        valid_min,
        live_mean: live_sum as f64 / SAMPLES as f64,
        joins: counter("dyn_joins"),
        leaves: counter("dyn_leaves"),
        epochs: counter("dyn_epochs"),
    }
}

/// Converge a quiescent run, hit it with a burst replacing
/// `burst_frac` of the population, and count interactions until fully
/// valid again. `None` = not recovered within the budget.
fn burst_lag(n: usize, burst_frac: f64, lease: bool, seed: u64) -> Option<u64> {
    let mut config = ChurnConfig::quiescent();
    config.rank_lease = lease;
    let mut engine = DynamicPopulation::<StableRanking>::new(Params::new(n), config, seed);
    let n2 = (n * n) as u64;
    let budget = 400 * n2;
    while engine.fraction_valid() < 1.0 {
        if engine.interactions() > budget {
            die("quiescent run failed to stabilize inside the budget");
        }
        engine.run(n2);
    }
    let k = ((n as f64 * burst_frac) as usize).max(1);
    engine.inject_burst(k, k);
    let start = engine.interactions();
    while engine.fraction_valid() < 1.0 {
        if engine.interactions() - start > budget {
            return None;
        }
        engine.run((n2 / 16).max(1));
    }
    Some(engine.interactions() - start)
}

/// The CI gate (`--smoke`): cheap, deterministic, loud on failure.
fn smoke(exp: &Experiment) {
    let n = 32;
    let seed = 7;
    let steps = 50_000;

    // Gate 1: zero-churn runs are bit-for-bit the fixed-n engine, on
    // both execution shapes.
    let params = || Params::new(n);
    let quiet = ChurnConfig::quiescent;
    {
        let mut d = DynamicPopulation::<StableRanking>::new(params(), quiet(), seed);
        let p = StableRanking::new(params());
        let mut s = Simulator::new(p.clone(), p.initial(), seed);
        d.run(steps);
        s.run_batched(steps);
        if d.states() != s.states() {
            die("smoke: zero-churn enum trajectory diverged from Simulator");
        }
    }
    {
        let mut d = DynamicPopulation::<Packed<StableRanking>>::new(params(), quiet(), seed);
        let p = Packed(StableRanking::new(params()));
        let init = p.pack_all(&p.inner().initial());
        let mut s = Simulator::new(p, init, seed);
        d.run(steps);
        s.run_batched(steps);
        if d.states() != s.states() {
            die("smoke: zero-churn kernel trajectory diverged from Simulator");
        }
    }
    exp.note("smoke: zero-churn equivalence holds on enum and kernel");

    // Gate 2: a churning run is a pure function of the seed.
    let churny = || {
        let mut e = DynamicPopulation::<StableRanking>::new(
            params(),
            ChurnConfig::poisson(200.0, n as f64 * 1.0e6 / 200.0),
            seed,
        );
        e.run(100_000);
        e
    };
    let (a, b) = (churny(), churny());
    if a.states() != b.states() || a.ids() != b.ids() || a.interactions() != b.interactions() {
        die("smoke: churn rerun was not bit-identical");
    }
    exp.note("smoke: churn rerun is bit-identical");

    // Gate 3: steady-state validity floor at modest churn. The run is
    // deterministic at this (n, λ, seed) — measured 0.969; the 0.7
    // floor leaves a wide margin while still catching any regression
    // that breaks rank leasing or epoch handoff.
    let point = steady_state(n, 25.0, seed);
    if point.valid_mean < 0.7 {
        die(&format!(
            "smoke: steady-state validity {:.3} under λ=25 fell below the 0.7 floor",
            point.valid_mean
        ));
    }
    exp.note(&format!(
        "smoke: steady-state validity {:.3} at λ=25 (floor 0.7), live mean {:.1}",
        point.valid_mean, point.live_mean
    ));
    println!("dynamic smoke: all gates green");
}

fn main() {
    let exp = Experiment::from_env("dynamic");
    if exp.flag("smoke") {
        smoke(&exp);
        return;
    }

    let n: usize = exp.get("n", 64);
    let seed: u64 = exp.get("seed", 1);
    let burst_frac: f64 = exp.get("burst_frac", 0.25);
    let lambdas: Vec<f64> = exp
        .args()
        .get_str("lambdas")
        .unwrap_or("0,25,50,100,200,400")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    if lambdas.is_empty() {
        die("lambdas= parsed to an empty list");
    }

    // Experiment 1: steady-state validity vs normalized churn rate.
    let mut table = Table::new(
        format!("Steady-state ranking validity under churn (n={n}, window {SAMPLES}·n²)"),
        &[
            "λ (/1e6)",
            "λ/n (/1e6)",
            "valid mean",
            "valid min",
            "live mean",
            "joins",
            "leaves",
            "epochs",
        ],
    );
    let mut steady = Vec::new();
    for &lambda in &lambdas {
        let p = steady_state(n, lambda, seed);
        table.push(vec![
            format!("{lambda}"),
            f3(lambda / n as f64),
            f3(p.valid_mean),
            f3(p.valid_min),
            format!("{:.1}", p.live_mean),
            p.joins.to_string(),
            p.leaves.to_string(),
            p.epochs.to_string(),
        ]);
        steady.push(Json::obj([
            ("lambda_per_million", lambda.into()),
            ("lambda_over_n", (lambda / n as f64).into()),
            ("valid_mean", p.valid_mean.into()),
            ("valid_min", p.valid_min.into()),
            ("live_mean", p.live_mean.into()),
            ("joins", p.joins.into()),
            ("leaves", p.leaves.into()),
            ("epochs", p.epochs.into()),
        ]));
    }
    exp.emit(&table);

    // Experiment 2: burst re-stabilization lag, lease on vs off.
    let mut burst_table = Table::new(
        format!(
            "Re-stabilization lag after a churn burst replacing {:.0}% of n={n}",
            burst_frac * 100.0
        ),
        &["rank lease", "lag (interactions)", "lag / n²"],
    );
    let mut burst = Vec::new();
    for lease in [true, false] {
        let lag = burst_lag(n, burst_frac, lease, seed);
        let n2 = (n * n) as f64;
        burst_table.push(vec![
            lease.to_string(),
            lag.map_or("unrecovered".into(), |l| l.to_string()),
            lag.map_or("-".into(), |l| f3(l as f64 / n2)),
        ]);
        burst.push(Json::obj([
            ("rank_lease", lease.into()),
            ("lag", lag.map_or(Json::Null, Json::from)),
            (
                "lag_over_n2",
                lag.map_or(Json::Null, |l| (l as f64 / n2).into()),
            ),
        ]));
    }
    exp.emit(&burst_table);

    let payload = Json::obj([
        ("n", n.into()),
        ("seed", seed.into()),
        ("warmup_n2", WARMUP_N2.into()),
        ("samples", SAMPLES.into()),
        ("burst_frac", burst_frac.into()),
        ("steady_state", Json::Arr(steady)),
        ("burst", Json::Arr(burst)),
    ]);
    exp.write_json("BENCH_dyn.json", payload);
    exp.note(
        "\nexpected shape: with rank leasing, validity stays near 1.0 until the \
         arrival gap approaches the repair time, and a lease-on burst repairs in \
         ~0 interactions while a lease-off burst pays a full detection → reset → \
         re-ranking cycle.",
    );
}
