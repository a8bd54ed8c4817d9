//! Lemma-level evidence in one artifact: every measured value next to
//! the analytic bound it is held against.
//!
//! Writes `BENCH_lemmas.json` (override with `out=`). Each row of its
//! `results` array is `{claim, n, point, quantity, value, bound, ratio,
//! sims}`: one measured (or, for `states`, analytic) value, the bound
//! it is compared with (`null` where the claim is a shape, not a
//! bound) and `ratio = value / bound`. `sims = 0` marks an analytic
//! row; fit rows over several sizes carry `n = null`.
//!
//! | claim | what runs | bound |
//! |---|---|---|
//! | `lemma_6_7_phase` | `SpaceEfficientRanking` phase durations, n = 256 | `wait_phase_upper + rank_phase_upper`, γ = 1 |
//! | `lemma_9_reset` | one triggered agent → no resetting agent, n = 64…1024 | — (unit `n ln n`, power fit) |
//! | `lemma_14_epidemic` | `OWE(n, m)` completion, n = 1024 | `owe_upper`, γ = 1 |
//! | `lemma_28_coins` | coin deviation from n/2 after warm-up `t0`, `4·t0` | the band `n/(8 ln n)` |
//! | `lemma_30_fastle` | `FastLeLottery` winner counts | `P[unique] ≥ 1/(8e)` |
//! | `states` | analytic state counts against the baselines | — |
//! | `baseline_time` | Burman et al. (adversarial) and naive (clean) stabilization | — (unit `n² log₂ n`) |
//! | `cai_time` | Cai–Izumi–Wada from all-equal | — (unit `n³`, power fit) |
//! | `ablation` | `StableRanking` over `(c_wait, c_live)`, n = 128 | — |
//!
//! Every run fans out over seeds `seed0..seed0+sims` (`seed0=` defaults
//! to 0), so the artifact is a pure function of `seed0`. The measured
//! stabilization times of `StableRanking` and `SpaceEfficientRanking`
//! themselves live in `BENCH_scaling.json`.
//!
//! Usage: `cargo run --release -p bench --bin lemmas -- [seed0=0]
//! [out=BENCH_lemmas.json] [--csv]`

use analysis::bounds::{owe_upper, rank_phase_upper, wait_phase_upper};
use analysis::fit::power_fit;
use analysis::stats::{quantile, Summary};
use baselines::burman::BurmanRanking;
use baselines::cai::CaiRanking;
use baselines::naive::NaiveLeaderRanking;
use bench::measure::{ranking_times, summary};
use bench::{f3, Experiment, Json, Table};
use leader_election::fast::FastLeLottery;
use leader_election::tournament::TournamentLe;
use population::observe::Thresholds;
use population::primitives::coin::CoinPopulation;
use population::primitives::epidemic::Epidemic;
use population::{is_valid_ranking, ranked_count, Simulator};
use ranking::audit::stable_state_bound;
use ranking::space_efficient::SpaceEfficientRanking;
use ranking::stable::StableRanking;
use ranking::Params;

/// One measured value and the bound it is held against.
struct Row {
    claim: &'static str,
    n: Option<u64>,
    point: String,
    quantity: &'static str,
    value: f64,
    bound: Option<f64>,
    sims: u64,
}

/// The rows of every claim, in the order the claims append them.
#[derive(Default)]
struct Rows {
    claim: &'static str,
    sims: u64,
    rows: Vec<Row>,
}

impl Rows {
    /// Start a claim: later rows carry its key and simulation count.
    fn claim(&mut self, claim: &'static str, sims: u64) {
        self.claim = claim;
        self.sims = sims;
    }

    fn push(
        &mut self,
        n: impl Into<Option<usize>>,
        point: &str,
        quantity: &'static str,
        value: f64,
        bound: Option<f64>,
    ) {
        self.rows.push(Row {
            claim: self.claim,
            n: n.into().map(|n| n as u64),
            point: point.to_string(),
            quantity,
            value,
            bound,
            sims: self.sims,
        });
    }

    /// The three rows of a power fit `T = a·n^b` over the claim's sizes.
    fn push_fit(&mut self, points: &[(f64, f64)]) {
        let fit = power_fit(points);
        self.push(None, "fit T = a*n^b", "a", fit.a, None);
        self.push(None, "fit T = a*n^b", "b", fit.b, None);
        self.push(None, "fit T = a*n^b", "r^2", fit.r_squared, None);
    }
}

fn main() {
    let exp = Experiment::from_env("lemmas");
    let mut rows = Rows::default();
    lemma_6_7_phase(&exp, &mut rows);
    lemma_9_reset(&exp, &mut rows);
    lemma_14_epidemic(&exp, &mut rows);
    lemma_28_coins(&exp, &mut rows);
    lemma_30_fastle(&exp, &mut rows);
    states(&mut rows);
    baseline_time(&exp, &mut rows);
    cai_time(&exp, &mut rows);
    ablation(&exp, &mut rows);

    let mut table = Table::new(
        "Lemma evidence: measured value against its bound",
        &[
            "claim", "n", "point", "quantity", "value", "bound", "ratio", "sims",
        ],
    );
    let cell = |x: Option<f64>| x.map_or_else(|| "-".to_string(), f3);
    for r in &rows.rows {
        table.push(vec![
            r.claim.to_string(),
            r.n.map_or_else(|| "-".to_string(), |n| n.to_string()),
            r.point.clone(),
            r.quantity.to_string(),
            f3(r.value),
            cell(r.bound),
            cell(r.bound.map(|b| r.value / b)),
            r.sims.to_string(),
        ]);
    }
    exp.emit(&table);

    let opt = |x: Option<f64>| x.map_or(Json::Null, Json::Num);
    let results = rows.rows.iter().map(|r| {
        Json::obj([
            ("claim", r.claim.into()),
            ("n", r.n.map_or(Json::Null, Json::UInt)),
            ("point", r.point.as_str().into()),
            ("quantity", r.quantity.into()),
            ("value", r.value.into()),
            ("bound", opt(r.bound)),
            ("ratio", opt(r.bound.map(|b| r.value / b))),
            ("sims", r.sims.into()),
        ])
    });
    exp.write_json("BENCH_lemmas.json", Json::arr(results));
}

/// Lemmas 6+7: phase `k` of `SPACEEFFICIENTRANKING` is a waiting period
/// (Lemma 6: `(c_wait + γ)·2^k·n log n`) then a ranking period (Lemma 7:
/// `2n² + 2γ·2^k·n log n`). Phase `k` ends when every rank above
/// `f_{k+1}` is assigned: ranked ≥ `n − f_{k+1}`. Phase 1 also contains
/// the tournament leader election, which the bound does not cover.
fn lemma_6_7_phase(exp: &Experiment, rows: &mut Rows) {
    let (n, sims) = (256usize, 10);
    rows.claim("lemma_6_7_phase", sims);
    let params = Params::new(n);
    let fseq = params.fseq();
    let kmax = fseq.kmax();
    let targets: Vec<u64> = (1..=kmax).map(|k| n as u64 - fseq.f(k + 1)).collect();

    let per_run = exp.run_seeds(sims, |seed| {
        let p = SpaceEfficientRanking::new(&Params::new(n), TournamentLe::for_n(n));
        let init = p.initial();
        let mut sim = Simulator::new(p, init, seed);
        let budget = 500 * (n as u64) * (n as u64);
        let mut crossings = Thresholds::new(|s: &[_]| ranked_count(s) as u64, targets.clone());
        sim.run_observed(budget, n as u64, &mut crossings);
        crossings.into_crossings()
    });

    let n2 = (n * n) as f64;
    for k in 1..=kmax {
        let idx = (k - 1) as usize;
        let durations: Vec<f64> = per_run
            .iter()
            .filter_map(|run| {
                let end = run[idx]?;
                let start = if idx == 0 { 0 } else { run[idx - 1]? };
                Some((end - start) as f64)
            })
            .collect();
        if durations.is_empty() {
            continue;
        }
        let s = Summary::of(&durations);
        let bound = (wait_phase_upper(n as f64, k, params.c_wait(), 1.0)
            + rank_phase_upper(n as f64, k, 1.0))
            / n2;
        let ranks = fseq.phase_ranks(k);
        let point = format!("k={k} ranks={}-{}", ranks.start(), ranks.end());
        rows.push(n, &point, "mean/n^2", s.mean / n2, Some(bound));
        rows.push(n, &point, "median/n^2", s.median / n2, Some(bound));
    }
}

/// Lemma 9: `PROPAGATERESET` takes a legal-looking main configuration
/// with one triggered agent to one with no resetting agent within
/// `O(n log n)` interactions; a power fit should land slightly above 1.
fn lemma_9_reset(exp: &Experiment, rows: &mut Rows) {
    let sims = 20;
    rows.claim("lemma_9_reset", sims);
    let mut points = Vec::new();
    for n in [64usize, 128, 256, 512, 1024] {
        let times: Vec<f64> = exp.run_seeds(sims, |seed| {
            let protocol = StableRanking::new(Params::new(n));
            let mut init = protocol.all_phase(1);
            ranking::stable::reset::trigger_reset(
                protocol.params().r_max(),
                protocol.params().d_max(),
                &mut init[0],
            );
            let mut sim = Simulator::new(protocol, init, seed);
            let budget = 10_000 * (n as u64) * ((n as f64).log2().ceil() as u64);
            sim.run_until(
                |s| s.iter().all(|x| !x.is_resetting()),
                budget,
                (n / 4).max(1) as u64,
            )
            .converged_at()
            .expect("reset must run its course") as f64
        });
        let s = Summary::of(&times);
        let norm = (n as f64) * (n as f64).ln();
        points.push((n as f64, s.mean));
        let point = "one triggered agent";
        rows.push(n, point, "mean/(n ln n)", s.mean / norm, None);
        rows.push(n, point, "median/(n ln n)", s.median / norm, None);
        rows.push(n, point, "max/(n ln n)", s.max / norm, None);
    }
    rows.push_fit(&points);
}

/// Lemma 14: `OWE(n, m)`, one informed agent among `m` participants,
/// completes within `(3n²/m)(ln m + 2γ ln n)` w.p. `1 − 2n^{−γ}`.
fn lemma_14_epidemic(exp: &Experiment, rows: &mut Rows) {
    let (n, sims) = (1024usize, 20);
    rows.claim("lemma_14_epidemic", sims);
    let mut m = 4usize;
    while m <= n {
        let times: Vec<f64> = exp.run_seeds(sims, |seed| {
            let protocol = Epidemic::new(n);
            let init = protocol.initial(m);
            let mut sim = Simulator::new(protocol, init, seed);
            let budget = 100 * (n as u64) * (n as u64);
            sim.run_until(Epidemic::complete, budget, (n / 4).max(1) as u64)
                .converged_at()
                .expect("epidemic must complete within budget") as f64
        });
        let s = Summary::of(&times);
        let unit = (n * n) as f64 / m as f64;
        let bound = Some(owe_upper(n as f64, m as f64, 1.0) / unit);
        let point = format!("m={m}");
        rows.push(n, &point, "mean*m/n^2", s.mean / unit, bound);
        rows.push(n, &point, "p95*m/n^2", quantile(&times, 0.95) / unit, bound);
        rows.push(n, &point, "max*m/n^2", s.max / unit, bound);
        m *= 4;
    }
}

/// Lemma 28: from all tails, after `t ≥ n·log(4·log n)/2` interactions
/// the number of heads lies within `n/(8 ln n)` of `n/2` w.h.p. An
/// agent's coin is heads iff it responded an odd number of times, so
/// `E[#heads] = (1 − e^{−2t/n})·n/2`: the residual bias `e^{−2t/n}·n/2`
/// shrinks with the warm-up while the `Θ(√n)` fluctuation stays. The
/// horizons are `t0 = n·log₂(4·log₂ n)/2` and `4·t0`.
fn lemma_28_coins(exp: &Experiment, rows: &mut Rows) {
    let sims = 50;
    rows.claim("lemma_28_coins", sims);
    for n in [256usize, 1024, 4096, 16384] {
        let log2n = (n as f64).log2();
        let t0 = ((n as f64) * (4.0 * log2n).log2() / 2.0).ceil() as u64;
        let band = (n as f64) / 2.0 / (4.0 * (n as f64).ln());
        for (label, warmup) in [("t0", t0), ("4*t0", 4 * t0)] {
            let devs: Vec<f64> = exp.run_seeds(sims, |seed| {
                let protocol = CoinPopulation::new(n);
                let init = protocol.all_tails();
                let mut sim = Simulator::new(protocol, init, seed);
                sim.run_batched(warmup);
                let heads = CoinPopulation::heads_count(sim.states()) as f64;
                (heads - n as f64 / 2.0).abs()
            });
            let s = Summary::of(&devs);
            let bias = (-2.0 * warmup as f64 / n as f64).exp() * n as f64 / 2.0;
            let inside = devs.iter().filter(|&&d| d <= band).count();
            rows.push(n, label, "t", warmup as f64, None);
            rows.push(n, label, "residual bias", bias, Some(band));
            rows.push(n, label, "mean |dev|", s.mean, Some(band));
            rows.push(n, label, "max |dev|", s.max, Some(band));
            rows.push(n, label, "runs within band", inside as f64, None);
        }
    }
}

/// Lemma 30: `FASTLEADERELECTION` elects a unique leader w.p. at least
/// `1/(8e) ≈ 0.046` (a lower bound: `ratio ≥ 1` holds the claim).
fn lemma_30_fastle(exp: &Experiment, rows: &mut Rows) {
    let trials = 1000;
    rows.claim("lemma_30_fastle", trials);
    for n in [64usize, 256, 1024] {
        let winners: Vec<usize> = exp.run_seeds(trials, |seed| {
            let protocol = FastLeLottery::new(n, 4.0);
            let init = protocol.initial();
            let mut sim = Simulator::new(protocol, init, seed);
            sim.run_until(FastLeLottery::all_decided, 10_000 * n as u64, n as u64);
            FastLeLottery::winner_count(sim.states())
        });
        let share = |pred: fn(usize) -> bool| {
            winners.iter().filter(|&&w| pred(w)).count() as f64 / trials as f64
        };
        let lower = 1.0 / (8.0 * std::f64::consts::E);
        let mean = winners.iter().sum::<usize>() as f64 / trials as f64;
        rows.push(n, "lottery", "P[unique]", share(|w| w == 1), Some(lower));
        rows.push(n, "lottery", "P[none]", share(|w| w == 0), None);
        rows.push(n, "lottery", "P[multiple]", share(|w| w > 1), None);
        rows.push(n, "lottery", "E[winners]", mean, None);
    }
}

/// The state-complexity comparison of Sections I–II, analytic: the
/// paper's `n + O(log² n)` against Burman et al.'s `n + Ω(n)`. The
/// `SpaceEfficientRanking` count uses the tournament leader election
/// (`O(log³ n)` states) in place of the paper's black box.
fn states(rows: &mut Rows) {
    rows.claim("states", 0);
    for exp2 in [8u32, 10, 12, 16, 20] {
        let n = 1usize << exp2;
        let params = Params::new(n);
        let ours = stable_state_bound(&params);
        let se_overhead = 2 * u64::from(params.wait_max())
            + 2 * u64::from(params.coin_target())
            + TournamentLe::for_n(n).state_count();
        let burman = BurmanRanking::new(n).state_count();
        let n64 = n as u64;
        for (point, quantity, count) in [
            ("StableRanking", "total", ours.total()),
            ("StableRanking", "overhead", ours.overhead()),
            ("SpaceEfficientRanking", "total", n64 + se_overhead),
            ("Burman et al.", "total", burman),
            ("Burman et al.", "overhead", burman - n64),
            ("NaiveLeader", "total", 2 * n64 + 1),
            ("Cai et al.", "total", n64),
        ] {
            rows.push(n, point, quantity, count as f64, None);
        }
    }
}

/// Stabilization time of the leader-based baselines, in the paper's
/// optimal unit `n² log₂ n`: Burman et al. from adversarial
/// configurations, the naive leader ranking from its clean start.
fn baseline_time(exp: &Experiment, rows: &mut Rows) {
    let sims = 5;
    rows.claim("baseline_time", sims);
    for exp2 in 5..=8 {
        let n = 1usize << exp2;
        let norm = (n * n) as f64 * (n as f64).log2();
        let budget = (8000.0 * norm) as u64;
        let check = n as u64;
        let burman = summary(&ranking_times(exp, sims, budget, check, |seed| {
            let p = BurmanRanking::new(n);
            let init = p.adversarial(seed * 17 + 3);
            (p, init)
        }));
        let naive = summary(&ranking_times(exp, sims, budget, check, |_| {
            let p = NaiveLeaderRanking::new(n);
            let init = p.initial();
            (p, init)
        }));
        let mean = |s: Option<Summary>| s.map_or(f64::NAN, |s| s.mean / norm);
        let q = "mean/(n^2 log2 n)";
        rows.push(n, "Burman et al. adversarial", q, mean(burman), None);
        rows.push(n, "NaiveLeader clean", q, mean(naive), None);
    }
}

/// The Cai–Izumi–Wada baseline from the all-equal worst case runs in
/// `Θ(n³)` interactions, the gap the paper's `O(n² log n)` closes: the
/// fitted exponent should land near 3.
fn cai_time(exp: &Experiment, rows: &mut Rows) {
    let sims = 10;
    rows.claim("cai_time", sims);
    let mut points = Vec::new();
    for n in [8usize, 16, 32, 64, 128] {
        let budget = 400 * (n as u64).pow(3);
        let times = ranking_times(exp, sims, budget, n as u64, |_| {
            let protocol = CaiRanking::new(n);
            let init = protocol.all_equal();
            (protocol, init)
        });
        assert!(
            times.iter().all(|t| t.is_some()),
            "Cai protocol must converge within budget"
        );
        let s = summary(&times).expect("all runs completed");
        let n3 = (n as f64).powi(3);
        points.push((n as f64, s.mean));
        rows.push(n, "all_equal", "mean/n^3", s.mean / n3, None);
        rows.push(n, "all_equal", "median/n^3", s.median / n3, None);
        rows.push(n, "all_equal", "max/n^3", s.max / n3, None);
    }
    rows.push_fit(&points);
}

/// The paper's two tunable constants: `c_wait` (how long the leader
/// waits between phases) and `c_live` (the liveness and lottery budget
/// `L_max`), around the simulation's `(2, 4)`, from the clean start.
fn ablation(exp: &Experiment, rows: &mut Rows) {
    let (n, sims) = (128usize, 5);
    rows.claim("ablation", sims);
    let norm = (n * n) as f64 * (n as f64).log2();
    let mut configs: Vec<(f64, f64)> = [0.5, 1.0, 2.0, 4.0].map(|w| (w, 4.0)).to_vec();
    configs.extend([2.5, 3.0, 8.0].map(|l| (2.0, l)));
    let budget = (8000.0 * (n * n) as f64 * (n as f64).log2()) as u64;
    for (c_wait, c_live) in configs {
        let results = exp.run_seeds(sims, |seed| {
            let params = Params::new(n).with_c_wait(c_wait).with_c_live(c_live);
            let protocol = StableRanking::new(params);
            let init = protocol.initial();
            let mut sim = Simulator::new(protocol, init, seed);
            let t = sim
                .run_until(is_valid_ranking, budget, n as u64)
                .converged_at();
            (t, sim.protocol().resets_triggered())
        });
        let times: Vec<Option<u64>> = results.iter().map(|(t, _)| *t).collect();
        let fails = times.iter().filter(|t| t.is_none()).count();
        let resets: u64 = results.iter().map(|(_, r)| *r).sum();
        let mean = summary(&times).map_or(f64::NAN, |s| s.mean / norm);
        let point = format!("c_wait={c_wait} c_live={c_live}");
        rows.push(n, &point, "T/(n^2 log2 n)", mean, None);
        rows.push(n, &point, "fail rate", fails as f64 / sims as f64, None);
        rows.push(n, &point, "resets/run", resets as f64 / sims as f64, None);
    }
}
