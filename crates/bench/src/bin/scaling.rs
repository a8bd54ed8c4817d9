//! E3/E4 — scaling-law fits for Theorems 1 and 2.
//!
//! Measures stabilization interactions across a geometric range of `n`
//! and fits `T = a·n^b`: both theorems predict `b ≈ 2` (up to the
//! `log n` factor, which pushes the fitted exponent slightly above 2),
//! in contrast to the Cai baseline's `b ≈ 3` (the `cai_time` rows of
//! `BENCH_lemmas.json`, written by the `lemmas` binary).
//! Additionally reports `T/(n² log₂ n)`, which the theorems predict to
//! be roughly constant.
//!
//! Writes `BENCH_scaling.json` (override with `out=`) recording both
//! fits and the per-size rows, so exponent regressions are caught
//! automatically.
//!
//! Usage: `cargo run --release -p bench --bin scaling -- [sims=8]
//! [max_exp=8] [out=BENCH_scaling.json] [--csv]`

use analysis::fit::power_fit;
use bench::measure::{completed, ranking_times, summary};
use bench::{f3, Experiment, Json, Table};
use leader_election::tournament::TournamentLe;
use ranking::space_efficient::SpaceEfficientRanking;
use ranking::stable::StableRanking;
use ranking::Params;

fn main() {
    let exp = Experiment::from_env("scaling");
    let sims = exp.sims(8);
    let max_exp: u32 = exp.get("max_exp", 8);
    let sizes: Vec<usize> = (4..=max_exp).map(|e| 1usize << e).collect();

    let stable = run_fit(
        &exp,
        &format!("Theorem 2: StableRanking stabilization, unit n^2 log2 n ({sims} sims)"),
        &sizes,
        sims,
        |n, seed| {
            let protocol = StableRanking::new(Params::new(n));
            let init = protocol.adversarial_uniform(seed * 101 + 7);
            (protocol, init)
        },
    );

    let space_efficient = run_fit(
        &exp,
        &format!("Theorem 1: SpaceEfficientRanking, unit n^2 log2 n ({sims} sims)"),
        &sizes,
        sims,
        |n, _seed| {
            let protocol = SpaceEfficientRanking::new(&Params::new(n), TournamentLe::for_n(n));
            let init = protocol.initial();
            (protocol, init)
        },
    );

    let payload = Json::obj([
        ("sims", sims.into()),
        (
            "sizes",
            Json::Arr(sizes.iter().map(|&n| n.into()).collect()),
        ),
        ("stable_ranking", stable),
        ("space_efficient_ranking", space_efficient),
    ]);
    exp.write_json("BENCH_scaling.json", payload);
}

/// Measure, emit the table, and return the JSON section for this
/// protocol (rows + power fit).
fn run_fit<P, F>(exp: &Experiment, title: &str, sizes: &[usize], sims: u64, make: F) -> Json
where
    P: population::Protocol,
    P::State: population::RankOutput + Send,
    F: Fn(usize, u64) -> (P, Vec<P::State>) + Sync,
{
    let mut table = Table::new(title, &["n", "mean", "median", "completed"]);
    let mut points = Vec::new();
    for &n in sizes {
        let budget = (10_000.0 * (n * n) as f64 * (n as f64).log2()) as u64;
        let times = ranking_times(exp, sims, budget, n as u64, |seed| make(n, seed));
        let done = completed(&times);
        let norm = (n * n) as f64 * (n as f64).log2();
        // A size where no seed completed still gets a row — an all-"-"
        // line is the signal that a budget regression ate the point.
        match summary(&times) {
            Some(s) => {
                points.push((n as f64, s.mean));
                table.push(vec![
                    n.to_string(),
                    f3(s.mean / norm),
                    f3(s.median / norm),
                    format!("{}/{sims}", done.len()),
                ]);
            }
            None => table.push(vec![
                n.to_string(),
                "-".into(),
                "-".into(),
                format!("0/{sims}"),
            ]),
        }
    }
    exp.emit(&table);
    let fit = power_fit(&points);
    exp.note(&format!(
        "power fit: T ~ {:.2} * n^{:.3} (R^2 = {:.4}) — expected exponent ~2.1-2.5",
        fit.a, fit.b, fit.r_squared
    ));
    Json::obj([
        ("rows", Experiment::table_json(&table)),
        (
            "power_fit",
            Json::obj([
                ("a", fit.a.into()),
                ("b", fit.b.into()),
                ("r_squared", fit.r_squared.into()),
            ]),
        ),
    ])
}
