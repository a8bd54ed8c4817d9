//! E14 — Byzantine-agent benchmark: honest-stabilization time vs `k`
//! and `n` per adversary strategy, plus the exhaustive tiny-`n`
//! classification of each strategy.
//!
//! Each run starts from the clean leader-election start with `k`
//! persistent adversaries *infiltrating* `n` honest agents
//! (`scenarios::byzantine::Byzantine` over the packed word path) and
//! measures the interactions until the honest agents first hold valid
//! distinct ranks (`population::HonestRanking`) — the only
//! stabilization a population with persistent adversaries can offer.
//! Strategies are the canonical six (`ranking_byz::STRATEGIES`):
//! `recorrupt`, `rank_squatter`, `mimic`, `coin_jammer`, `lurker`,
//! `crash`.
//!
//! With two or more sizes the binary fits `t ≈ a·n^b` per
//! `(strategy, k)` over the per-size mean honest-stabilization times.
//! Unless `--no-classify`, it also runs the exhaustive model checker
//! at tiny `n` (`scenarios::byzantine::classify`) in **both placement
//! models** and reports each strategy's verdict: *tolerated* (honest
//! validity reachable from every reachable configuration, all
//! absorbing configurations honest-valid), *livelocked* (some
//! reachable configuration can never become honest-valid), or
//! *safety-violating* (a reachable silent configuration with invalid
//! honest ranks). `recorrupt` is classified with its full state-space
//! branching universe (`ranking_byz::recorrupt_exhaustive`), so its
//! verdict would quantify over every rewrite the adversary could
//! choose — in practice that universe exceeds any affordable cap and
//! the row honestly reads "inconclusive".
//!
//! Measured shape (committed `BENCH_byz.json`; discussion in
//! `docs/BENCHMARKS.md`): `crash`, `lurker`, and `coin_jammer` are
//! tolerated — honest stabilization stays in the Theorem 2
//! `Θ(n² log n)` band at a constant-factor premium (fitted exponents
//! ≈ 1.4–2.7 on 4 sizes). The duplicate-forcers (`rank_squatter`,
//! `mimic`) and the reset-seeding `recorrupt` never honest-stabilize
//! within budget at any measured (n, k): possibilistically tolerated
//! (the classification shows honest validity stays reachable),
//! probabilistically starved — each ranking round must outrace
//! adversary-minted duplicate-meeting resets that recur every
//! `Θ(n²)` interactions or faster. The replacement-model rows prove
//! the structural livelock motivating the infiltration default:
//! under crash/lurker replacement **every** reachable configuration
//! is a dead end (the phase geometry hard-codes `n` rank takers).
//!
//! Writes `BENCH_byz.json` (override with `out=`).
//!
//! Usage: `cargo run --release -p bench --bin byzantine --
//! [sizes=16,24,32,48] [ks=1,2,4] [sims=5] [budget_c=3000] [squat=1]
//! [classify_n=3] [classify_cap=500000] [classify_cap_recorrupt=20000]
//! [classify_kinds=a,b,...] [seed0=0] [out=BENCH_byz.json]
//! [--no-classify] [--csv]`
//!
//! Every run is the sequential simulator's; `shards=` is refused (the
//! sharded API it selected ran the same engine, so it changed no field).
//! `squat=R` points the rank squatter at rank `R` (default 1, the
//! leader's own rank — the most contested choice).

use analysis::fit::power_fit;
use analysis::stats::Summary;
use bench::{f3, Experiment, Json, Table};
use population::Packed;
use ranking::stable::StableRanking;
use ranking::Params;
use scenarios::byzantine::{run_honest, Byzantine};
use scenarios::{classify, ranking_byz};

/// The strategy kinds measured, in table order (the canonical list).
const KINDS: [&str; 6] = ranking_byz::STRATEGIES;

/// Wrapper seed for a run: independent of (but derived from) the
/// scheduler seed, so adversary placement varies across sims.
fn wrapper_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9).wrapping_add(0xB42)
}

/// One honest-stabilization measurement on the packed path.
fn run_one(kind: &str, n: usize, k: usize, seed: u64, budget: u64, squat: u64) -> Option<u64> {
    let protocol = StableRanking::new(Params::new(n));
    let strategy: Box<dyn scenarios::Strategy<Packed<StableRanking>>> = if kind == "rank_squatter" {
        Box::new(ranking_byz::rank_squatter_packed(squat))
    } else {
        ranking_byz::standard_packed(kind, &protocol)
    };
    let packed = Packed(protocol);
    let init = packed.pack_all(&packed.inner().initial());
    let byz = Byzantine::new(packed, strategy, k, wrapper_seed(seed));
    let init = byz.init(init);
    let mut sim = population::Simulator::new(byz, init, seed);
    run_honest(&mut sim, budget, n as u64)
}

fn main() {
    let exp = Experiment::from_env("byzantine");
    let sims = exp.sims(5);
    let budget_c: f64 = exp.get("budget_c", 3000.0);
    if exp.args().get_str("shards").is_some() {
        eprintln!("byzantine: shards= is no longer an option (every run is sequential); drop it");
        std::process::exit(1);
    }
    let squat: u64 = exp.get("squat", 1);
    let sizes: Vec<usize> = exp
        .args()
        .get_str("sizes")
        .unwrap_or("16,24,32,48")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let ks: Vec<usize> = exp
        .args()
        .get_str("ks")
        .unwrap_or("1,2,4")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    assert!(!sizes.is_empty(), "sizes= parsed to an empty list");
    assert!(!ks.is_empty(), "ks= parsed to an empty list");

    let mut table = Table::new(
        format!("Honest-stabilization time by strategy, unit n^2 log2 n ({sims} sims)"),
        &["strategy", "n", "k", "stabilized", "mean", "median", "max"],
    );
    let mut measurements = Vec::new();
    let mut fit_points: Vec<(&'static str, usize, usize, f64)> = Vec::new();
    for kind in KINDS {
        for &n in &sizes {
            for &k in &ks {
                if k >= n {
                    continue;
                }
                let budget = (budget_c * (n * n) as f64 * (n as f64).log2()).ceil() as u64;
                let times: Vec<Option<u64>> =
                    exp.run_seeds(sims, |seed| run_one(kind, n, k, seed, budget, squat));
                let hit: Vec<f64> = times.iter().flatten().map(|&t| t as f64).collect();
                let norm = (n * n) as f64 * (n as f64).log2();
                let row = if hit.is_empty() {
                    vec![
                        kind.to_string(),
                        n.to_string(),
                        k.to_string(),
                        format!("0/{sims}"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]
                } else {
                    let s = Summary::of(&hit);
                    // Only fully-uncensored points enter the power
                    // fits: a mean over the runs that happened to beat
                    // the budget is right-censored and would bias the
                    // fitted exponent downward with no marker in the
                    // artifact.
                    if s.mean > 0.0 && hit.len() as u64 == sims {
                        fit_points.push((kind, n, k, s.mean));
                    }
                    vec![
                        kind.to_string(),
                        n.to_string(),
                        k.to_string(),
                        format!("{}/{sims}", hit.len()),
                        f3(s.mean / norm),
                        f3(s.median / norm),
                        f3(s.max / norm),
                    ]
                };
                table.push(row);
                measurements.push(Json::obj([
                    ("strategy", kind.into()),
                    ("n", n.into()),
                    ("k", k.into()),
                    ("stabilized", hit.len().into()),
                    (
                        "times",
                        Json::Arr(
                            times
                                .iter()
                                .map(|t| t.map_or(Json::Null, Json::from))
                                .collect(),
                        ),
                    ),
                ]));
            }
        }
    }
    exp.emit(&table);

    // Power fits: mean honest-stabilization ≈ a·n^b per (strategy, k).
    // Tolerated strategies should land in the Θ(n² log n) band (b a
    // little above 2, like the fault-free protocol and the recovery
    // study); a much larger exponent is the quantitative signature of a
    // strategy the honest population must out-race.
    let mut fits = Vec::new();
    if sizes.len() >= 2 {
        let mut fit_table = Table::new(
            "Honest-stabilization scaling: mean ~ a * n^b per (strategy, k), \
             fully-stabilized points only"
                .to_string(),
            &["strategy", "k", "a", "exponent b", "R^2", "points"],
        );
        for kind in KINDS {
            for &k in &ks {
                let points: Vec<(f64, f64)> = fit_points
                    .iter()
                    .filter(|(s, _, kk, _)| *s == kind && *kk == k)
                    .map(|&(_, n, _, mean)| (n as f64, mean))
                    .collect();
                if points.len() < 2 {
                    continue;
                }
                let fit = power_fit(&points);
                fit_table.push(vec![
                    kind.to_string(),
                    k.to_string(),
                    format!("{:.4e}", fit.a),
                    f3(fit.b),
                    f3(fit.r_squared),
                    points.len().to_string(),
                ]);
                fits.push(Json::obj([
                    ("strategy", kind.into()),
                    ("k", k.into()),
                    ("a", fit.a.into()),
                    ("b", fit.b.into()),
                    ("r_squared", fit.r_squared.into()),
                    ("points", points.len().into()),
                ]));
            }
        }
        if !fit_table.rows.is_empty() {
            exp.emit(&fit_table);
        }
    }

    // Exhaustive classification at tiny n: explore every configuration
    // reachable from the clean start under every adversary behavior,
    // in both placement models. Infiltration is what the curves above
    // measure; replacement exists to *prove* the structural livelock
    // (the protocol's phase geometry hard-codes its participant count,
    // so a non-participating adversary that replaces an honest agent
    // leaves the leader waiting for a phase agent that cannot exist).
    let mut classifications = Vec::new();
    if !exp.flag("no-classify") {
        let cn: usize = exp.get("classify_n", 3);
        // Pin-style strategies (fixed disguise) conclude at ~325k
        // reachable configurations with 3 honest agents; participating
        // strategies (mimic, coin_jammer) exceed any practical cap on
        // the infiltrate model and honestly report "inconclusive".
        let cap: usize = exp.get("classify_cap", 500_000);
        // The fully nondeterministic recorrupt branches over the whole
        // state space at every touch; its reachable set dwarfs the
        // others', so it gets its own (much smaller) default cap and is
        // expected to report "inconclusive" — its verdict rests on the
        // probabilistic evidence above.
        let cap_recorrupt: usize = exp.get("classify_cap_recorrupt", 20_000);
        let kinds: Vec<String> = exp
            .args()
            .get_str("classify_kinds")
            .map(|s| s.split(',').map(|k| k.trim().to_string()).collect())
            .unwrap_or_else(|| KINDS.iter().map(|k| k.to_string()).collect());
        let mut ctable = Table::new(
            format!("Exhaustive classification at {cn} honest agents, k = 1 (cap {cap})"),
            &[
                "strategy",
                "model",
                "verdict",
                "reachable",
                "silent",
                "silent bad",
                "unrecoverable",
            ],
        );
        for kind in &kinds {
            for model in ["infiltrate", "replace"] {
                let protocol = StableRanking::new(Params::new(cn));
                let init = protocol.initial();
                // recorrupt needs its branching universe for soundness.
                let strategy: Box<dyn scenarios::Strategy<StableRanking>> = if kind == "recorrupt" {
                    Box::new(ranking_byz::recorrupt_exhaustive(&protocol))
                } else {
                    ranking_byz::standard(kind, &protocol)
                };
                let byz = if model == "infiltrate" {
                    Byzantine::new(protocol, strategy, 1, 1)
                } else {
                    Byzantine::replacing(protocol, strategy, 1, 1)
                };
                let init = byz.init(init);
                let kind_cap = if kind == "recorrupt" {
                    cap_recorrupt
                } else {
                    cap
                };
                let (row, json) = match classify(&byz, init, kind_cap) {
                    Some(c) => (
                        vec![
                            kind.clone(),
                            model.to_string(),
                            c.verdict.label().to_string(),
                            c.reachable.to_string(),
                            c.silent.to_string(),
                            c.silent_invalid.to_string(),
                            c.unrecoverable.to_string(),
                        ],
                        Json::obj([
                            ("strategy", kind.as_str().into()),
                            ("model", model.into()),
                            ("n", cn.into()),
                            ("verdict", c.verdict.label().into()),
                            ("reachable", c.reachable.into()),
                            ("silent", c.silent.into()),
                            ("silent_invalid", c.silent_invalid.into()),
                            ("unrecoverable", c.unrecoverable.into()),
                        ]),
                    ),
                    None => (
                        vec![
                            kind.clone(),
                            model.to_string(),
                            format!("inconclusive (cap {kind_cap} hit)"),
                            "-".into(),
                            "-".into(),
                            "-".into(),
                            "-".into(),
                        ],
                        Json::obj([
                            ("strategy", kind.as_str().into()),
                            ("model", model.into()),
                            ("n", cn.into()),
                            ("verdict", "inconclusive".into()),
                        ]),
                    ),
                };
                ctable.push(row);
                classifications.push(json);
            }
        }
        exp.emit(&ctable);
    }

    let payload = Json::obj([
        (
            "sizes",
            Json::Arr(sizes.iter().map(|&n| n.into()).collect()),
        ),
        ("ks", Json::Arr(ks.iter().map(|&k| k.into()).collect())),
        ("sims", sims.into()),
        ("budget_c", budget_c.into()),
        ("check_every", "n".into()),
        ("engine", "sequential".into()),
        ("measurements", Json::Arr(measurements)),
        ("fits", Json::Arr(fits)),
        ("classification", Json::Arr(classifications)),
    ]);
    exp.write_json("BENCH_byz.json", payload);
    exp.note(
        "\nexpected shape: crash, lurker, and coin_jammer are tolerated — honest \
         stabilization roughly constant in the n^2 log2 n unit, a constant-factor \
         premium over the fault-free protocol. rank_squatter, mimic, and recorrupt \
         never honest-stabilize within budget: each ranking round must outrace the \
         adversary-minted duplicate-meeting resets (possibilistically tolerated per \
         the classification, probabilistically starved). The replace-model rows \
         prove the structural livelock that motivates the infiltration default.",
    );
}
