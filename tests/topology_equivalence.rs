//! The topology subsystem's differential acceptance suite (ISSUE 10):
//!
//! 1. **Clique equivalence** — a `GraphSchedule` over the complete
//!    graph is *statistically* the paper's uniform scheduler: over 10⁶
//!    draws, the ordered-pair histogram passes the same chi-square
//!    uniformity bar as `Schedule` itself (the two streams differ bit
//!    for bit — the graph path spends two RNG words per pair — but must
//!    be indistinguishable in distribution).
//! 2. **Single-stream contract** — scalar `next_pair` and batched
//!    `sample_block` consumption of a `GraphSchedule` produce the
//!    identical pair stream, for every generator in the menu and any
//!    interleaving (the engine's bit-for-bit scalar ≡ batched
//!    equivalence rests on this).
//! 3. **Generator invariants**, property-tested across the parameter
//!    space: connectivity, exact degree bounds, no self-loops, no
//!    duplicate edges, and same-spec ⇒ same-graph determinism.
//! 4. **Cursor/resume** — a ranking run driven by a `GraphSchedule`,
//!    checkpointed through the real `SSRSNAP` rotation stack and
//!    crashed mid-run, resumes **bit for bit** — at checkpoint cadences
//!    straddling the block boundary (4095 / 4096 / 4097) and across a
//!    crash-resume-crash-resume double restart, mirroring
//!    `tests/snapshot_resume.rs`.

use std::path::PathBuf;

use proptest::prelude::*;

use silent_ranking::population::{drive, NoFaults, NoPoll, NullProbe, Schedule, Simulator};
use silent_ranking::ranking::stable::StableRanking;
use silent_ranking::ranking::Params;
use silent_ranking::snapshot::{self, Meta, Rotation, SnapshotSink};
use silent_ranking::topology::{GraphSchedule, TopologySpec};

fn protocol(n: usize) -> StableRanking {
    StableRanking::new(Params::new(n))
}

/// The whole generator menu at one small size (36 = 6² so the torus
/// fits), used by the stream and invariant sweeps.
fn menu(seed: u64) -> Vec<TopologySpec> {
    vec![
        TopologySpec::Complete { n: 36 },
        TopologySpec::Ring { n: 36 },
        TopologySpec::Torus { w: 6, h: 6 },
        TopologySpec::Geometric {
            n: 36,
            radius: 0.42,
            seed,
        },
        TopologySpec::Regular { n: 36, d: 4, seed },
        TopologySpec::Preferential { n: 36, m: 3, seed },
    ]
}

// ----------------------------------------------------------------------
// 1. Chi-square clique equivalence
// ----------------------------------------------------------------------

/// Chi-square statistic of `draws` ordered pairs against the uniform
/// distribution over the `n(n−1)` cells.
fn chi_square_uniform(counts: &[u64], draws: u64) -> f64 {
    let expect = draws as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expect;
            d * d / expect
        })
        .sum()
}

#[test]
fn complete_graph_schedule_is_chi_square_uniform_like_schedule() {
    // n = 8: 56 ordered-pair cells, 10⁶ draws ⇒ ~17.8k expected per
    // cell. χ² at df = 55: mean 55, std ≈ 10.5; the 10⁻⁶ tail is ≈ 120.
    // Both sources must sit under it (and they do, comfortably — seeds
    // are fixed, so this is a deterministic check, not a flaky one).
    const N: usize = 8;
    const DRAWS: u64 = 1_000_000;
    const CELLS: usize = N * (N - 1);
    const CHI_BOUND: f64 = 120.0;

    let cell = |i: usize, j: usize| i * (N - 1) + if j > i { j - 1 } else { j };

    let mut graph_counts = vec![0u64; CELLS];
    let mut graph = GraphSchedule::new(TopologySpec::Complete { n: N as u32 }, 2024);
    for _ in 0..DRAWS {
        let (i, j) = silent_ranking::population::PairSource::next_pair(&mut graph);
        graph_counts[cell(i, j)] += 1;
    }

    let mut uniform_counts = vec![0u64; CELLS];
    let mut uniform = Schedule::new(N, 2024);
    for _ in 0..DRAWS {
        let (i, j) = uniform.next_pair();
        uniform_counts[cell(i, j)] += 1;
    }

    let graph_chi = chi_square_uniform(&graph_counts, DRAWS);
    let uniform_chi = chi_square_uniform(&uniform_counts, DRAWS);
    assert!(
        graph_chi < CHI_BOUND,
        "GraphSchedule(complete) not uniform: chi-square {graph_chi:.1} (df 55)"
    );
    assert!(
        uniform_chi < CHI_BOUND,
        "reference Schedule not uniform: chi-square {uniform_chi:.1} (df 55)"
    );
    // Every cell populated — no ordered pair is unreachable.
    assert!(graph_counts.iter().all(|&c| c > 0));
}

// ----------------------------------------------------------------------
// 2. Single-stream contract across the menu
// ----------------------------------------------------------------------

#[test]
fn scalar_and_block_consumption_share_the_stream_for_every_generator() {
    use silent_ranking::population::PairSource;
    for spec in menu(5) {
        let mut scalar = GraphSchedule::new(spec, 77);
        let mut blocked = GraphSchedule::new(spec, 77);
        let expected: Vec<(usize, usize)> = (0..20_000).map(|_| scalar.next_pair()).collect();
        let mut got = Vec::new();
        while got.len() < 20_000 {
            let block = blocked.sample_block(20_000 - got.len()).to_vec();
            got.extend(block.iter().map(|&(i, j)| (i as usize, j as usize)));
        }
        assert_eq!(
            got,
            expected,
            "{}: scalar and block streams diverge",
            spec.kind()
        );
    }
}

#[test]
fn interleaved_consumption_is_seamless_for_every_generator() {
    use silent_ranking::population::PairSource;
    for spec in menu(6) {
        let mut reference = GraphSchedule::new(spec, 3);
        let expected: Vec<(usize, usize)> = (0..6000).map(|_| reference.next_pair()).collect();
        let mut mixed = GraphSchedule::new(spec, 3);
        let mut got = Vec::new();
        while got.len() < 6000 {
            got.push(mixed.next_pair());
            let want = (6000 - got.len()).min(41);
            got.extend(
                mixed
                    .sample_block(want)
                    .iter()
                    .map(|&(i, j)| (i as usize, j as usize)),
            );
        }
        assert_eq!(
            got,
            expected,
            "{}: interleaving perturbed the stream",
            spec.kind()
        );
    }
}

// ----------------------------------------------------------------------
// 3. Generator invariants (property-tested)
// ----------------------------------------------------------------------

/// Shared invariant check: simple (no loops, no duplicate edges — the
/// CSR rows are sorted, so strict monotonicity is the test), connected,
/// within degree bounds.
fn assert_simple_connected(spec: TopologySpec) {
    let g = spec.build();
    assert_eq!(g.n(), spec.n());
    for i in 0..g.n() {
        let row = g.neighbors(i);
        assert!(
            row.windows(2).all(|w| w[0] < w[1]),
            "{}: vertex {i} has unsorted or duplicate neighbors",
            spec.kind()
        );
        assert!(
            row.iter().all(|&j| (j as usize) < g.n() && j as usize != i),
            "{}: vertex {i} has a self-loop or out-of-range neighbor",
            spec.kind()
        );
    }
    assert!(g.min_degree() >= 1, "{}: isolated vertex", spec.kind());
    assert!(g.is_connected(), "{}: disconnected", spec.kind());
    // Rebuild from the same spec: bit-identical graph.
    assert_eq!(
        g,
        spec.build(),
        "{}: generator not deterministic",
        spec.kind()
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn ring_invariants(n in 3u32..200) {
        let spec = TopologySpec::Ring { n };
        assert_simple_connected(spec);
        let g = spec.build();
        prop_assert_eq!((g.min_degree(), g.max_degree()), (2, 2));
        prop_assert_eq!(g.edge_count(), n as usize);
    }

    #[test]
    fn torus_invariants(w in 3u32..16, h in 3u32..16) {
        let spec = TopologySpec::Torus { w, h };
        assert_simple_connected(spec);
        let g = spec.build();
        prop_assert_eq!((g.min_degree(), g.max_degree()), (4, 4));
        prop_assert_eq!(g.edge_count(), 2 * (w as usize) * (h as usize));
    }

    #[test]
    fn complete_invariants(n in 2u32..64) {
        let spec = TopologySpec::Complete { n };
        assert_simple_connected(spec);
        let g = spec.build();
        prop_assert_eq!(g.min_degree(), n as usize - 1);
        prop_assert_eq!(g.edge_count(), n as usize * (n as usize - 1) / 2);
    }

    #[test]
    fn regular_invariants(half_n in 6u32..40, d in 3u32..8, seed in 0u64..1000) {
        // n even so every parity of d is buildable.
        let n = 2 * half_n;
        let spec = TopologySpec::Regular { n, d, seed };
        assert_simple_connected(spec);
        let g = spec.build();
        prop_assert_eq!((g.min_degree(), g.max_degree()), (d as usize, d as usize));
        prop_assert_eq!(g.edge_count(), n as usize * d as usize / 2);
    }

    #[test]
    fn geometric_invariants(n in 8u32..48, seed in 0u64..1000) {
        // Radius comfortably above the ~√(ln n / n) connectivity
        // threshold for this size range.
        let spec = TopologySpec::Geometric { n, radius: 0.55, seed };
        assert_simple_connected(spec);
    }

    #[test]
    fn preferential_invariants(n in 8u32..80, m in 1u32..5, seed in 0u64..1000) {
        let spec = TopologySpec::Preferential { n, m, seed };
        assert_simple_connected(spec);
        let g = spec.build();
        // Every vertex ends with degree ≥ m (arrivals add m edges).
        prop_assert!(g.min_degree() >= m as usize);
        let core = m as usize * (m as usize + 1) / 2;
        prop_assert_eq!(g.edge_count(), core + m as usize * (n as usize - m as usize - 1));
    }

    #[test]
    fn encode_decode_round_trips_everywhere(kind in 0usize..6, a in 3u32..40, b in 3u32..8, seed in 0u64..1000) {
        let spec = match kind {
            0 => TopologySpec::Complete { n: a },
            1 => TopologySpec::Ring { n: a },
            2 => TopologySpec::Torus { w: a, h: b },
            3 => TopologySpec::Geometric { n: a, radius: 0.5, seed },
            4 => TopologySpec::Regular { n: 2 * a, d: b, seed },
            _ => TopologySpec::Preferential { n: a, m: b.min(a - 1), seed },
        };
        prop_assert_eq!(TopologySpec::decode(&spec.encode()), Ok(spec));
    }
}

// ----------------------------------------------------------------------
// 4. Checkpoint/restore through the real snapshot stack
// ----------------------------------------------------------------------

/// Self-cleaning scratch directory for a rotation.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("ssr-topo-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        Self(path)
    }

    fn rotation(&self) -> Rotation {
        Rotation::open(&self.0).unwrap()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The graph-scheduler resume keystone, mirroring
/// `tests/snapshot_resume.rs`: crash at each point in `crashes`
/// (dropping the live engine and everything after the last durable
/// save), restore with `resume_simulator_with::<_, GraphSchedule>`, and
/// require the final position to equal an **uncheckpointed**
/// uninterrupted run's — burst splitting must stay trajectory-inert on
/// the graph path too.
fn assert_graph_resume(tag: &str, spec: TopologySpec, total: u64, every: u64, crashes: &[u64]) {
    let n = spec.n();
    let seed = 7;
    let make = || {
        let p = protocol(n);
        let init = p.adversarial_uniform(99);
        let source = GraphSchedule::new(spec, seed);
        Simulator::with_source(p, init, source)
    };

    let mut reference = make();
    reference.run_batched(total);

    let dir = TempDir::new(tag);
    let mut sink = SnapshotSink::every(dir.rotation(), every, Meta::bare(tag, seed));
    let mut sim = make();
    let mut t = 0;
    for &crash in crashes {
        assert!(crash > t && crash < total, "bad crash matrix for {tag}");
        drive(
            &mut sim,
            crash - t,
            &mut NoFaults,
            &mut sink,
            &mut NoPoll,
            &mut NullProbe,
        );
        // The kill: the live engine is dropped; only the rotation
        // directory survives.
        drop((sim, sink));
        let loaded = dir.rotation().latest_valid().expect("a durable snapshot");
        assert!(loaded.skipped.is_empty(), "{tag}: unexpected corrupt files");
        let snap = loaded.snapshot;
        t = snap.frame.interactions;
        assert!(t <= crash && t % every == 0, "{tag}: save off the grid");
        assert_eq!(
            snap.frame.cursors[0].topo.len(),
            4,
            "{tag}: snapshot cursor lost the topology spec"
        );
        sim = snapshot::resume_simulator_with::<_, GraphSchedule>(protocol(n), &snap).unwrap();
        assert_eq!(sim.source().topology().spec(), &spec);
        sink = SnapshotSink::resumed(dir.rotation(), every, t, Meta::bare(tag, seed));
    }
    drive(
        &mut sim,
        total - t,
        &mut NoFaults,
        &mut sink,
        &mut NoPoll,
        &mut NullProbe,
    );

    assert_eq!(sim.interactions(), reference.interactions(), "{tag}");
    assert_eq!(
        sim.states(),
        reference.states(),
        "{tag}: resumed graph trajectory diverged from the uninterrupted run"
    );
}

#[test]
fn graph_run_resumes_bit_for_bit_at_block_boundary_cadences() {
    // Checkpoint cadences straddling the 4096-pair block boundary: the
    // cursor must be exact wherever the save lands relative to the
    // engine's internal bursts.
    for (cadence, tag) in [(4095, "c4095"), (4096, "c4096"), (4097, "c4097")] {
        assert_graph_resume(
            tag,
            TopologySpec::Ring { n: 24 },
            30_000,
            cadence,
            &[13_337],
        );
    }
}

#[test]
fn graph_run_survives_double_resume() {
    // Crash, resume, crash again before the next save, resume again —
    // the second restore must land on the first restore's own saves.
    assert_graph_resume(
        "double",
        TopologySpec::Regular {
            n: 24,
            d: 4,
            seed: 5,
        },
        40_000,
        4_096,
        &[9_999, 22_222],
    );
}

#[test]
fn graph_resume_covers_every_generator() {
    for spec in menu(8) {
        assert_graph_resume(
            &format!("menu-{}", spec.kind()),
            spec,
            12_000,
            4_096,
            &[5_000],
        );
    }
}
