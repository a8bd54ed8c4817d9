//! Flight-recorder walkthrough: trace a fault-and-recover run of the
//! packed `StableRanking` kernel and read the telemetry back out.
//!
//! A legal silent ranking of 48 agents is struck by a `duplicate_rank`
//! fault mid-run. A `telemetry::Recorder` rides the engine's probe seam
//! through `scenarios::run_recovery_traced`, so the run yields — on top
//! of the usual fault → re-stabilization interval — a structured event
//! trace and a populated metrics registry. The example prints the
//! reset-interval histogram and the event timeline around the fault,
//! then writes the whole trace as schema-versioned JSONL and validates
//! it (the same check the `ssr-trace` binary and the CI trace smoke
//! perform).
//!
//! Run with: `cargo run --release --example trace -- [out.jsonl]`
//! (the trace path defaults to `trace_example.jsonl`).

use silent_ranking::population::{is_valid_ranking, Packed, Simulator, UnpackedHook};
use silent_ranking::ranking::stable::{PackedState, StableRanking};
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::{ranking_faults, run_recovery_traced, FaultPlan, Recovery};
use silent_ranking::telemetry::schema::{render_trace, validate};
use silent_ranking::telemetry::{EventKind, Recorder, RunManifest};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_example.jsonl".to_string());

    // A silent legal ranking, packed — the block kernel is the traced
    // engine, exactly as in the throughput benchmarks.
    let n = 48;
    let protocol = StableRanking::new(Params::new(n));
    let packed = Packed(protocol.clone());
    let init = packed.pack_all(&protocol.legal());
    let mut sim = Simulator::new(packed, init, 7);

    // One fault: agent 1's rank is duplicated onto another agent at
    // t = 10 000, silently breaking the ranking until some collision
    // triggers detection and a reset wave.
    let fault_at = 10_000;
    let mut plan =
        UnpackedHook::new(FaultPlan::new(2024).once(fault_at, ranking_faults::duplicate_rank(1)));

    let mut recovery =
        Recovery::new(|_: &Packed<StableRanking>, s: &[PackedState]| is_valid_ranking(s));
    let mut recorder = Recorder::new();
    let norm = (n * n) as f64 * (n as f64).log2();
    run_recovery_traced(
        &mut sim,
        &mut plan,
        &mut recovery,
        &mut recorder,
        (10_000.0 * norm) as u64,
        256,
    );

    let event = recovery.events()[0];
    let recovered_in = event
        .recovery_interactions()
        .expect("Theorem 2: recovers w.h.p. within the budget");
    println!("fault `{}` at t = {}", event.name, event.injected_at);
    println!(
        "recovered in {recovered_in} interactions ({:.2} n^2 log2 n)",
        recovered_in as f64 / norm
    );
    println!(
        "events recorded: {} ({} overwritten by the rings)",
        recorder.recorded(),
        recorder.dropped()
    );

    // The registry the recorder filled while riding the probe seam:
    // reset waves and the intervals between them.
    let snapshot = recorder.metrics().snapshot();
    println!(
        "reset transitions observed: {}",
        snapshot.counter("recorder_resets").unwrap_or(0)
    );
    let intervals = snapshot
        .histogram("reset_interval")
        .expect("registry always holds the reset_interval histogram");
    println!(
        "\nreset-interval histogram (count {}, sum {}):",
        intervals.count, intervals.sum
    );
    print!("{}", intervals.render_ascii());

    // The event timeline around the fault: the fault itself, then the
    // detection → reset → re-ranking churn that follows (legality
    // checkpoints are elided — they fire every 256 interactions and
    // would drown the protocol's own transitions).
    let events = recorder.events();
    let timeline: Vec<_> = events
        .iter()
        .filter(|e| !matches!(e.kind, EventKind::Checkpoint { .. }))
        .collect();
    let fault_idx = timeline
        .iter()
        .position(|e| matches!(e.kind, EventKind::Fault { .. }))
        .expect("the fault firing is always traced");
    let window = &timeline[fault_idx.saturating_sub(3)..(fault_idx + 12).min(timeline.len())];
    println!("\ntimeline around the fault:");
    for e in window {
        let detail = match e.kind {
            EventKind::Reset => "reset".to_string(),
            EventKind::Elected => "elected".to_string(),
            EventKind::PhaseEnter { phase } => format!("enters phase {phase}"),
            EventKind::RankClaim { rank } => format!("claims rank {rank}"),
            EventKind::RankRelease { rank } => format!("releases rank {rank}"),
            EventKind::Fault { hit, name } => format!(
                "FAULT `{}` rewrites {hit} agent(s)",
                name.unwrap_or("unnamed")
            ),
            EventKind::Checkpoint { stopping } => format!("checkpoint (stopping: {stopping})"),
            EventKind::Join => "joins the population".to_string(),
            EventKind::Leave => "leaves the population".to_string(),
            EventKind::Hibernate => "hibernates".to_string(),
            EventKind::Revive => "revives".to_string(),
        };
        let agent = if e.agent == silent_ranking::telemetry::NO_AGENT {
            "  (all)".to_string()
        } else {
            format!("agent {:>2}", e.agent)
        };
        println!("  t = {:>8}  {agent}  {detail}", e.t);
    }

    // Persist the whole run as schema-versioned JSONL — header, run
    // manifest, events, metric and histogram lines — and prove it back
    // in with the validator (ssr-trace runs the same check).
    let manifest = RunManifest::capture("trace_example");
    let text = render_trace(&events, &[snapshot], Some(&manifest), recorder.dropped());
    std::fs::write(&out_path, &text).expect("trace file must be writable");
    let summary = validate(&text).expect("rendered traces always validate");
    println!(
        "\nwrote {out_path}: schema v{}, {} events, {} fault(s) — valid ✓",
        summary.version,
        summary.events,
        summary.faults.len()
    );
}
