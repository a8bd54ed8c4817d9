//! Run-forever driver: a crash-restartable `StableRanking` run with
//! durable checkpoints.
//!
//! `interactions=` is the **total** trajectory target, not an
//! increment: a fresh start runs `0 → total`, a restart resumes from
//! the newest valid snapshot in `checkpoint_dir=` and runs the
//! remainder. Kill the process at any point — SIGKILL, OOM, power cut —
//! and re-running the same command continues the same trajectory. The
//! final line prints `digest=<crc64>` over the final frame (interaction
//! count, state words, scheduler cursors), and the keystone durability
//! property makes that digest **independent of how often the run was
//! killed**: a run resumed ten times prints the same digest as one that
//! never stopped (enforced by the CI kill-and-resume smoke and
//! `tests/snapshot_resume.rs`).
//!
//! A finished run leaves one snapshot at `t = total` (the cadence's own
//! save when it lands there, else one final save), so re-running a
//! finished command is a no-op that just reprints the digest.
//!
//! Fault soaking: `fault=<kind>` (any `scenarios::ranking_faults`
//! injector) fires the injector every `fault_every=` interactions from
//! a legal silent start — a sustained-fault endurance run. Fault RNG,
//! pending fire times, and the fired log ride in the snapshots, so
//! resumed fault runs are bit-for-bit too. Without `fault=` the run
//! starts from the clean election configuration.
//!
//! Dynamic populations: `arrivals=<per-million>` and/or
//! `lifetime=<mean>` switch the run onto the `DynamicPopulation`
//! engine (Poisson joins, exponential lifetimes, rank leasing, epoch
//! re-parameterization). Churn runs are exclusive with `fault=` (an
//! injector is built for the nominal population, so after
//! an epoch roll it would write states outside the new state space);
//! the whole engine state (roster, free-lists, churn RNG) rides in the
//! snapshots' DYNPOP section, so the kill-anytime digest contract holds
//! unchanged — the digest then also covers those DYNPOP bytes.
//!
//! Both engines — sequential and dynamic — run the block kernel
//! (`Packed<StableRanking>`) through one arm: one `drive` call saving
//! through one `SnapshotSink`, the final save on the same path, and one
//! digest. Snapshots hold the kernel's words in the enum's codec, so
//! rotations written by the enum engine resume here. `shards=` is
//! refused: the sharded API ran the sequential engine, so it never
//! changed a digest. A rotation an older build's sharded engine wrote
//! (one cursor per shard) is refused with an error that names its
//! cursor count.
//!
//! Usage: `cargo run --release -p bench --bin run-forever --
//! checkpoint_dir=DIR [n=256] [interactions=10000000]
//! [checkpoint_every=1000000] [seed=0] [keep=4]
//! [fault=none] [fault_every=n^2*64] [arrivals=0] [lifetime=0]
//! [resume=FILE.ssr]`

use std::path::Path;
use std::time::Instant;

use bench::Experiment;
use dynamic::{ChurnConfig, DynamicPopulation};
use population::{
    drive, Capture, Frame, NoPoll, NullProbe, Packed, Saves, Simulator, UnpackedHook,
};
use ranking::stable::{StableRanking, StableState};
use ranking::Params;
use scenarios::{ranking_faults, FaultPlan};
use snapshot::{restore_hook, Crc64, Meta, Rotation, SimSnapshot, SnapshotError, SnapshotSink};

/// The protocol every engine runs: the block kernel.
type Kernel = Packed<StableRanking>;

/// The fault plan, fired on the kernel's words through their structured
/// states.
type Plan = UnpackedHook<FaultPlan<StableState>>;

fn die(msg: &str) -> ! {
    eprintln!("run-forever: {msg}");
    std::process::exit(1)
}

/// The engine a snapshot restored into, or the reason to stop.
fn restored<T>(engine: Result<T, SnapshotError>) -> T {
    engine.unwrap_or_else(|e| die(&format!("cannot restore: {e}")))
}

/// The trajectory digest: CRC-64 over the frame's interaction count,
/// every state word, every scheduler cursor (RNG position + pending
/// pairs), and — for dynamic runs — the DYNPOP section bytes (roster,
/// free-lists, churn RNG). Covering the cursors makes the digest
/// sensitive to *where in the pair stream* the run ended, not just what
/// configuration it reached — a resume that replayed or skipped even
/// one interaction changes it. For fixed-n runs `dynpop` is empty and
/// the digest is exactly the historical one.
fn digest(frame: &Frame, dynpop: &[u8]) -> u64 {
    let mut crc = Crc64::new();
    crc.update_u64(frame.interactions);
    for &w in &frame.words {
        crc.update_u64(w);
    }
    for c in &frame.cursors {
        for &r in &c.rng {
            crc.update_u64(r);
        }
        crc.update_u64(c.pending.len() as u64);
        for &(a, b) in &c.pending {
            crc.update_u64(u64::from(a));
            crc.update_u64(u64::from(b));
        }
    }
    crc.update(dynpop);
    crc.finish()
}

/// The fault plan for this configuration — rebuilt identically on every
/// (re)start from the same CLI knobs; a snapshot's FAULT section then
/// restores the dynamic position (RNG, next fire times, fired log) on
/// top.
fn build_plan(
    protocol: &StableRanking,
    n: usize,
    seed: u64,
    fault: Option<&str>,
    fault_every: u64,
) -> FaultPlan<StableState> {
    match fault {
        None => FaultPlan::empty(),
        Some(kind) => FaultPlan::new(seed ^ 0xF417).periodic(
            fault_every,
            fault_every,
            ranking_faults::standard(kind, protocol, n),
        ),
    }
}

/// Run `engine` on to `total` interactions under `plan`, saving through
/// `sink` on its cadence, and return the digest of the final position.
/// The run ends with a snapshot at `t = total`: when the sink's newest
/// save is not there (an off-grid `total`, or a failed save at it), one
/// final save goes through the driver's own save path. A re-run of a
/// finished command resumes there, sees `t >= total`, and is a pure
/// no-op.
fn soak<E: Capture<Protocol = Kernel>>(
    engine: &mut E,
    total: u64,
    plan: &mut Plan,
    sink: &mut SnapshotSink,
) -> u64 {
    let remaining = total - engine.interactions();
    drive(engine, remaining, plan, sink, &mut NoPoll, &mut NullProbe);
    if sink.last_saved() != Some(total) {
        Saves::save(sink, engine, plan);
    }
    digest(&engine.frame(), &engine.section())
}

fn main() {
    let exp = Experiment::from_env("run-forever");
    let n: usize = exp.get("n", 256);
    let total: u64 = exp.get("interactions", 10_000_000);
    let every = exp.checkpoint_every(1_000_000);
    let seed: u64 = exp.get("seed", 0);
    let keep: usize = exp.get("keep", snapshot::DEFAULT_KEEP);
    let fault = exp.args().get_str("fault").filter(|&f| f != "none");
    let fault_every: u64 = exp.get("fault_every", (n * n) as u64 * 64);
    let arrivals: f64 = exp.get("arrivals", 0.0);
    let lifetime: f64 = exp.get("lifetime", 0.0);
    let churning = arrivals > 0.0 || lifetime > 0.0;
    let Some(dir) = exp.checkpoint_dir() else {
        die("checkpoint_dir= is required (the whole point is durability)");
    };
    if exp.args().get_str("shards").is_some() {
        die("shards= is no longer an option (every run is the sequential engine's); drop it");
    }
    if churning && fault.is_some() {
        die("fault= is not yet supported together with arrivals=/lifetime=");
    }

    // Everything that determines the trajectory is in the label (plus
    // the seed, carried separately in the snapshot meta) — resuming
    // under different knobs is refused, not silently blended.
    let fault_desc = match fault {
        Some(kind) => format!("{kind}@{fault_every}"),
        None => "none".to_string(),
    };
    // ` shards=1` stays in the label so that rotations written before
    // `shards=` went, with its default, still resume.
    let mut label = format!("run-forever n={n} shards=1 fault={fault_desc}");
    if churning {
        label.push_str(&format!(" arrivals={arrivals} lifetime={lifetime}"));
    }

    let rotation = Rotation::with_keep(dir, keep)
        .unwrap_or_else(|e| die(&format!("cannot open rotation dir {dir}: {e}")));

    // Pick the resume point: an explicit `resume=` file, else the
    // newest valid snapshot in the rotation (reporting any corrupt ones
    // skipped on the way), else a fresh start.
    let loaded: Option<SimSnapshot> = match exp.resume_path() {
        Some(path) => Some(
            SimSnapshot::read(Path::new(path))
                .unwrap_or_else(|e| die(&format!("cannot resume from {path}: {e}"))),
        ),
        None => rotation.latest_valid().map(|l| {
            for (path, err) in &l.skipped {
                eprintln!(
                    "run-forever: skipped corrupt snapshot {}: {err}",
                    path.display()
                );
            }
            println!(
                "resuming from {} at t={}",
                l.path.display(),
                l.snapshot.frame.interactions
            );
            l.snapshot
        }),
    };
    if let Some(snap) = &loaded {
        if snap.meta.label != label || snap.meta.seed != seed {
            die(&format!(
                "snapshot belongs to \"{}\" seed={}, this run is \"{label}\" seed={seed} — \
                 refusing to blend trajectories (pick a different checkpoint_dir)",
                snap.meta.label, snap.meta.seed,
            ));
        }
        if snap.frame.interactions >= total {
            println!(
                "already complete: snapshot t={} >= target {total}; nothing to do",
                snap.frame.interactions
            );
            println!("digest={:016x}", digest(&snap.frame, &snap.dynpop));
            return;
        }
    }
    if loaded.is_none() {
        println!("fresh start (no usable snapshot)");
    }

    let protocol = StableRanking::new(Params::new(n));
    let mut plan = UnpackedHook::new(build_plan(&protocol, n, seed, fault, fault_every));
    if let Some(state) = loaded.as_ref().and_then(|s| s.fault.as_ref()) {
        restore_hook(&mut plan, state)
            .unwrap_or_else(|e| die(&format!("cannot restore fault state: {e}")));
    }

    let start_t = loaded.as_ref().map_or(0, |s| s.frame.interactions);
    let meta = Meta::new(&label, seed, &exp.manifest());
    let mut sink = if loaded.is_some() {
        SnapshotSink::resumed(rotation, every, start_t, meta)
    } else {
        SnapshotSink::every(rotation, every, meta)
    };

    // Fault runs soak a legal silent configuration; fault-free runs
    // exercise the whole election-then-rank trajectory from the clean
    // start, where the dynamic engine starts too.
    let kernel = Packed(protocol);
    let init = kernel.pack_all(&match fault {
        Some(_) => kernel.inner().legal(),
        None => kernel.inner().initial(),
    });

    let clock = Instant::now();
    let (final_digest, churn_summary) = if churning {
        let mut engine = match &loaded {
            Some(snap) => restored(DynamicPopulation::restore(snap)),
            None => DynamicPopulation::<Kernel>::new(
                Params::new(n),
                ChurnConfig::poisson(arrivals, lifetime),
                seed,
            ),
        };
        let final_digest = soak(&mut engine, total, &mut plan, &mut sink);
        let metrics = engine.metrics().snapshot();
        let counter = |name: &str| metrics.counter(name).unwrap_or(0);
        let summary = format!(
            "live={} epoch={} joins={} leaves={} hibernates={} revives={} valid={:.3}",
            engine.live(),
            engine.epoch().epoch(),
            counter("dyn_joins"),
            counter("dyn_leaves"),
            counter("dyn_hibernates"),
            counter("dyn_revives"),
            engine.fraction_valid(),
        );
        (final_digest, Some(summary))
    } else {
        let mut sim = match &loaded {
            Some(snap) => restored(snapshot::resume_simulator(kernel, snap)),
            None => Simulator::new(kernel, init, seed),
        };
        (soak(&mut sim, total, &mut plan, &mut sink), None)
    };
    let secs = clock.elapsed().as_secs_f64();

    let ran = total - start_t;
    println!(
        "ran {ran} interactions in {secs:.2}s ({:.1} M/s), faults fired: {}",
        ran as f64 / secs / 1e6,
        plan.inner().fired().len(),
    );
    if let Some(summary) = churn_summary {
        println!("dynamic: {summary}");
    }
    println!(
        "checkpoints: saves={} failures={} every={every} final={}",
        sink.saves,
        sink.failures,
        sink.rotation().path_for(total).display()
    );
    println!("digest={final_digest:016x}");
}
