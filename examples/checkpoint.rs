//! Crash-consistent checkpoint/restore, end to end.
//!
//! A four-act walkthrough of the durability stack (see
//! `docs/DURABILITY.md`):
//!
//! 1. run `StableRanking` with a `SnapshotSink` writing durable
//!    `SSRSNAP` generations into a rotation directory;
//! 2. "crash" — drop the live simulator on the floor, mid-run;
//! 3. restore from the newest valid snapshot (every state word
//!    re-validated through the packed codec) and audit the restored
//!    configuration: because silence is a closed, checkable predicate,
//!    a restored run can *prove* where it stands instead of hoping;
//! 4. finish the run and verify it lands exactly where an uninterrupted
//!    twin does — the keystone property of `tests/snapshot_resume.rs`.
//!
//! Run with: `cargo run --release --example checkpoint`

use silent_ranking::population::{drive, NoFaults, NoPoll, NullProbe, Simulator};
use silent_ranking::ranking::audit::restore_audit;
use silent_ranking::ranking::stable::StableRanking;
use silent_ranking::ranking::Params;
use silent_ranking::snapshot::{resume_simulator, Meta, Rotation, SnapshotSink};

fn main() {
    let (n, seed) = (64usize, 42u64);
    let total = 2_000_000u64; // comfortably past stabilization for n = 64
    let every = 250_000u64;
    let crash_at = 1_200_000u64;
    let dir = std::env::temp_dir().join("ssr-example-checkpoint");
    let _ = std::fs::remove_dir_all(&dir);

    let protocol = || StableRanking::new(Params::new(n));

    // Act 1 — a checkpointed run from an adversarial start. The sink
    // writes a durable snapshot every 250k interactions: temp file,
    // fsync, atomic rename, pruned rotation.
    let rotation = Rotation::open(&dir).expect("rotation dir");
    let mut sink = SnapshotSink::every(rotation, every, Meta::bare("example", seed));
    let p = protocol();
    let init = p.adversarial_uniform(7);
    let mut sim = Simulator::new(p, init, seed);
    drive(
        &mut sim,
        crash_at,
        &mut NoFaults,
        &mut sink,
        &mut NoPoll,
        &mut NullProbe,
    );
    println!(
        "act 1: ran {} interactions, {} snapshot(s) on disk in {}",
        sim.interactions(),
        sink.saves,
        dir.display()
    );

    // Act 2 — the crash. Nothing after the last save survives.
    drop((sim, sink));
    println!("act 2: crashed (live simulator dropped)");

    // Act 3 — restore. `latest_valid` walks generations newest-first,
    // skipping corrupt files; `resume_simulator` re-validates every
    // state word through the protocol's codec before trusting it. The
    // restore audit then classifies the configuration — by 1M
    // interactions an n = 64 run has long stabilized, and silence is
    // checkable, so the audit *proves* it.
    let loaded = Rotation::open(&dir)
        .expect("rotation dir")
        .latest_valid()
        .expect("at least one valid snapshot");
    let t = loaded.snapshot.frame.interactions;
    let mut sim = resume_simulator(protocol(), &loaded.snapshot).expect("restorable snapshot");
    let audit = restore_audit(sim.protocol(), sim.states());
    println!(
        "act 3: restored {} at t={t}; audit: {} ({}/{} ranked, silent: {})",
        loaded.path.display(),
        audit.verdict(),
        audit.ranked,
        audit.n,
        audit.silent
    );
    assert_eq!(audit.verdict(), "stabilized");

    // Act 4 — finish, and check the keystone: bit-for-bit agreement
    // with a run that never crashed.
    sim.run_batched(total - t);

    let p = protocol();
    let init = p.adversarial_uniform(7);
    let mut twin = Simulator::new(p, init, seed);
    twin.run_batched(total);
    assert_eq!(sim.states(), twin.states());
    assert_eq!(sim.interactions(), twin.interactions());
    println!("act 4: resumed run == uninterrupted run, bit for bit, at t={total}");

    let _ = std::fs::remove_dir_all(&dir);
}
