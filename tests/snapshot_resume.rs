//! The durability keystone (checkpoint/restore acceptance): **a run
//! resumed from a snapshot at interaction count `t` is bit-for-bit
//! identical to the run that never crashed** — same final
//! configuration, same interaction counter, same fault-plan position
//! (RNG, pending fire times, fired log).
//!
//! Every property here goes through the real stack: `SnapshotSink`
//! writing `SSRSNAP` files into a temp rotation directory,
//! `Rotation::latest_valid` picking the restart point, and
//! `snapshot::resume_simulator` rebuilding a live engine with every
//! state word re-validated. "Crash" means what it
//! means in production: the live engine is dropped on the floor at an
//! arbitrary interaction count and everything after the last durable
//! save is discarded.
//!
//! Coverage matrix:
//!
//! * the enum path (`Simulator<StableRanking>`), the block kernel
//!   (`Packed<StableRanking>`), and the sharded API at 1 and 4 shards;
//! * every `ranking_faults::KINDS` injector, firing periodically so
//!   faults straddle the crash point;
//! * checkpoint cadences at the block boundary (4095 / 4096 / 4097);
//! * double resume (crash, resume, crash again, resume again);
//! * the dynamic engine under churn, saving through the run driver:
//!   every snapshot it writes carries its DYNPOP section, restores, and
//!   continues onto the uninterrupted run;
//! * rotations written by the enum engine, resumed into the kernel on
//!   each engine (`run-forever` switched from one to the other).
//!
//! Every path compares against a run with **no checkpointing at all** —
//! the FIFO pair stream makes burst splitting trajectory-inert, so
//! checkpointing itself must be invisible. A sharded run resumes on the
//! sequential engine, and its reference is that engine's uninterrupted
//! run.

use std::path::PathBuf;

use silent_ranking::dynamic::{ChurnConfig, DynRanking, DynamicPopulation};
use silent_ranking::population::{
    drive, Capture, FaultHook, Frame, HookState, MemoryCheckpointer, NoFaults, NoPoll, NoSaves,
    NullProbe, Packed, Simulator, UnpackedHook, WordState,
};
use silent_ranking::ranking::stable::{PackedState, StableRanking, StableState};
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::{ranking_faults, FaultPlan};
use silent_ranking::shard::ShardedSimulator;
use silent_ranking::snapshot::{self, Meta, Rotation, SimSnapshot, SnapshotSink};

fn protocol(n: usize) -> StableRanking {
    StableRanking::new(Params::new(n))
}

/// A periodic plan for `kind`: the first firing lands before the first
/// crash point, the prime period keeps later firings off every
/// checkpoint and crash boundary.
fn plan_for(kind: &str, p: &StableRanking, n: usize, seed: u64) -> FaultPlan<StableState> {
    FaultPlan::new(seed ^ 0xBEEF).periodic(2_000, 7_919, ranking_faults::standard(kind, p, n))
}

/// Self-cleaning scratch directory for a rotation.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("ssr-resume-{}-{tag}", std::process::id()));
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

/// The sequential keystone: crash at each point in `crashes` (dropping
/// the live engine and everything after the last save), resume from
/// disk, and require the final position to equal an **uncheckpointed**
/// uninterrupted run's.
fn assert_seq_resume<P, H>(
    tag: &str,
    make: &dyn Fn() -> (P, Vec<P::State>, H),
    seed: u64,
    total: u64,
    every: u64,
    crashes: &[u64],
) where
    P: WordState,
    P::State: Clone + PartialEq + std::fmt::Debug,
    H: FaultHook<P> + HookState,
{
    let (p, init, mut ref_hook) = make();
    let mut reference = Simulator::new(p, init, seed);
    drive(
        &mut reference,
        total,
        &mut ref_hook,
        &mut NoSaves,
        &mut NoPoll,
        &mut NullProbe,
    );

    let dir = TempDir::new(tag);
    let (p, init, mut hook) = make();
    let mut sink = SnapshotSink::every(dir.rotation(), every, Meta::bare(tag, seed));
    let mut sim = Simulator::new(p, init, seed);
    let mut t = 0;
    for &crash in crashes {
        assert!(crash > t && crash < total, "bad crash matrix for {tag}");
        sim.run_faulted_checkpointed(crash - t, &mut hook, &mut sink);
        // The kill: the live engine and hook are dropped; only the
        // rotation directory survives.
        drop((sim, hook, sink));
        let loaded = dir.rotation().latest_valid().expect("a durable snapshot");
        assert!(loaded.skipped.is_empty(), "{tag}: unexpected corrupt files");
        let snap = loaded.snapshot;
        t = snap.frame.interactions;
        assert!(t <= crash && t % every == 0, "{tag}: save off the grid");
        let (p, _, mut restored) = make();
        snapshot::restore_hook(&mut restored, snap.fault.as_ref().expect("fault state")).unwrap();
        sim = snapshot::resume_simulator(p, &snap).unwrap();
        hook = restored;
        sink = SnapshotSink::resumed(dir.rotation(), every, t, Meta::bare(tag, seed));
    }
    sim.run_faulted_checkpointed(total - t, &mut hook, &mut sink);

    assert_eq!(sim.interactions(), reference.interactions(), "{tag}");
    assert_eq!(
        sim.states(),
        reference.states(),
        "{tag}: resumed trajectory diverged from the uninterrupted run"
    );
    assert_eq!(
        hook.export_state(),
        ref_hook.export_state(),
        "{tag}: fault-plan position diverged (RNG / fire times / fired log)"
    );
}

/// `make` closures for the two sequential execution paths.
fn enum_make(
    kind: &'static str,
    n: usize,
    cfg: u64,
    seed: u64,
) -> impl Fn() -> (StableRanking, Vec<StableState>, FaultPlan<StableState>) {
    move || {
        let p = protocol(n);
        let init = p.adversarial_uniform(cfg);
        let hook = plan_for(kind, &p, n, seed);
        (p, init, hook)
    }
}

type PackedHook = UnpackedHook<FaultPlan<StableState>>;

fn kernel_make(
    kind: &'static str,
    n: usize,
    cfg: u64,
    seed: u64,
) -> impl Fn() -> (Packed<StableRanking>, Vec<PackedState>, PackedHook) {
    move || {
        let p = Packed(protocol(n));
        let init = p.pack_all(&p.inner().adversarial_uniform(cfg));
        let hook = UnpackedHook::new(plan_for(kind, p.inner(), n, seed));
        (p, init, hook)
    }
}

#[test]
fn enum_path_resumes_bit_for_bit_under_every_injector() {
    for (i, kind) in ranking_faults::KINDS.into_iter().enumerate() {
        assert_seq_resume(
            &format!("enum-{kind}"),
            &enum_make(kind, 24, 11 + i as u64, 3),
            3,
            30_000,
            5_000,
            &[13_337],
        );
    }
}

#[test]
fn kernel_path_resumes_bit_for_bit_under_every_injector() {
    for (i, kind) in ranking_faults::KINDS.into_iter().enumerate() {
        assert_seq_resume(
            &format!("kernel-{kind}"),
            &kernel_make(kind, 32, 37 + i as u64, 7),
            7,
            40_000,
            6_000,
            &[22_741],
        );
    }
}

#[test]
fn checkpoint_cadence_at_block_boundaries_is_trajectory_inert() {
    // 4096 is the schedule's pre-sampled block size: a save one short
    // of, exactly on, and one past the boundary must all resume
    // bit-for-bit (the cursor carries any pending pairs across).
    for every in [4_095u64, 4_096, 4_097] {
        assert_seq_resume(
            &format!("enum-block-{every}"),
            &enum_make("corrupt", 24, 51, 11),
            11,
            20_000,
            every,
            &[9_901],
        );
        assert_seq_resume(
            &format!("kernel-block-{every}"),
            &kernel_make("corrupt", 32, 53, 13),
            13,
            20_000,
            every,
            &[9_901],
        );
    }
}

#[test]
fn double_resume_is_bit_for_bit() {
    assert_seq_resume(
        "enum-double",
        &enum_make("churn", 24, 71, 17),
        17,
        36_000,
        4_000,
        &[9_117, 23_451],
    );
    assert_seq_resume(
        "kernel-double",
        &kernel_make("erase_rank", 32, 73, 19),
        19,
        36_000,
        4_000,
        &[9_117, 23_451],
    );
}

/// The sharded keystone: a sharded run killed and resumed on the
/// sequential engine ends on that engine's uninterrupted run.
fn assert_sharded_resume(tag: &str, kind: &'static str, shards: usize, seed: u64) {
    let (n, total, every) = (64usize, 60_000u64, 9_000u64);
    let crash = 31_013u64;
    let make = kernel_make(kind, n, seed.wrapping_mul(131) + 7, seed);

    let (p, init, mut ref_hook) = make();
    let mut reference = Simulator::new(p, init, seed);
    drive(
        &mut reference,
        total,
        &mut ref_hook,
        &mut NoSaves,
        &mut NoPoll,
        &mut NullProbe,
    );

    let dir = TempDir::new(tag);
    let (p, init, mut hook) = make();
    let mut sink = SnapshotSink::every(dir.rotation(), every, Meta::bare(tag, seed));
    let mut sim = ShardedSimulator::new(p, init, seed, shards);
    drive(
        &mut sim,
        crash,
        &mut hook,
        &mut sink,
        &mut NoPoll,
        &mut NullProbe,
    );
    drop((sim, hook, sink));

    let snap = dir.rotation().latest_valid().expect("a snapshot").snapshot;
    let t = snap.frame.interactions;
    assert_eq!(snap.frame.cursors.len(), 1, "{tag}");
    let (p, _, mut hook) = make();
    snapshot::restore_hook(&mut hook, snap.fault.as_ref().unwrap()).unwrap();
    let mut sim = snapshot::resume_simulator(p, &snap).unwrap();
    let mut sink = SnapshotSink::resumed(dir.rotation(), every, t, Meta::bare(tag, seed));
    sim.run_faulted_checkpointed(total - t, &mut hook, &mut sink);

    assert_eq!(
        sim.frame(),
        reference.frame(),
        "{tag}: resumed sharded run diverged from the sequential one"
    );
    assert_eq!(
        hook.export_state(),
        ref_hook.export_state(),
        "{tag}: fault-plan position diverged"
    );
}

#[test]
fn sharded_resume_equals_the_uninterrupted_sequential_run_under_every_injector() {
    for shards in [1usize, 4] {
        for (i, kind) in ranking_faults::KINDS.into_iter().enumerate() {
            assert_sharded_resume(
                &format!("shard{shards}-{kind}"),
                kind,
                shards,
                23 + i as u64,
            );
        }
    }
}

/// Corruption at the crash point: damage the newest snapshot with every
/// injector kind and require the resume to degrade to the previous
/// generation and still match the reference — the graceful-fallback
/// half of the keystone.
#[test]
fn resume_degrades_past_a_corrupted_newest_snapshot() {
    for inject_kind in snapshot::inject::KINDS {
        let tag = format!("fallback-{inject_kind}");
        let (seed, total, every, crash) = (29u64, 30_000u64, 5_000u64, 18_433u64);
        let make = enum_make("duplicate_rank", 24, 91, seed);

        let (p, init, mut ref_hook) = make();
        let mut reference = Simulator::new(p, init, seed);
        drive(
            &mut reference,
            total,
            &mut ref_hook,
            &mut NoSaves,
            &mut NoPoll,
            &mut NullProbe,
        );

        let dir = TempDir::new(&tag);
        let (p, init, mut hook) = make();
        let mut sink = SnapshotSink::every(dir.rotation(), every, Meta::bare(&tag, seed));
        let mut sim = Simulator::new(p, init, seed);
        sim.run_faulted_checkpointed(crash, &mut hook, &mut sink);
        drop((sim, hook, sink));

        // The newest generation (t = 15000) is damaged; the ladder must
        // fall back to t = 10000 without panicking or loading garbage.
        let newest = dir.rotation().files().pop().unwrap();
        snapshot::inject(&newest, inject_kind).unwrap();
        let loaded = dir
            .rotation()
            .latest_valid()
            .expect("an older valid snapshot");
        assert_eq!(loaded.skipped.len(), 1, "{tag}: expected one skip");
        let snap = loaded.snapshot;
        let t = snap.frame.interactions;
        assert_eq!(t, 10_000, "{tag}: fell back one generation");

        let (p, _, mut hook) = make();
        snapshot::restore_hook(&mut hook, snap.fault.as_ref().unwrap()).unwrap();
        let mut sim = snapshot::resume_simulator(p, &snap).unwrap();
        let mut sink = SnapshotSink::resumed(dir.rotation(), every, t, Meta::bare(&tag, seed));
        sim.run_faulted_checkpointed(total - t, &mut hook, &mut sink);

        assert_eq!(sim.states(), reference.states(), "{tag}");
        assert_eq!(hook.export_state(), ref_hook.export_state(), "{tag}");
    }
}

/// A churning dynamic population: about one join and one departure per
/// 3 000 interactions at n = 32, with hibernation.
fn churning<Q: DynRanking>(seed: u64) -> DynamicPopulation<Q> {
    DynamicPopulation::new(Params::new(32), ChurnConfig::poisson(300.0, 10_000.0), seed)
}

/// The dynamic keystone: a churning run saving through the run driver
/// and a `SnapshotSink` is killed, resumed from its rotation and run on;
/// it must end on the uninterrupted run's frame and DYNPOP bytes. Then
/// every snapshot the two legs wrote must restore and continue onto that
/// same end.
#[test]
fn every_snapshot_of_a_churning_run_restores_and_continues_bit_for_bit() {
    type Dyn = DynamicPopulation<Packed<StableRanking>>;
    let (seed, total, every, crash) = (41u64, 240_000u64, 20_000u64, 131_071u64);
    let mut reference: Dyn = churning(seed);
    reference.run(total);
    let joins = reference.metrics().snapshot().counter("dyn_joins");
    assert!(joins > Some(0), "the run must churn");

    let dir = TempDir::new("dyn-every");
    let rotation = || Rotation::with_keep(&dir.0, 64).unwrap();
    let meta = || Meta::bare("dyn-every", seed);
    let mut sink = SnapshotSink::every(rotation(), every, meta());
    let mut run: Dyn = churning(seed);
    drive(
        &mut run,
        crash,
        &mut NoFaults,
        &mut sink,
        &mut NoPoll,
        &mut NullProbe,
    );
    drop((run, sink));

    let snap = rotation()
        .latest_valid()
        .expect("a durable snapshot")
        .snapshot;
    let t = snap.frame.interactions;
    assert_eq!(t, crash / every * every);
    let mut run = Dyn::restore(&snap).unwrap();
    let mut sink = SnapshotSink::resumed(rotation(), every, t, meta());
    drive(
        &mut run,
        total - t,
        &mut NoFaults,
        &mut sink,
        &mut NoPoll,
        &mut NullProbe,
    );
    assert_eq!(run.frame(), reference.frame());
    assert_eq!(run.section(), reference.section());

    let files = rotation().files();
    assert_eq!(files.len(), (total / every) as usize, "one file per save");
    for path in files {
        let snap = SimSnapshot::read(&path).unwrap();
        assert!(!snap.dynpop.is_empty(), "{}: no DYNPOP", path.display());
        let mut resumed = Dyn::restore(&snap).unwrap();
        resumed.run(total - snap.frame.interactions);
        assert_eq!(resumed.frame(), reference.frame(), "{}", path.display());
        assert_eq!(resumed.section(), reference.section(), "{}", path.display());
    }
}

/// Write snapshots from the enum engine `old` under the enum `plan` up
/// to `crash`, resume the newest into the kernel engine `resume` builds,
/// and run it on to `total` under the same plan: the kernel's final
/// frame and section.
fn enum_rotation_into_kernel<A, K>(
    tag: &str,
    mut old: A,
    plan: &dyn Fn() -> FaultPlan<StableState>,
    resume: impl FnOnce(&SimSnapshot) -> K,
    (total, every, crash): (u64, u64, u64),
) -> (Frame, Vec<u8>)
where
    A: Capture<Protocol = StableRanking>,
    K: Capture<Protocol = Packed<StableRanking>>,
{
    let dir = TempDir::new(tag);
    let mut sink = SnapshotSink::every(dir.rotation(), every, Meta::bare(tag, 0));
    let mut hook = plan();
    drive(
        &mut old,
        crash,
        &mut hook,
        &mut sink,
        &mut NoPoll,
        &mut NullProbe,
    );
    drop((old, hook, sink));

    let snap = dir.rotation().latest_valid().expect("a snapshot").snapshot;
    let t = snap.frame.interactions;
    let mut kernel = resume(&snap);
    let mut hook = UnpackedHook::new(plan());
    snapshot::restore_hook(&mut hook, snap.fault.as_ref().unwrap()).unwrap();
    let mut sink = SnapshotSink::resumed(dir.rotation(), every, t, Meta::bare(tag, 0));
    drive(
        &mut kernel,
        total - t,
        &mut hook,
        &mut sink,
        &mut NoPoll,
        &mut NullProbe,
    );
    (kernel.frame(), kernel.section())
}

/// The enum engine run `old` to `total` without stopping, saving on the
/// same cadence (the sharded trajectory depends on it): its final frame
/// and section.
fn enum_uninterrupted<A: Capture<Protocol = StableRanking>>(
    mut old: A,
    plan: &dyn Fn() -> FaultPlan<StableState>,
    (total, every, _): (u64, u64, u64),
) -> (Frame, Vec<u8>) {
    let mut saves = MemoryCheckpointer::every(every);
    drive(
        &mut old,
        total,
        &mut plan(),
        &mut saves,
        &mut NoPoll,
        &mut NullProbe,
    );
    (old.frame(), old.section())
}

/// Rotations written by the enum engine resume into the kernel on every
/// engine and end where the enum run that never stopped ends: the same
/// frame, and for the dynamic engine the same DYNPOP bytes.
#[test]
fn enum_rotations_resume_into_the_kernel_on_every_engine() {
    let n = 32;
    let run = (120_000u64, 10_000u64, 67_891u64);
    let p = protocol(n);
    let churn = || plan_for("churn", &p, n, 43);
    let init = p.adversarial_uniform(5);
    let kernel = || Packed(protocol(n));

    let sequential = || Simulator::new(p.clone(), init.clone(), 43);
    assert_eq!(
        enum_rotation_into_kernel(
            "enum-kernel-seq",
            sequential(),
            &churn,
            |s| snapshot::resume_simulator(kernel(), s).unwrap(),
            run,
        ),
        enum_uninterrupted(sequential(), &churn, run),
        "sequential"
    );

    let sharded = || ShardedSimulator::new(p.clone(), init.clone(), 43, 2);
    assert_eq!(
        enum_rotation_into_kernel(
            "enum-kernel-shard",
            sharded(),
            &churn,
            |s| snapshot::resume_simulator(kernel(), s).unwrap(),
            run,
        ),
        enum_uninterrupted(sharded(), &churn, run),
        "sharded"
    );

    let empty = || FaultPlan::empty();
    let (frame, section) = enum_rotation_into_kernel(
        "enum-kernel-dyn",
        churning::<StableRanking>(43),
        &empty,
        |s| DynamicPopulation::<Packed<StableRanking>>::restore(s).unwrap(),
        run,
    );
    let (want_frame, want_section) = enum_uninterrupted(churning(43), &empty, run);
    assert!(!section.is_empty());
    assert_eq!(frame, want_frame, "dynamic");
    assert_eq!(section, want_section, "dynamic");
}
