//! What an older build left behind is refused with exit 1 and a
//! one-line reason, never a panic and never silently:
//!
//! * a rotation an older `run-forever shards=2` wrote carries that
//!   argument in its label, so it is refused as another run's;
//! * a rotation an older build's lane-partitioned engine wrote holds one
//!   scheduler cursor per shard, and is refused by its cursor count;
//! * `shards=` itself is no longer an option of `run-forever` or
//!   `byzantine`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use population::{Frame, Packed, Simulator};
use ranking::stable::StableRanking;
use ranking::Params;
use snapshot::{Meta, Rotation, SimSnapshot};

/// A fresh scratch directory for one case.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssr-old-rotation-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The frame a sequential `n=8` run saves at t = 1000.
fn frame_at_1000() -> Frame {
    let kernel = Packed(StableRanking::new(Params::new(8)));
    let init = kernel.pack_all(&kernel.inner().initial());
    let mut frame = Simulator::new(kernel, init, 0).frame();
    frame.interactions = 1_000;
    frame
}

/// Save `frame` under `label` into `dir/ck`, check that it decodes, and
/// run `run-forever` over it with default arguments at `n=8`.
fn resume(dir: &Path, label: &str, frame: Frame) -> Output {
    let snap = SimSnapshot {
        meta: Meta::bare(label, 0),
        frame,
        fault: None,
        observer: Vec::new(),
        dynpop: Vec::new(),
    };
    let rotation = Rotation::open(dir.join("ck")).unwrap();
    rotation.save(&snap).unwrap();
    let loaded = rotation.latest_valid().expect("the file decodes");
    assert!(loaded.skipped.is_empty());
    let out = Command::new(env!("CARGO_BIN_EXE_run-forever"))
        .current_dir(dir)
        .args([
            "checkpoint_dir=ck",
            "n=8",
            "interactions=2000",
            "checkpoint_every=1000",
        ])
        .output()
        .expect("run-forever starts");
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// Exit 1 with `want` in the error output.
fn assert_refused(out: &Output, want: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(want), "{stderr}");
}

#[test]
fn run_forever_refuses_a_shards_2_rotation_by_its_label() {
    let out = resume(
        &scratch("label"),
        "run-forever n=8 shards=2 fault=none",
        frame_at_1000(),
    );
    assert_refused(
        &out,
        "snapshot belongs to \"run-forever n=8 shards=2 fault=none\" seed=0, \
         this run is \"run-forever n=8 shards=1 fault=none\" seed=0",
    );
}

#[test]
fn run_forever_refuses_a_two_cursor_rotation_by_its_cursor_count() {
    // One cursor per lane, under the label a default run gives: the
    // frame still decodes, and resuming it is refused.
    let mut frame = frame_at_1000();
    let mut lanes = vec![frame.cursors[0].clone(); 2];
    (lanes[0].start, lanes[0].len) = (0, 4);
    (lanes[1].start, lanes[1].len) = (4, 4);
    lanes[1].rng[0] ^= 1;
    frame.cursors = lanes;
    let out = resume(
        &scratch("cursors"),
        "run-forever n=8 shards=1 fault=none",
        frame,
    );
    assert_refused(&out, "malformed snapshot: frame holds 2 scheduler cursors");
}

#[test]
fn shards_is_refused_by_run_forever_and_byzantine() {
    let dir = scratch("shards");
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_run-forever"),
            &["checkpoint_dir=ck", "n=8", "shards=2"][..],
        ),
        (
            env!("CARGO_BIN_EXE_byzantine"),
            &["sizes=8", "ks=1", "sims=1", "out=b.json", "shards=2"][..],
        ),
    ] {
        let out = Command::new(bin)
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("the binary starts");
        assert_refused(&out, "shards= is no longer an option");
        assert_eq!(String::from_utf8_lossy(&out.stderr).lines().count(), 1);
    }
    let written = std::fs::read_dir(&dir).unwrap().count();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(written, 0, "a refused run writes nothing");
}
