//! A rotation written by an older build's sharded engine holds one
//! scheduler cursor per shard. It still decodes, and `run-forever
//! shards=2` refuses to resume it with an error naming the cursor
//! count, never a panic.

use std::path::PathBuf;
use std::process::Command;

use population::{Packed, Simulator};
use ranking::stable::StableRanking;
use ranking::Params;
use snapshot::{Meta, Rotation, SimSnapshot};

#[test]
fn run_forever_refuses_a_two_cursor_rotation_by_its_cursor_count() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("ssr-old-rotation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // The frame a 2-shard run of `n=8` would have saved at t = 1000:
    // one cursor per lane, under the label run-forever gives that run.
    let n = 8;
    let kernel = Packed(StableRanking::new(Params::new(n)));
    let init = kernel.pack_all(&kernel.inner().initial());
    let mut frame = Simulator::new(kernel, init, 0).frame();
    frame.interactions = 1_000;
    let mut lanes = vec![frame.cursors[0].clone(); 2];
    (lanes[0].start, lanes[0].len) = (0, 4);
    (lanes[1].start, lanes[1].len) = (4, 4);
    lanes[1].rng[0] ^= 1;
    frame.cursors = lanes;
    let snap = SimSnapshot {
        meta: Meta::bare("run-forever n=8 shards=2 fault=none", 0),
        frame,
        fault: None,
        observer: Vec::new(),
        dynpop: Vec::new(),
    };
    let rotation = Rotation::open(dir.join("ck")).unwrap();
    rotation.save(&snap).unwrap();
    let loaded = rotation.latest_valid().expect("the file decodes");
    assert!(loaded.skipped.is_empty());
    assert_eq!(loaded.snapshot.frame.cursors.len(), 2);

    let out = Command::new(env!("CARGO_BIN_EXE_run-forever"))
        .current_dir(&dir)
        .args([
            "checkpoint_dir=ck",
            "n=8",
            "shards=2",
            "interactions=2000",
            "checkpoint_every=1000",
        ])
        .output()
        .expect("run-forever starts");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("malformed snapshot: frame holds 2 scheduler cursors"),
        "{stderr}"
    );
}
