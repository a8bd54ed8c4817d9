//! Run provenance does not depend on the working directory: a binary
//! started outside the checkout records the checkout's git revision.

use std::path::PathBuf;
use std::process::Command;

use snapshot::Rotation;

/// What `git rev-parse` prints for the checkout, or `"unknown"`.
fn checkout_rev() -> String {
    Command::new("git")
        .args([
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short=12",
            "HEAD",
        ])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[test]
fn a_run_started_outside_the_checkout_records_its_revision() {
    let dir: PathBuf = std::env::temp_dir().join(format!("ssr-provenance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_run-forever"))
        .current_dir(&dir)
        .args([
            "checkpoint_dir=ck",
            "n=8",
            "interactions=2000",
            "checkpoint_every=1000",
        ])
        .output()
        .expect("run-forever starts")
        .status;
    assert!(status.success());

    let loaded = Rotation::open(dir.join("ck"))
        .unwrap()
        .latest_valid()
        .expect("a snapshot");
    let rev = loaded
        .snapshot
        .meta
        .provenance
        .iter()
        .find(|(key, _)| key == "git_rev")
        .map(|(_, value)| value.clone());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(rev, Some(checkout_rev()));
}
