//! `ssr-snap`: inspect, verify, and deliberately damage snapshot files.
//!
//! Three modes over the `SSRSNAP` format (see `docs/DURABILITY.md`):
//!
//! * **inspect** (default) — decode a snapshot and print its metadata,
//!   frame geometry, fault state, and provenance;
//! * **`--verify`** — exit 0 iff a usable snapshot exists: for `path=`,
//!   that one file; for `dir=`, the rotation's fallback ladder (newest
//!   valid wins, corrupt generations are reported and skipped — a
//!   directory with one torn file and one good one still verifies);
//! * **`--inject`** — damage a snapshot the way real failures do
//!   (`kind=` torn | bitflip | crc_flip | stale_version), for testing
//!   the ladder. The CI corruption smoke is: inject the newest
//!   generation, then `--verify` must still exit 0 via fallback.
//!
//! Usage: `cargo run --release -p bench --bin ssr-snap --
//! [path=FILE.ssr | dir=CKPT_DIR] [--verify] [--inject kind=torn]`

use std::path::{Path, PathBuf};

use bench::Args;
use snapshot::{Rotation, SimSnapshot};

fn die(msg: &str) -> ! {
    eprintln!("ssr-snap: {msg}");
    std::process::exit(1)
}

/// Resolve the target file: `path=` wins; `dir=` means the newest
/// snapshot file in the rotation (by name — validity is the caller's
/// question to ask).
fn target_file(args: &Args) -> PathBuf {
    if let Some(path) = args.get_str("path") {
        return PathBuf::from(path);
    }
    if let Some(dir) = args.get_str("dir") {
        let rotation =
            Rotation::open(dir).unwrap_or_else(|e| die(&format!("cannot open {dir}: {e}")));
        return rotation
            .files()
            .pop()
            .unwrap_or_else(|| die(&format!("no snapshot files in {dir}")));
    }
    die("need path=FILE.ssr or dir=CKPT_DIR");
}

/// Render the inspect report as one string, printed with a single
/// write whose failure is ignored — `ssr-snap dir=… | head` must not
/// panic on the broken pipe.
fn inspect(path: &Path, snap: &SimSnapshot) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "{}", path.display());
    let _ = writeln!(w, "  label        {}", snap.meta.label);
    let _ = writeln!(w, "  seed         {}", snap.meta.seed);
    let f = &snap.frame;
    let _ = writeln!(w, "  interactions {}", f.interactions);
    let _ = writeln!(
        w,
        "  frame        n={} cursors={}",
        f.words.len(),
        f.cursors.len()
    );
    for (i, c) in f.cursors.iter().enumerate() {
        let _ = writeln!(
            w,
            "  cursor[{i}]    lane {}..{} of n={}, {} pending pair(s)",
            c.start,
            c.start + c.len,
            c.n,
            c.pending.len()
        );
    }
    match &snap.fault {
        Some(fs) => {
            let _ = writeln!(
                w,
                "  fault        {} entr(ies), {} fired",
                fs.next.len(),
                fs.fired.len()
            );
        }
        None => {
            let _ = writeln!(w, "  fault        none");
        }
    }
    if !snap.observer.is_empty() {
        let _ = writeln!(w, "  observer     {} byte(s)", snap.observer.len());
    }
    for (k, v) in &snap.meta.provenance {
        let _ = writeln!(w, "  {k:12} {v}");
    }
    out
}

/// `--verify` over a rotation directory: walk the fallback ladder.
/// Exit 0 iff *some* generation loads.
fn verify_dir(dir: &str) -> ! {
    let rotation = Rotation::open(dir).unwrap_or_else(|e| die(&format!("cannot open {dir}: {e}")));
    match rotation.latest_valid() {
        Some(loaded) => {
            for (path, err) in &loaded.skipped {
                println!("SKIP {}: {err}", path.display());
            }
            println!(
                "OK   {} (t={})",
                loaded.path.display(),
                loaded.snapshot.frame.interactions
            );
            std::process::exit(0)
        }
        None => {
            eprintln!("ssr-snap: no valid snapshot in {dir}");
            std::process::exit(1)
        }
    }
}

fn main() {
    let args = Args::from_env();

    if args.flag("inject") {
        let kind = args.get_str("kind").unwrap_or_else(|| {
            die("--inject needs kind= (torn | bitflip | crc_flip | stale_version)")
        });
        if !snapshot::inject::KINDS.contains(&kind) {
            die(&format!(
                "unknown kind {kind:?} (expected one of {:?})",
                snapshot::inject::KINDS
            ));
        }
        let path = target_file(&args);
        let what = snapshot::inject(&path, kind)
            .unwrap_or_else(|e| die(&format!("cannot inject into {}: {e}", path.display())));
        println!("{}: {what}", path.display());
        return;
    }

    if args.flag("verify") {
        if let Some(path) = args.get_str("path") {
            match SimSnapshot::read(Path::new(path)) {
                Ok(snap) => {
                    println!("OK   {path} (t={})", snap.frame.interactions);
                    std::process::exit(0)
                }
                Err(e) => {
                    eprintln!("ssr-snap: {path}: {e}");
                    std::process::exit(1)
                }
            }
        }
        if let Some(dir) = args.get_str("dir") {
            verify_dir(dir);
        }
        die("--verify needs path=FILE.ssr or dir=CKPT_DIR");
    }

    // Default: inspect.
    let path = target_file(&args);
    match SimSnapshot::read(&path) {
        Ok(snap) => {
            use std::io::Write;
            let _ = std::io::stdout().write_all(inspect(&path, &snap).as_bytes());
        }
        Err(e) => die(&format!("{}: {e}", path.display())),
    }
}
