//! `SSR_WORKERS` pins the worker count end to end: a binary started
//! with it reports that many cores and runs its sharded engine on that
//! many workers. The override is set on the child process only, so no
//! test mutates this process's environment.

use std::process::Command;

/// The values of every `"key": value` line of a pretty-printed JSON
/// document, in document order.
fn values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let prefix = format!("\"{key}\": ");
    json.lines()
        .filter_map(|line| line.trim().strip_prefix(prefix.as_str()))
        .map(|value| value.trim_end_matches(','))
        .collect()
}

#[test]
fn ssr_workers_sets_the_reported_cores_and_the_sharded_workers() {
    let out = std::env::temp_dir().join(format!("ssr-workers-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_shard_throughput"))
        .env("SSR_WORKERS", "3")
        .args([
            "sizes=64",
            "shards=4",
            "interactions=1000",
            "samples=1",
            &format!("out={}", out.display()),
        ])
        .output()
        .expect("shard_throughput starts")
        .status;
    assert!(status.success());

    let json = std::fs::read_to_string(&out).expect("the artifact");
    let _ = std::fs::remove_file(&out);
    assert_eq!(values(&json, "cores"), ["3"]);
    assert_eq!(values(&json, "workers"), ["3"]);
}
