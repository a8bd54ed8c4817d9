#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package in release mode (into $CARGO_TARGET_DIR,
default .bench_build), runs one workload, compares its simulated
fingerprint with perfbench/fingerprints.json, and prints the result as
one JSON object on the last line of standard output. Exits non-zero, with
no result line, if the build or the run fails; exits non-zero after the
result line if a correctness check failed.

--workload all runs every workload in turn with the same arguments and
ends with one combined result, its metrics named <workload>.<metric>.

--record-fingerprint stores this run's fingerprint in fingerprints.json.
See perfbench/README.md for the workloads and metrics.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
RUN_TIMEOUT_S = 170
WORKLOADS = ["stabilize", "soak", "traced_sharded"]


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def compare_fingerprint(line, record):
    """Report whether this run's trajectory matches the stored one."""
    fp = json.loads(line)
    key = f"{fp['workload']}/seed={fp['seed']}/units={fp['units']}"
    stored = {}
    if os.path.exists(FINGERPRINTS):
        with open(FINGERPRINTS) as f:
            stored = json.load(f)
    if record:
        stored[key] = fp
        with open(FINGERPRINTS, "w") as f:
            json.dump(stored, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"fingerprint {key}: recorded {fp['digest']}")
    elif key not in stored:
        print(f"fingerprint {key}: {fp['digest']} (none stored for this seed and length)")
    elif stored[key]["digest"] == fp["digest"]:
        print(f"fingerprint {key}: unchanged {fp['digest']}")
    else:
        changed = sorted(k for k in fp if fp[k] != stored[key].get(k))
        print(f"fingerprint {key}: trajectory changed "
              f"({stored[key]['digest']} -> {fp['digest']}; differs in {', '.join(changed)})")


def run_one(binary, args, record):
    """Run one workload and print its output up to the result line;
    return the exit code and the result line, or None without one."""
    cmd = [binary, *args, "--workdir", os.path.join(HERE, "work")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = run.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(run.stdout, end="")
        print(f"perfbench: exited {run.returncode} without a result", file=sys.stderr)
        return 1, None
    for line in lines[:-1]:
        if line.startswith("fingerprint "):
            compare_fingerprint(line[len("fingerprint "):], record)
        print(line)
    return run.returncode, lines[-1]


def main():
    args = sys.argv[1:]
    record = "--record-fingerprint" in args
    args = [a for a in args if a != "--record-fingerprint"]
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(os.environ["CARGO_TARGET_DIR"], "release", "perfbench")
    at = args.index("--workload") + 1 if "--workload" in args[:-1] else None
    if at is None or args[at] != "all":
        code, result = run_one(binary, args, record)
        if result is not None:
            print(result, flush=True)
        return code
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}")
        code, line = run_one(binary, args[:at] + [name] + args[at + 1:], record)
        if line is None:
            return 1
        result = json.loads(line)
        worst = max(worst, code)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
