#!/usr/bin/env python3
"""Build and run the spmlab benchmark; print one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the repository root. The script builds the harness in
`perfbench/` (a Cargo package with a workspace of its own) offline in
release mode and runs it for one workload.

With `--trace 0` it runs one repetition per harness process, in fresh
processes one after another until `--seconds` have passed, and reports
the median of each end-to-end metric over the repetitions; `peak_rss_mb`
is each process's peak resident memory. Every repetition must pass the
harness's output checks and produce the same points (equal digests).
With `--trace 1` one harness process measures the per-layer metrics for
`--seconds`. The exit code is non-zero when a build, a run or a check
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dse-grid", "wcet-alloc", "gen-cold")


def build():
    """Builds the harness offline and returns the path of its binary."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Cargo's progress goes to stderr; keep stdout for the result line.
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "spmlab-perfbench")


def run_child(binary, args):
    """Runs the harness once; returns (exit code, result or None, peak RSS in MB)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    out = child.stdout.read()
    child.stdout.close()
    # wait4 reaps the child and reports its own resource usage; record the
    # exit code on the Popen object so it knows the child is gone.
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    result = json.loads(lines[-1]) if lines else None
    # ru_maxrss is in KiB on Linux.
    return child.returncode, result, usage.ru_maxrss / 1024.0


def aggregate(reps):
    """Combines untraced repetitions [(result, peak RSS)] into one result."""
    first = reps[0][0]
    attempted = sum(r["attempted"] for r, _ in reps)
    failed = 0
    ok = 0.0
    for r, _ in reps:
        if r["digest"] != first["digest"]:
            print(f"run.py: repetition digest {r['digest']} differs from {first['digest']}",
                  file=sys.stderr)
            failed += r["attempted"]
        else:
            failed += r["failed"]
        ok += r["metrics"]["points_ok_frac"]["value"] * r["attempted"]

    def med(name):
        return statistics.median(r["metrics"][name]["value"] for r, _ in reps)

    values = {
        "points_per_s": med("points_per_s"),
        "setup_s": med("setup_s"),
        "peak_rss_mb": statistics.median(rss for _, rss in reps),
        "bound_ratio_gmean": med("bound_ratio_gmean"),
        "points_ok_frac": ok / attempted,
    }
    units = {name: m["unit"] for name, m in first["metrics"].items()}
    units["peak_rss_mb"] = "MB"
    print(f"run.py: {len(reps)} repetitions", file=sys.stderr)
    return {
        "correct": failed == 0 and all(r["correct"] for r, _ in reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + args.seconds
    reps = []
    while True:
        code, result, rss = run_child(binary, args)
        if result is None:
            print(f"run.py: harness exited with {code} and no result", file=sys.stderr)
            return code or 1
        if args.trace == 1:
            print(json.dumps(result))
            return code
        reps.append((result, rss))
        if code != 0 or time.monotonic() >= deadline:
            break
    result = aggregate(reps)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
