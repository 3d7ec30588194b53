#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the checkout root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 it prints the end-to-end metrics of the untraced binary.
With --trace 1 it runs the untraced binary and then the traced one, and
prints the traced binary's per-layer metrics plus trace.overhead_pct, the
traced run's throughput cost against the untraced run. The last line of
standard output is the result object; build and progress output go to
standard error. Any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

MANIFEST = os.path.join("perfbench", "Cargo.toml")
RUN_TIMEOUT_S = 170


def run_binary(exe, args):
    """Runs one benchmark binary and returns its parsed result line."""
    proc = subprocess.run(
        [exe] + args, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.exit(f"run.py: {os.path.basename(exe)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"run.py: {os.path.basename(exe)} printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    bindir = os.path.join(target, "release")
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]

    untraced = run_binary(os.path.join(bindir, "perfbench"), args)
    if not a.trace:
        print(json.dumps(untraced))
        return
    traced = run_binary(os.path.join(bindir, "perfbench-traced"), args)
    metrics = traced["metrics"]
    base = untraced["metrics"]["host_mips"]["value"]
    with_trace = metrics["trace.host_mips"]["value"]
    overhead = 100.0 * (base / with_trace - 1.0) if with_trace > 0 else 0.0
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    print(
        json.dumps(
            {
                "correct": untraced["correct"] and traced["correct"],
                "attempted": untraced["attempted"] + traced["attempted"],
                "failed": untraced["failed"] + traced["failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
