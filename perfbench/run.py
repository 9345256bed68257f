#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the library and the program from
source into $CARGO_TARGET_DIR (default .bench_build) on first use, runs the
workload, and prints one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1.  Exits non-zero, without a result line,
when the build or the run fails; exits 1 after the result line when an
answer differed from the reference.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j4", "--target",
                    "perfbench"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload", args.workload)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed:", e)
        return 2
    out_dir = os.path.join(build_dir, "run")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--out-dir=" + out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out after", RUN_TIMEOUT_S, "s")
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("run failed with exit code", proc.returncode)
        return 2
    result = json.loads(lines[-1])
    missing = [name for name in units if name not in result["metrics"]]
    if missing:
        log("run did not report:", ", ".join(missing))
        return 2
    metrics = {}
    for name, unit in units.items():
        got = result["metrics"][name]
        if got["unit"] not in ("", unit):
            log("metric %s: unit %s, expected %s" % (name, got["unit"], unit))
            return 2
        metrics[name] = {"value": got["value"], "unit": unit}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
