#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

    python3 perfbench/steady.py [--seeds 10]

Run from the repository root.  Runs two sets of runs of every workload in
BENCHMARK.json, each set once per seed (seeds 1..N).  The sets are
interleaved run by run, in alternating order, so a drift of the host's
speed reaches both alike.  For each end-to-end metric it prints each set's
median, quartiles and spread (q3 - q1) / median, and the distance between
the two medians as a share of the first, against the metric's bound.
Then every workload runs traced once per set (seeds 1 and 2): the gpusim.*
counts depend only on the fixed tensor structure, so they must be
identical across all of those runs.

Exits 1 when a run fails or answers wrongly, when a spread or the distance
between the two medians exceeds its bound (setup_s included), or when the
gpusim counts differ.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

SETS = ("a", "b")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d trace %d failed (exit %d)"
                         % (workload, seed, trace, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s seed %d trace %d: correct=%s failed=%d"
                         % (workload, seed, trace, result["correct"],
                            result["failed"]))
    return result


def verdict(value, bound):
    if value > bound:
        return "OVER BOUND"
    return "above bound/3" if value > bound / 3 else "ok"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    ok = True

    start = time.time()
    # values[workload][set][metric] -> one value per seed
    values = {n: {s: {m["name"]: [] for m in spec["end_to_end"]} for s in SETS}
              for n in names}
    for seed in range(1, args.seeds + 1):
        for name in names:
            order = SETS if seed % 2 else SETS[::-1]
            for which in order:
                result = run(name, seed, seconds, 0)
                for metric, xs in values[name][which].items():
                    xs.append(result["metrics"][metric]["value"])
    print("%d seeds x %d workloads x 2 sets in %.0f s"
          % (args.seeds, len(names), time.time() - start))

    for name in names:
        print("\n%s" % name)
        print("  %-16s %3s %12s %12s %12s %8s %8s %7s  %s" % (
            "metric", "set", "median", "q1", "q3", "spread", "moved",
            "bound", "verdict"))
        for m in spec["end_to_end"]:
            medians = []
            for which in SETS:
                q1, q2, q3 = statistics.quantiles(
                    values[name][which][m["name"]], n=4)
                spread = (q3 - q1) / q2 if q2 else 0.0
                medians.append(q2)
                moved = (abs(q2 - medians[0]) / medians[0]
                         if medians[0] else 0.0)
                worst = max(spread, moved)
                ok = ok and worst <= m["bound"]
                print("  %-16s %3s %12.6g %12.6g %12.6g %8.4f %8.4f %7.3f  %s"
                      % (m["name"], which, q2, q1, q3, spread, moved,
                         m["bound"], verdict(worst, m["bound"])))

    counts = []
    for seed in (1, 2):
        for name in names:
            result = run(name, seed, seconds, 1)
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if k.startswith("gpusim.")})
    same = all(c == counts[0] for c in counts)
    print("\ngpusim counts over %d traced runs (seeds 1, 2): %s" % (
        len(counts), "identical" if same else "DIFFER"))
    ok = ok and same

    print("\nsteady: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
