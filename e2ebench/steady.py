#!/usr/bin/env python3
"""Steadiness of the end-to-end benchmark.

    python3 e2ebench/steady.py --workload W [--runs N] [--first-seed S]
                               [--parent DIR] [--out FILE]
    python3 e2ebench/steady.py --compare A.json B.json

Run from a checkout's root. Runs e2ebench/run.py N times (seeds S..S+N-1,
one run at a time, so the load never exceeds what one run uses) and
prints, per end-to-end metric, the median, the quartiles, min/max and the
quartile spread as a share of the median next to the metric's bound.

With --parent DIR (another checkout, e.g. from `git archive`), runs
alternate between the parent and this checkout, the parent first on even
pairs and second on odd ones, and the two sets are compared: a metric
regresses when its median is worse than the parent's by more than its
bound. --compare does the same for two sets saved with --out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("e2ebench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("run failed: %s (seed %d in %s)" % (workload, seed, checkout))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results, bench, label):
    print("%s: %d runs, failed/attempted %s" % (
        label, len(results), sorted({"%d/%d" % (r["failed"], r["attempted"])
                                     for r in results})[:3]))
    print("  %-28s %12s %12s %12s %12s %12s %8s %6s" % (
        "metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread <= m["bound"] / 3 else (" >1/3 bound" if spread <= m["bound"]
                                                     else " >bound")
        print("  %-28s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %6.3f%s" % (
            m["name"], statistics.median(values), q1, q3, min(values), max(values),
            spread, m["bound"], flag))


def compare(parent, change, bench):
    ok = True
    for m in bench["end_to_end"]:
        a = statistics.median(r["metrics"][m["name"]]["value"] for r in parent)
        b = statistics.median(r["metrics"][m["name"]]["value"] for r in change)
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "ok" if worse <= m["bound"] else "REGRESSED"
        ok = ok and worse <= m["bound"]
        print("  %-28s parent %12.5g change %12.5g worse by %+7.2f%% (bound %4.1f%%) %s" % (
            m["name"], a, b, 100 * worse, 100 * m["bound"], verdict))
    share = {tuple(sorted({r["failed"] / r["attempted"] for r in rs}))
             for rs in (parent, change)}
    if len(share) != 1:
        print("  failed share differs between the sets: %s" % share)
        ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--out", help="save the runs as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        for s, path in zip(sets, args.compare):
            summarize(s["runs"], bench, path)
        return 0 if compare(sets[0]["runs"], sets[1]["runs"], bench) else 1
    if not args.workload:
        parser.error("--workload is required")
    seconds = bench["run_seconds"]
    change, parent = [], []
    for i in range(args.runs):
        seed = args.first_seed + i
        order = [("change", "."), ("parent", args.parent)] if args.parent else \
            [("change", ".")]
        if args.parent and i % 2 == 0:
            order.reverse()
        for side, checkout in order:
            start = time.perf_counter()
            result = run_once(checkout, args.workload, seed, seconds)
            (change if side == "change" else parent).append(result)
            print("run %d %s seed %d (%.0f s): %s" % (
                i, side, seed, time.perf_counter() - start, json.dumps(
                {k: round(v["value"], 5) for k, v in result["metrics"].items()})),
                flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "runs": change}, f)
    summarize(change, bench, "change" if args.parent else args.workload)
    if args.parent:
        summarize(parent, bench, "parent")
        return 0 if compare(parent, change, bench) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
