#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs each workload once per seed through run.py and prints, per end-to-end
metric, the median, the quartiles and the quartile spread as a share of the
median against the metric's bound in BENCHMARK.json. With --sets 2 it runs
the whole set again on the next seeds and also checks that the two medians
of every metric differ by no more than the bound, in either direction.

    python3 mdperf/steady.py                      # 10 seeds, every workload
    python3 mdperf/steady.py --workloads engine_pairs_3t --seeds 5
    python3 mdperf/steady.py --sets 2 --out runs.json

A spread within the bound passes; the benchmark aims for a third of it.
Exits nonzero when a run fails or a check does not pass.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return result


def run_set(spec, workloads, seeds, first_seed):
    runs = {}
    for w in workloads:
        runs[w] = []
        for i in range(seeds):
            r = run_once(w, first_seed + i, spec["run_seconds"])
            runs[w].append(r)
            print("  %s seed %d: %s" % (w, first_seed + i, "ok" if
                  r["correct"] and r["failed"] == 0 else "FAILED"),
                  flush=True)
    return runs


def summarize(spec, runs):
    """Prints the per-metric table of one set; returns (medians, ok)."""
    ok = True
    medians = {}
    for w, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print("%s: %d runs, %d of %d attempted failed"
              % (w, len(results), failed, attempted))
        ok = ok and failed == 0
        print("  %-14s %8s %12s %12s %12s %8s %7s %s" % (
            "metric", "unit", "median", "q1", "q3", "spread", "bound",
            "verdict"))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results
                    if m["name"] in r["metrics"]]
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            medians[(w, m["name"])] = med
            if spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                ok = False
            print("  %-14s %8s %12.6g %12.6g %12.6g %8.4f %7.3f %s" % (
                m["name"], m["unit"], med, q1, q3, spread, m["bound"],
                verdict))
    return medians, ok


def compare(spec, first, second):
    """Second median within the bound of the first, either way."""
    ok = True
    print("second set against the first:")
    for m in spec["end_to_end"]:
        for (w, name), a in sorted(first.items()):
            if name != m["name"] or (w, name) not in second:
                continue
            b = second[(w, name)]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            good = abs(worse) <= m["bound"]
            ok = ok and good
            print("  %-16s %-14s %12.6g -> %12.6g  worse by %+.4f "
                  "(bound %.3f) %s" % (w, name, a, b, worse, m["bound"],
                                       "ok" if good else "DISAGREES"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; default: all")
    ap.add_argument("--seeds", type=int, default=10, help="runs per set")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--out", help="write the raw runs of every set here")
    args = ap.parse_args()
    spec = load_spec()

    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    sets = []
    for s in range(args.sets):
        print("set %d of %d" % (s + 1, args.sets), flush=True)
        sets.append(run_set(spec, names, args.seeds,
                            args.first_seed + s * args.seeds))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(sets, f, indent=1)

    ok = True
    medians = []
    for i, runs in enumerate(sets):
        print("== set %d ==" % (i + 1))
        med, good = summarize(spec, runs)
        medians.append(med)
        ok = ok and good
    if len(medians) == 2:
        ok = compare(spec, medians[0], medians[1]) and ok
    print("PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
