#!/usr/bin/env python3
"""Steadiness check of the designer-session benchmark.

    cd perfbench && python3 steady.py [--workload NAME ...]

Runs two sets of 10 untraced runs of every workload (each run with its
own seed, the second set with seeds the first did not use) plus one
traced run per set, all on the current checkout.  For every workload and
end-to-end metric it prints each set's median and quartiles, the spread
(q3 - q1) / median and the drift of the second median from the first,
against the metric's bound in BENCHMARK.json.  It asserts that:

  * every spread is within the bound;
  * no second-set median is worse than the first by more than the bound;
  * the share of failed operations is the same in every run;
  * the deterministic values repeat exactly: leak_final_ua in every run,
    and ssta.propagations, opt.trials, opt.moves and yield.dies in every
    traced run.

Exits 1 if an assertion fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC_TRACED = ("ssta.propagations", "opt.trials", "opt.moves", "yield.dies")
RUNS = 10    # untraced runs per set, as many as the acceptance check makes
TRACED = 1   # traced runs per set, for the deterministic counters


def run_once(workload, seed, seconds, trace):
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s seed %d trace %d (exit %d)"
                         % (workload, seed, trace, proc.returncode))
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace, wall_s=time.time() - t0)
    print("  %-15s seed %4d trace %d  attempted %5d failed %d correct %s  %5.1f s"
          % (workload, seed, trace, result["attempted"], result["failed"],
             result["correct"], result["wall_s"]), flush=True)
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="default: all")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    results = []
    for s in (0, 1):
        print("set %d" % (s + 1), flush=True)
        for w in workloads:
            runs = [(1000 * (s + 1) + i, 0) for i in range(RUNS)]
            runs += [(1000 * (s + 1) + 500 + i, 1) for i in range(TRACED)]
            for seed, trace in runs:
                r = run_once(w, seed, bench["run_seconds"], trace)
                results.append(dict(r, set=s))

    problems = []
    for w in workloads:
        rs = [r for r in results if r["workload"] == w]
        shares = {(r["failed"], r["attempted"]) for r in rs}
        if len({f / a for f, a in shares}) != 1:
            problems.append("%s: failed share differs between runs: %s" % (w, sorted(shares)))
        if not all(r["correct"] for r in rs):
            problems.append("%s: a run reported correct = false" % w)
        print("\n%s  (failed/attempted: %s)" % (w, ", ".join(
            "%d/%d" % s for s in sorted(shares))))
        print("  %-18s %6s  %-34s %-34s %7s" % ("metric", "bound", "set 1 median [q1, q3] spread",
                                               "set 2 median [q1, q3] spread", "drift"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = []
            for s in (0, 1):
                vals = [r["metrics"][name]["value"] for r in rs
                        if r["set"] == s and r["trace"] == 0]
                if len(vals) < 2:
                    continue
                q1, q2, q3 = quartiles(vals)
                sets.append((q1, q2, q3, (q3 - q1) / q2))
            if len(sets) < 2:
                continue
            (a1, a2, a3, sa), (b1, b2, b3, sb) = sets
            drift = (b2 - a2) / a2 if m["better"] == "lower" else (a2 - b2) / a2
            flag = ""
            if sa > bound or sb > bound:
                flag += " SPREAD"
                problems.append("%s %s: spread %.3f / %.3f above bound %.2f" % (w, name, sa, sb, bound))
            if drift > bound:
                flag += " DRIFT"
                problems.append("%s %s: second median worse by %.3f, bound %.2f" % (w, name, drift, bound))
            print("  %-18s %6.2f  %10.4g [%.4g, %.4g] %5.3f   %10.4g [%.4g, %.4g] %5.3f  %+6.3f%s"
                  % (name, bound, a2, a1, a3, sa, b2, b1, b3, sb, drift, flag))
        leaks = {r["metrics"]["leak_final_ua"]["value"] for r in rs if r["trace"] == 0}
        if len(leaks) > 1:
            problems.append("%s: leak_final_ua not repeated exactly: %s" % (w, sorted(leaks)))
        for name in DETERMINISTIC_TRACED:
            vals = {r["metrics"][name]["value"] for r in rs if r["trace"] == 1}
            if len(vals) > 1:
                problems.append("%s: %s not repeated exactly: %s" % (w, name, sorted(vals)))
            elif vals:
                print("  %-18s repeated exactly: %g" % (name, vals.pop()))

    print()
    for p in problems:
        print("FAIL " + p)
    print("steady" if not problems else "NOT steady (%d problems)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
