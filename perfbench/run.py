#!/usr/bin/env python3
"""Designer-session benchmark for statleak: one run of one workload.

    python3 perfbench/run.py --workload greedy-suite --seed 1 --seconds 35 --trace 0

Run from the root of a statleak checkout.  Builds the benchmark program
(perfbench/designer.exe) and the statleak CLI from source with dune (inside
the checkout, dune's shared cache off), binds itself to one CPU, then runs
whole designer-session rounds for about --seconds seconds and relays the
program's output; its
last line is the result object
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("greedy-suite", "batch-pipeline", "serve-whatif")
RUN_DIR = ".perfbench-run"  # relative: keeps the daemon socket path short
TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    missing = [p for p in ("dune-project", "lib", "bin")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("error: not a statleak checkout (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/designer.exe",
         "./bin/statleak_cli.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("error: build failed", file=sys.stderr)
        return 1

    # One CPU for the benchmark process and the daemon it starts: the
    # closed loop keeps only one of them busy at a time, and the
    # host-speed kernel the benchmark process samples then runs where the
    # daemon's work runs.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    cmd = [os.path.join("_build", "default", "perfbench", "designer.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join("_build", "default", "bin", "statleak_cli.exe"),
           "--dir", RUN_DIR]
    # own process group, so a timeout also stops the daemon designer.exe started
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("error: run exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
