#!/usr/bin/env python3
"""Check that the benchmark's deterministic work counters repeat exactly.

Runs every workload twice with the same seed, untraced and traced, and
compares the "counter" lines the benchmark prints. Wall-clock metrics
differ between the runs; the counters must not. Run from the repository
root:

    python3 hostbench/test_counters.py [--seed N] [--seconds S]

Exits 0 when every counter matches, 1 otherwise.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-detailed", "paper-fast", "served")


def counters(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s trace=%d exited %d" %
                           (workload, trace, proc.returncode))
    return [line for line in proc.stdout.splitlines()
            if line.startswith("counter ")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            first = counters(workload, args.seed, args.seconds, trace)
            second = counters(workload, args.seed, args.seconds, trace)
            same = first == second and len(first) > 0
            ok = ok and same
            print("%-14s trace=%d %3d counters %s" %
                  (workload, trace, len(first), "ok" if same else "DIFFER"))
            if not same:
                for a, b in zip(first, second):
                    if a != b:
                        print("  run 1: " + a + "\n  run 2: " + b)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
