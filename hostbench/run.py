#!/usr/bin/env python3
"""Build and run the MeNDA host-time benchmark.

Run from the repository root:

    python3 hostbench/run.py --workload paper-detailed --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds hostbench/ (which compiles the
simulator libraries from src/) under $CARGO_TARGET_DIR/hostbench, or
.bench_build/hostbench when that variable is unset; later runs only
re-check the build. The benchmark's standard output is passed through,
so its last line is the result JSON. The exit code is the benchmark's:
0 when every operation succeeded and every output was correct.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-detailed", "paper-fast", "served")


def build(build_dir):
    """Configure (once) and build the benchmark; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hostbench: menda sources (src/) not found next to "
                 "hostbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "menda_hostbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "menda_hostbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "hostbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("hostbench: build failed: %s" % err)

    # Unix socket paths are limited to ~108 bytes, so hand the benchmark
    # a work directory relative to the current one when that is shorter.
    work_dir = os.path.relpath(build_dir)
    if len(work_dir) > len(build_dir):
        work_dir = build_dir
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--work-dir", work_dir])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
