#!/usr/bin/env python3
"""Builds the treesim benchmark from source and runs one workload.

    python3 perfbench/run.py --workload dblp_knn --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds a
Release tree under .bench_build/perfbench (a few minutes); later calls only
re-check it. Build output goes to stderr; the benchmark's report goes to
stdout, and its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
the traced replay (see perfbench/README.md). Exits non-zero, printing no
result, when the treesim sources or the build are missing.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "perfbench-work"
BINARY = BUILD_DIR / "perfbench"
# Wall-clock limits, seconds: a cold build, and one benchmark process.
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def build():
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        if not run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_logged(["cmake", "--build", str(BUILD_DIR), "--target",
                       "perfbench", "-j", jobs], BUILD_TIMEOUT)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-every", type=int, default=0,
                        help="test hook: corrupt every Nth answer before "
                             "it is checked (0 = never)")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "treesim.h").is_file():
        return fail(f"no treesim sources next to {HERE.name}/; run from a "
                    "full checkout of the repository")
    if not build():
        return fail("build failed")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--workdir={WORK_DIR}", f"--corrupt-every={args.corrupt_every}"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT, check=False)
    except subprocess.TimeoutExpired:
        return fail(f"benchmark exceeded {RUN_TIMEOUT} s and was stopped")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
