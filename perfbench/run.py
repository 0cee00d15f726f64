#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload serve-cold-mix --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source tree.  The program (perfbench/esbench.ml)
is built with dune under the `bench` profile into .bench_build/, with
the shared dune cache off, so a run reads and writes nothing outside
the tree.  Its standard
output passes through unchanged; the last line is the JSON result.
A failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/esbench.exe"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "esbench.exe")

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def build():
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--cache", "disabled", "--profile", "bench", "--display", "quiet", TARGET,
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        sys.exit("run.py: dune not found on PATH")
    except subprocess.TimeoutExpired:
        sys.exit("run.py: build timed out")
    if done.returncode != 0 or not os.path.exists(EXE):
        sys.exit("run.py: build failed")


def main(argv):
    build()
    try:
        done = subprocess.run([EXE] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark timed out")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
