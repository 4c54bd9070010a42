#!/usr/bin/env python3
"""Builds the process-runtime benchmark from this checkout and runs one
workload.

    python3 tpmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/tpmbench (configured on first use, then
incremental); scratch WAL directories go to .bench_build/runs and the
traced run's span log to .bench_build/traces. Build output goes to
stderr; the benchmark's own output, whose last line is the JSON result,
goes to stdout. Any further arguments (e.g. --scale) are passed through.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tpmbench")
BINARY = os.path.join(BUILD_DIR, "tpmbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"tpmbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "sharded_runtime.h")):
        fail("library sources (src/) not found next to the benchmark")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args, passthrough = parser.parse_known_args()

    build()
    os.chdir(ROOT)
    command = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", os.path.join(".bench_build", "runs"),
        "--trace-out", os.path.join(".bench_build", "traces",
                                    f"{args.workload}-seed{args.seed}.csv"),
    ] + passthrough
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode != 0:
        sys.exit(result.returncode)
    lines = result.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail("the benchmark printed no result")


if __name__ == "__main__":
    main()
