#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 tpmbench/smoke.py

Runs every workload at a tiny size, untraced and traced, through
tpmbench/run.py: those BENCHMARK.json gates and the ungated ones
README.md describes. Asserts that each run is correct, that the
untraced run prints every end-to-end metric and the traced run every
per-layer metric, each with its unit and a finite value, and that the
traced run's span log holds spans of every layer. Exits 0 when all pass.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYERS = ("runtime.", "core.", "subsystem.", "log.", "bench.")
# Runnable but not gated (see README.md, "Findings").
UNGATED = ("pay_open", "pay_durable", "orders_contended")
SCALE = "0.02"


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--scale", SCALE]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, timeout=900)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        return None, f"exit code {result.returncode}"
    return json.loads(lines[-1]), ""


def check_metrics(result, expected, gated):
    """A gated workload prints exactly the listed metrics; an ungated one
    may print more (pay_open's span and generator figures)."""
    problems = []
    names = {m["name"] for m in expected}
    got = set(result["metrics"])
    if (got != names) if gated else not names <= got:
        problems.append("metric names differ: " + ", ".join(
            sorted((got ^ names) if gated else (names - got))))
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None:
            continue
        if got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']}: unit {got.get('unit')}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{metric['name']}: value {value}")
    return problems


def check_spans(workload):
    path = os.path.join(ROOT, ".bench_build", "traces", f"{workload}-seed7.csv")
    names = set()
    with open(path) as spans:
        for line in spans:
            fields = line.strip().split(",")
            if len(fields) == 6 and not line.startswith(("#", "id,")):
                names.add(fields[3])
    return [f"no span of layer {layer[:-1]}" for layer in LAYERS
            if not any(name.startswith(layer) for name in names)]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    gated = [w["name"] for w in spec["workloads"]]
    for workload in gated + list(UNGATED):
        for trace in (0, 1):
            result, error = run(workload, trace)
            problems = [error] if result is None else []
            if result is not None:
                if not result["correct"]:
                    problems.append("run reported incorrect output")
                if result["attempted"] < 1 or result["failed"] != 0:
                    problems.append(f"attempted {result['attempted']}, "
                                    f"failed {result['failed']}")
                problems += check_metrics(
                    result, spec["per_layer" if trace else "end_to_end"],
                    workload in gated)
                if trace:
                    problems += check_spans(workload)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}", flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
