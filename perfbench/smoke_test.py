#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, briefly, in both modes.

    python3 perfbench/smoke_test.py

Run from the repository root (it builds through run.py). For each workload
of BENCHMARK.json it runs one short untraced and one short traced run and
checks that the last stdout line is the result object, that every other
line is a "# " comment, that the run was correct, and that exactly the
end-to-end (untraced) or per-layer (traced) metrics of BENCHMARK.json are
printed, each with its unit. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {done.returncode}")
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        if not line.startswith("# "):
            raise AssertionError(f"{workload}: stray output line {line!r}")
    return json.loads(lines[-1])


def check(workload, trace, result, expected):
    where = f"{workload} trace={trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        raise AssertionError(f"{where}: incorrect run {result}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError(f"{where}: attempted {result['attempted']}")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(metric["name"] for metric in expected):
        raise AssertionError(f"{where}: metrics {sorted(metrics)}")
    for metric in expected:
        printed = metrics[metric["name"]]
        if printed.get("unit") != metric["unit"]:
            raise AssertionError(f"{where}: {metric['name']} unit {printed}")
        if not isinstance(printed.get("value"), (int, float)):
            raise AssertionError(f"{where}: {metric['name']} value {printed}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            check(workload, trace, run(workload, trace), expected)
            print(f"ok  {workload} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
