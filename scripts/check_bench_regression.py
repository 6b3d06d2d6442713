#!/usr/bin/env python3
"""Guard against wall-time regressions in the benchmark suite.

Compares a freshly produced google-benchmark JSON file against a committed
baseline (by default the seed baseline BENCH_bench_repair_scaling.seed.json)
and fails when any benchmark common to both files is slower than
--max-ratio x the baseline real_time. Benchmarks present in only one file
are reported but never fail the check (the suite is allowed to grow).

Usage:
  scripts/check_bench_regression.py FRESH.json BASELINE.json [--max-ratio 1.3]

Exit status: 0 = no regression, 1 = at least one regression, 2 = bad input.
"""

import argparse
import json
import sys


def row_name(name):
    """google-benchmark appends "/real_time" to the names of UseRealTime()
    rows; drop it so a row still matches its baseline after the switch
    (real_time is recorded either way)."""
    return name[: -len("/real_time")] if name.endswith("/real_time") else name


def load_benchmarks(path):
    """Returns {benchmark name: real_time in ns} for aggregate-free entries."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    out = {}
    for entry in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if repetitions were used.
        if entry.get("run_type") == "aggregate":
            continue
        name = entry.get("name")
        time = entry.get("real_time")
        if name is None or time is None:
            continue
        unit = entry.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            print(f"error: unknown time_unit {unit!r} in {path}", file=sys.stderr)
            sys.exit(2)
        out[row_name(name)] = time * scale
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly generated benchmark JSON")
    parser.add_argument("baseline", help="committed baseline benchmark JSON")
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=1.3,
        help="fail when fresh/baseline real_time exceeds this (default 1.3)",
    )
    args = parser.parse_args()

    fresh = load_benchmarks(args.fresh)
    baseline = load_benchmarks(args.baseline)
    if not baseline:
        print(f"error: no benchmarks in baseline {args.baseline}", file=sys.stderr)
        sys.exit(2)

    regressions = []
    print(f"{'benchmark':<40} {'base_ms':>10} {'fresh_ms':>10} {'ratio':>7}")
    for name in sorted(baseline):
        if name not in fresh:
            print(f"{name:<40} {'(missing in fresh run; skipped)':>29}")
            continue
        base_ns = baseline[name]
        fresh_ns = fresh[name]
        ratio = fresh_ns / base_ns if base_ns > 0 else float("inf")
        flag = " REGRESSION" if ratio > args.max_ratio else ""
        print(
            f"{name:<40} {base_ns / 1e6:>10.2f} {fresh_ns / 1e6:>10.2f}"
            f" {ratio:>6.2f}x{flag}"
        )
        if ratio > args.max_ratio:
            regressions.append((name, ratio))
    for name in sorted(set(fresh) - set(baseline)):
        print(f"{name:<40} {'(new; no baseline, skipped)':>29}")

    if regressions:
        print(
            f"\nFAIL: {len(regressions)} benchmark(s) regressed beyond "
            f"{args.max_ratio:.2f}x:",
            file=sys.stderr,
        )
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
        sys.exit(1)
    print(f"\nOK: no benchmark exceeded {args.max_ratio:.2f}x of baseline.")


if __name__ == "__main__":
    main()
