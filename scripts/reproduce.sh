#!/usr/bin/env bash
# Builds everything, runs the full test suite, and regenerates every
# experiment of EXPERIMENTS.md, leaving test_output.txt and bench_output.txt
# in the repository root.
set -uo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Every bench binary runs under a 600 s wall-clock limit; one that runs out
# is reported and fails the script at the very end, after the remaining
# binaries and every gate below have run.
# The names go to a file because run_bench also runs inside pipelines
# (subshells).
timed_out_file="$(mktemp)"
trap 'rm -f "$timed_out_file"' EXIT
run_bench() {
  timeout 600 "$@"
  local status=$?
  if [ "$status" -eq 124 ]; then
    echo "TIMEOUT: $(basename "$1") exceeded 600s" >&2
    basename "$1" >> "$timed_out_file"
  fi
  return "$status"
}

: > bench_output.txt
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue  # skips CMakeFiles/
  echo "===== $(basename "$b") =====" | tee -a bench_output.txt
  run_bench "$b" 2>&1 | tee -a bench_output.txt
  echo | tee -a bench_output.txt
done

# Machine-readable pass: each google-benchmark binary again with JSON output,
# one BENCH_<name>.json per binary at the repo root (diffable against the
# checked-in BENCH_bench_repair_scaling.seed.json baseline).
GBENCHES="bench_repair_scaling bench_repair_errors bench_solver_ablation \
bench_end_to_end bench_presolve_ablation bench_thread_scaling \
bench_warmstart_ablation bench_decomposition bench_sparse_kernel \
bench_incremental bench_batch_throughput bench_server"
for name in $GBENCHES; do
  b="build/bench/$name"
  [ -x "$b" ] || continue
  echo "===== $name (json) ====="
  run_bench "$b" --benchmark_format=json > "BENCH_${name}.json"
done

# Regression gate: the fresh E1 sweep must stay within 1.3x of the committed
# seed baseline (wall time per benchmark).
python3 scripts/check_bench_regression.py \
  BENCH_bench_repair_scaling.json BENCH_bench_repair_scaling.seed.json \
  --max-ratio 1.3 || exit 1

# E16 gate: the decomposition sweep must stay within 1.3x of its seed — in
# particular the decomposed solves must not creep back toward the monolithic
# times.
python3 scripts/check_bench_regression.py \
  BENCH_bench_decomposition.json BENCH_bench_decomposition.seed.json \
  --max-ratio 1.3 || exit 1

# E18 gate: the sparse-vs-dense kernel sweep must stay within 1.3x of its
# seed — in particular the sparse monolithic solves must keep their >= 3x
# margin over the dense oracle rows recorded in the baseline.
python3 scripts/check_bench_regression.py \
  BENCH_bench_sparse_kernel.json BENCH_bench_sparse_kernel.seed.json \
  --max-ratio 1.3 || exit 1

# E19 gate: the incremental-session sweep must stay within 1.3x of its seed
# — in particular the incremental rows must not creep back toward the
# from-scratch per-iteration times.
python3 scripts/check_bench_regression.py \
  BENCH_bench_incremental.json BENCH_bench_incremental.seed.json \
  --max-ratio 1.3 || exit 1

# E20 gate: the batch-ingestion sweep must stay within 1.3x of its seed — in
# particular ProcessBatch must not creep back toward the serial-loop times
# (the bench binary itself enforces the >= 3x / >= 0.70-utilization gates on
# hosts with enough hardware threads).
python3 scripts/check_bench_regression.py \
  BENCH_bench_batch_throughput.json BENCH_bench_batch_throughput.seed.json \
  --max-ratio 1.3 || exit 1

# E21 gate: the multi-tenant serving sweep must stay within 1.3x of its seed
# — the shared-pool dispatch and admission path must not grow per-request
# overhead (the bench binary itself enforces the admission and parity gates
# on every invocation).
python3 scripts/check_bench_regression.py \
  BENCH_bench_server.json BENCH_bench_server.seed.json \
  --max-ratio 1.3 || exit 1

# Observability gates (E17, docs/observability.md): every benchmark binary
# leaves an OBS_<name>.trace.json run report behind. Each must be
# schema-valid with zero dropped spans (the default trace capacity has to
# hold a full benchmark run); the end-to-end report is rendered as the
# canonical per-stage breakdown; the instrumented repair benchmark must cost
# < 2% over its uninstrumented twin; and the 250 ms exporter stream from the
# end-to-end run must telescope exactly to its run report's counters.
python3 scripts/trace_report.py validate --max-spans-dropped 0 \
  OBS_*.trace.json || exit 1
python3 scripts/trace_report.py report OBS_bench_end_to_end.trace.json
python3 scripts/trace_report.py overhead BENCH_bench_repair_scaling.json \
  --max-overhead 0.02 || exit 1
python3 scripts/trace_report.py stream OBS_bench_end_to_end.metrics.jsonl \
  --against-report OBS_bench_end_to_end.trace.json || exit 1
# E20: the per-document pipeline.acquire spans inside pipeline.batch must
# genuinely overlap in time — proof the acquisition fan-out is concurrent,
# not a serialized loop wearing batch spans.
python3 scripts/trace_report.py overlap \
  OBS_bench_batch_throughput.trace.json || exit 1
# E21: bench_server's second trace uses a deliberately tiny churned ring
# (hence the TAIL_ prefix, exempting it from the zero-drop glob above); the
# slow early requests must survive the churn via tail sampling.
python3 scripts/trace_report.py tails TAIL_bench_server.trace.json \
  --name serve.request.t0 --min-count 4 --require-drops || exit 1
# Per-tenant SLO gate: bench_server's 4-tenant skewed-load demo writes one
# dart.serve.status document; it must be schema-valid with exact error-budget
# arithmetic and show the deliberate breached-vs-met SLO pair.
python3 scripts/trace_report.py slo SERVE_bench_server.status.json \
  --require-breached 1 --require-met 1 || exit 1
# Chrome trace-event conversion must stay loadable: bench_server also writes
# CHROME_bench_server.trace.json natively, and the Python converter must
# round-trip the end-to-end report.
python3 scripts/trace_report.py chrome OBS_bench_end_to_end.trace.json \
  --out CHROME_bench_end_to_end.trace.json || exit 1

if [ -s "$timed_out_file" ]; then
  echo "FAILED: bench binaries timed out:" $(cat "$timed_out_file") >&2
  exit 1
fi

echo "Done: test_output.txt, bench_output.txt, BENCH_*.json," \
  "OBS_*.trace.json, SERVE_bench_server.status.json," \
  "CHROME_*.trace.json, OBS_bench_end_to_end.metrics.jsonl"
