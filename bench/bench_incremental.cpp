// Experiment E19 (EXPERIMENTS.md): incremental cross-iteration re-solve.
// Supervised validation sessions on 4- and 8-document corpora run through
// the component session (repair/incremental.h): translate + decompose once,
// re-solve only the components the newest operator pins touched, stitch
// cached optima for the rest. A batch size of 1 maximizes iteration count,
// which is the regime the persisted state exists for. The rows keep their
// `incremental:1` names so the seeded E19 gate still matches them.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.h"
#include "validation/operator.h"
#include "validation/session.h"

namespace {

dart::validation::SessionOptions SessionOptionsFor() {
  dart::validation::SessionOptions options;
  options.examine_batch = 1;
  return options;
}

void BM_ValidationSession(benchmark::State& state) {
  const int docs = static_cast<int>(state.range(0));
  const dart::bench::Scenario scenario = dart::bench::MakeMultiDocScenario(
      /*seed=*/19, docs, /*years=*/2, /*errors_per_doc=*/2);
  const dart::validation::SimulatedOperator op(&scenario.truth);
  const dart::validation::SessionOptions options = SessionOptionsFor();
  size_t loop_iterations = 0;
  for (auto _ : state) {
    auto result = dart::validation::RunValidationSession(
        scenario.acquired, scenario.constraints, op, options);
    DART_CHECK_MSG(result.ok(), result.status().ToString());
    DART_CHECK_MSG(result->converged, "E19 session did not converge");
    loop_iterations = result->iterations;
    benchmark::DoNotOptimize(result->repaired);
  }
  // One explicitly timed session outside the benchmark loop gives the
  // headline per-iteration figure without depending on the harness's
  // averaging.
  const auto t0 = std::chrono::steady_clock::now();
  auto timed = dart::validation::RunValidationSession(
      scenario.acquired, scenario.constraints, op, options);
  DART_CHECK_MSG(timed.ok(), timed.status().ToString());
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  state.counters["loop_iters"] = static_cast<double>(loop_iterations);
  state.counters["per_iter_ms"] =
      seconds * 1e3 / static_cast<double>(timed->iterations);

  // Component-reuse accounting.
  dart::obs::RunContext run;
  dart::validation::SessionOptions instrumented = SessionOptionsFor();
  instrumented.run = &run;
  auto traced = dart::validation::RunValidationSession(
      scenario.acquired, scenario.constraints, op, instrumented);
  DART_CHECK_MSG(traced.ok(), traced.status().ToString());
  const dart::obs::MetricsSnapshot snap = run.metrics().Snapshot();
  state.counters["dirty_comps"] =
      static_cast<double>(snap.Counter("repair.incremental.dirty_components"));
  state.counters["clean_reused"] =
      static_cast<double>(snap.Counter("repair.incremental.clean_reused"));
  state.counters["translate_skipped"] = static_cast<double>(
      snap.Counter("repair.incremental.translate_skipped"));
}

// range(1) is always 1: the from-scratch rows (0) went with the
// from-scratch session path; the name keeps matching the seed baseline.
BENCHMARK(BM_ValidationSession)
    ->ArgsProduct({{4, 8}, {1}})
    ->ArgNames({"docs", "incremental"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // E17 contract: every bench binary leaves a schema-valid OBS trace. One
  // instrumented incremental session is representative of the workload.
  {
    const dart::bench::Scenario scenario = dart::bench::MakeMultiDocScenario(
        /*seed=*/19, /*docs=*/4, /*years=*/2, /*errors_per_doc=*/2);
    const dart::validation::SimulatedOperator op(&scenario.truth);
    dart::obs::RunContext run;
    dart::validation::SessionOptions options = SessionOptionsFor();
    options.run = &run;
    auto result = dart::validation::RunValidationSession(
        scenario.acquired, scenario.constraints, op, options);
    DART_CHECK_MSG(result.ok(), result.status().ToString());
    dart::bench::WriteBenchTrace(run, "bench_incremental");
  }
  return 0;
}
