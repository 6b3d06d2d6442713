// Experiment E14 (EXPERIMENTS.md): repair solve time vs solver thread count.
// The same 12-year cash-budget instance as E1's largest point, solved at
// 1/2/4/8 threads. Every connected component of the repair model is one
// serial branch-and-bound search; the thread count only decides how many
// components run at once, so B&B nodes and the repair are identical at every
// thread count and only the wall time may move. Counters: per-run B&B nodes,
// the wall time spent inside the MILP search itself (excluding
// translation/presolve), and the repair cardinality.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "milp/branch_and_bound.h"
#include "repair/engine.h"
#include "repair/translator.h"

namespace {

// End-to-end repair with an N-thread MILP solver.
void BM_RepairVsThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  dart::bench::Scenario scenario =
      dart::bench::MakeBudgetScenario(/*seed=*/42, /*years=*/12,
                                      /*num_errors=*/2);
  dart::repair::RepairEngineOptions options;
  options.milp.search.num_threads = threads;
  dart::repair::RepairEngine engine(options);
  double milp_wall = 0;
  size_t cardinality = 0;
  for (auto _ : state) {
    auto outcome =
        engine.ComputeRepair(scenario.acquired, scenario.constraints);
    DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
    benchmark::DoNotOptimize(outcome->repair.cardinality());
    milp_wall = outcome->stats.milp_wall_seconds;
    cardinality = outcome->repair.cardinality();
  }
  // One instrumented solve outside the timed loop supplies the search
  // counters.
  const dart::bench::SolveCounters counters =
      dart::bench::CollectRepairCounters(scenario, options);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["bb_nodes"] = static_cast<double>(counters.nodes);
  state.counters["milp_wall_s"] = milp_wall;
  state.counters["repair_card"] = static_cast<double>(cardinality);
}

BENCHMARK(BM_RepairVsThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The raw monolithic MILP solve alone (translation hoisted out of the loop):
// one model is one serial search, so this row is flat in the thread count.
void BM_MilpSolveVsThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  dart::bench::Scenario scenario =
      dart::bench::MakeBudgetScenario(/*seed=*/42, /*years=*/12,
                                      /*num_errors=*/2);
  auto translation =
      dart::repair::TranslateToMilp(scenario.acquired, scenario.constraints);
  DART_CHECK_MSG(translation.ok(), translation.status().ToString());
  dart::milp::MilpOptions options;
  options.objective_is_integral = true;
  options.search.num_threads = threads;
  for (auto _ : state) {
    dart::milp::MilpResult solved =
        dart::milp::SolveMilp(translation->model, options);
    DART_CHECK_MSG(solved.status == dart::milp::MilpResult::SolveStatus::kOptimal,
                   "thread-scaling bench instance must solve to optimality");
    benchmark::DoNotOptimize(solved.objective);
  }
  const dart::bench::SolveCounters counters =
      dart::bench::CollectMilpCounters(translation->model, options);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["bb_nodes"] = static_cast<double>(counters.nodes);
}

BENCHMARK(BM_MilpSolveVsThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Trace a 4-thread engine run so the per-component milp.instance spans
  // show up in the report.
  dart::repair::RepairEngineOptions options;
  options.milp.search.num_threads = 4;
  dart::bench::EmitRepairTrace(
      dart::bench::MakeBudgetScenario(/*seed=*/42, /*years=*/12,
                                      /*num_errors=*/2),
      "bench_thread_scaling", options);
  return 0;
}
