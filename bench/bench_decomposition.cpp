// Experiment E16 (EXPERIMENTS.md): constraint-graph decomposition vs the
// monolithic solve. The fixture merges several independently acquired
// cash-budget documents into one database (MakeMultiDocScenario): documents
// never share a ground constraint, so the repair MILP has one connected
// component per document (and usually more — the budget's per-year structure
// splits further). Branch-and-bound tree sizes multiply with instance size,
// so solving K blocks of size N/K — one serial search each, several at once —
// beats one size-N search by far more than the thread count alone.
//
// Three views:
//   BM_MilpMonolithic / BM_MilpDecomposed — the raw MILP solve over the same
//     translated model, 4 threads, sweeping the document count. Objectives
//     are asserted identical; the acceptance bar is decomposed ≥ 2x faster
//     at ≥ 4 documents.
//   BM_EngineVsPins — the full engine with decomposition on/off under a
//     sweep of documents x operator-pin fraction (pins are validation-loop
//     confirmations at the true value, applied as bound changes on their
//     components). Counters surface the component shape that RepairStats
//     carries.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_util.h"
#include "milp/branch_and_bound.h"
#include "milp/decompose.h"
#include "repair/engine.h"
#include "repair/translator.h"

namespace {

// Kept deliberately small: branch-and-bound subtree sizes of the independent
// documents MULTIPLY in the monolithic search, so even 3-year documents give
// the monolithic solver an exponentially growing instance at 4+ documents.
constexpr int kYears = 3;
constexpr size_t kErrorsPerDoc = 1;

dart::bench::Scenario MultiDoc(int docs) {
  return dart::bench::MakeMultiDocScenario(/*seed=*/42, docs, kYears,
                                           kErrorsPerDoc);
}

// Whole-model branch-and-bound on the merged instance. num_threads = 4 as in
// the decomposed row, but a single model is always one serial search.
void BM_MilpMonolithic(benchmark::State& state) {
  const int docs = static_cast<int>(state.range(0));
  const dart::bench::Scenario scenario = MultiDoc(docs);
  auto translation =
      dart::repair::TranslateToMilp(scenario.acquired, scenario.constraints);
  DART_CHECK_MSG(translation.ok(), translation.status().ToString());
  dart::milp::MilpOptions options;
  options.objective_is_integral = true;
  options.search.num_threads = 4;
  for (auto _ : state) {
    dart::milp::MilpResult solved =
        dart::milp::SolveMilp(translation->model, options);
    DART_CHECK_MSG(solved.status == dart::milp::MilpResult::SolveStatus::kOptimal,
                   "E16 monolithic instance must solve to optimality");
    benchmark::DoNotOptimize(solved.objective);
  }
  state.counters["docs"] = static_cast<double>(docs);
  state.counters["bb_nodes"] = static_cast<double>(
      dart::bench::CollectMilpCounters(translation->model, options).nodes);
}

// The same translated model through DecomposeModel + SolveMilpBatch.
void BM_MilpDecomposed(benchmark::State& state) {
  const int docs = static_cast<int>(state.range(0));
  const dart::bench::Scenario scenario = MultiDoc(docs);
  auto translation =
      dart::repair::TranslateToMilp(scenario.acquired, scenario.constraints);
  DART_CHECK_MSG(translation.ok(), translation.status().ToString());
  dart::milp::MilpOptions options;
  options.objective_is_integral = true;
  options.search.num_threads = 4;
  // The monolithic optimum, for the identical-objective assertion.
  const dart::milp::MilpResult whole =
      dart::milp::SolveMilp(translation->model, options);
  DART_CHECK_MSG(whole.status == dart::milp::MilpResult::SolveStatus::kOptimal,
                 "E16 instance must solve to optimality");
  int components = 0, largest = 0;
  for (auto _ : state) {
    dart::milp::MilpResult solved =
        dart::milp::SolveMilpDecomposed(translation->model, options);
    DART_CHECK_MSG(solved.status == dart::milp::MilpResult::SolveStatus::kOptimal,
                   "E16 decomposed instance must solve to optimality");
    DART_CHECK_MSG(std::fabs(solved.objective - whole.objective) < 1e-6,
                   "decomposed objective must equal the monolithic optimum");
    benchmark::DoNotOptimize(solved.objective);
    components = solved.num_components;
    largest = solved.largest_component_vars;
  }
  // Node count of one instrumented decomposed solve, from the registry.
  dart::obs::RunContext run;
  dart::milp::MilpOptions counted = options;
  counted.run = &run;
  const dart::obs::MetricsSnapshot base = run.metrics().Snapshot();
  benchmark::DoNotOptimize(
      dart::milp::SolveMilpDecomposed(translation->model, counted).objective);
  state.counters["docs"] = static_cast<double>(docs);
  state.counters["bb_nodes"] =
      static_cast<double>(dart::bench::CountersSince(run, base).nodes);
  state.counters["components"] = static_cast<double>(components);
  state.counters["largest_comp_vars"] = static_cast<double>(largest);
}

// Full engine, documents x pin-fraction sweep. Pins confirm a deterministic
// subset of measure cells at their true values, as the validation loop
// would; each pin is a bound change on its cell's component.
void BM_EngineVsPins(benchmark::State& state) {
  const bool decompose = state.range(0) != 0;
  const int docs = static_cast<int>(state.range(1));
  const int pin_percent = static_cast<int>(state.range(2));
  const dart::bench::Scenario scenario = MultiDoc(docs);

  std::vector<dart::repair::FixedValue> pins;
  const std::vector<dart::rel::CellRef> cells =
      scenario.truth.MeasureCells();
  for (size_t i = 0; i < cells.size(); ++i) {
    if (static_cast<int>(i % 100) >= pin_percent) continue;
    auto value = scenario.truth.ValueAt(cells[i]);
    DART_CHECK_MSG(value.ok(), value.status().ToString());
    pins.push_back(dart::repair::FixedValue{cells[i], value->AsReal()});
  }

  dart::repair::RepairEngineOptions options;
  options.milp.decomposition.use_components = decompose;
  options.milp.search.num_threads = 4;
  dart::repair::RepairEngine engine(options);
  dart::repair::RepairStats stats;
  size_t cardinality = 0;
  for (auto _ : state) {
    auto outcome = engine.ComputeRepair(scenario.acquired,
                                        scenario.constraints, pins);
    DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
    benchmark::DoNotOptimize(outcome->repair.cardinality());
    stats = outcome->stats;
    cardinality = outcome->repair.cardinality();
  }
  state.counters["decomposed"] = decompose ? 1 : 0;
  state.counters["docs"] = static_cast<double>(docs);
  state.counters["pin_pct"] = static_cast<double>(pin_percent);
  state.counters["repair_card"] = static_cast<double>(cardinality);
  state.counters["components"] = static_cast<double>(stats.num_components);
  state.counters["largest_comp_vars"] =
      static_cast<double>(stats.largest_component_vars);
  state.counters["bb_nodes"] = static_cast<double>(
      dart::bench::CollectRepairCounters(scenario, options, pins).nodes);
}

BENCHMARK(BM_MilpMonolithic)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_MilpDecomposed)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_EngineVsPins)
    ->Args({0, 4, 0})
    ->Args({1, 4, 0})
    ->Args({0, 4, 25})
    ->Args({1, 4, 25})
    ->Args({0, 6, 50})
    ->Args({1, 6, 50})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Trace the 4-document decomposed engine run: milp.components and the
  // batch/worker span tree are the interesting artifacts here.
  dart::repair::RepairEngineOptions options;
  options.milp.search.num_threads = 4;
  dart::bench::EmitRepairTrace(MultiDoc(4), "bench_decomposition", options);
  return 0;
}
