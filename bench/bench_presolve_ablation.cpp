// Experiment E12 (EXPERIMENTS.md): pinned-repair cost. Operator value pins
// (Sec. 6.3) enter the repair core as bound changes z ∈ [v, v] on their
// component (repair/incremental.h); the engine formerly added them as
// singleton rows and presolved them away, which this bench used to ablate.
// It now measures one-shot repair time as the number of pinned cells grows
// — the workload of a validation session in its later iterations.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "repair/engine.h"

namespace {

using dart::bench::MakeBudgetScenario;
using dart::bench::Scenario;

std::vector<dart::repair::FixedValue> MakePins(const Scenario& scenario,
                                               size_t count) {
  // Pin the first `count` measure cells to their (true) values — what a
  // validation session has accumulated after examining them.
  std::vector<dart::repair::FixedValue> pins;
  const auto cells = scenario.truth.MeasureCells();
  for (size_t i = 0; i < count && i < cells.size(); ++i) {
    auto value = scenario.truth.ValueAt(cells[i]);
    DART_CHECK(value.ok());
    pins.push_back(dart::repair::FixedValue{cells[i], value->AsReal()});
  }
  return pins;
}

void BM_PinnedRepair(benchmark::State& state) {
  const size_t pins_count = static_cast<size_t>(state.range(0));
  Scenario scenario = MakeBudgetScenario(/*seed=*/77, /*years=*/6,
                                         /*num_errors=*/3);
  const auto pins = MakePins(scenario, pins_count);
  const dart::repair::RepairEngineOptions options;
  const dart::repair::RepairEngine engine(options);
  size_t cardinality = 0;
  for (auto _ : state) {
    auto outcome =
        engine.ComputeRepair(scenario.acquired, scenario.constraints, pins);
    DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
    cardinality = outcome->repair.cardinality();
    benchmark::DoNotOptimize(cardinality);
  }
  state.counters["repair_card"] = static_cast<double>(cardinality);
  state.counters["lp_iters"] = static_cast<double>(
      dart::bench::CollectRepairCounters(scenario, options, pins)
          .lp_iterations);
}

BENCHMARK(BM_PinnedRepair)
    ->Arg(0)
    ->Arg(10)
    ->Arg(30)
    ->Arg(50)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Trace the bench's own workload: the 30-pin validation-session shape.
  Scenario scenario = MakeBudgetScenario(/*seed=*/77, /*years=*/6,
                                         /*num_errors=*/3);
  const auto pins = MakePins(scenario, 30);
  dart::bench::EmitRepairTrace(scenario, "bench_presolve_ablation", {}, pins);
  return 0;
}
