// Experiment E1 (EXPERIMENTS.md): repair-computation cost vs database size.
// The paper reports no numbers ("a more extensive experimental evaluation
// will be accomplished on larger data sets"); this bench provides exactly
// that sweep: cash budgets of 1..12 years (10 tuples and 4 ground equalities
// per year), 2 injected digit errors, time to compute a card-minimal repair.
// Counters: N (z/y/delta triples), ground rows, B&B nodes, LP iterations.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "constraints/ground.h"
#include "repair/engine.h"

namespace {

void BM_RepairVsYears(benchmark::State& state) {
  const int years = static_cast<int>(state.range(0));
  dart::bench::Scenario scenario =
      dart::bench::MakeBudgetScenario(/*seed=*/42, years, /*num_errors=*/2);
  dart::repair::RepairEngine engine;
  size_t cells = 0, rows = 0, cardinality = 0;
  double milp_wall = 0;
  dart::repair::RepairStats stats;
  for (auto _ : state) {
    auto outcome =
        engine.ComputeRepair(scenario.acquired, scenario.constraints);
    DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
    benchmark::DoNotOptimize(outcome->repair.cardinality());
    cells = outcome->stats.num_cells;
    rows = outcome->stats.num_ground_rows;
    cardinality = outcome->repair.cardinality();
    milp_wall = outcome->stats.milp_wall_seconds;
    stats = outcome->stats;
  }
  // Search counters come from one instrumented solve after the timed loop
  // (deterministic at the engine's default single-thread setting), keeping
  // the timed runs uninstrumented.
  const dart::bench::SolveCounters counters =
      dart::bench::CollectRepairCounters(scenario);
  state.counters["N_cells"] = static_cast<double>(cells);
  state.counters["ground_rows"] = static_cast<double>(rows);
  state.counters["bb_nodes"] = static_cast<double>(counters.nodes);
  state.counters["lp_iters"] = static_cast<double>(counters.lp_iterations);
  state.counters["repair_card"] = static_cast<double>(cardinality);
  state.counters["milp_wall_s"] = milp_wall;
  state.counters["matrix_rows"] = static_cast<double>(stats.matrix_rows);
  state.counters["matrix_cols"] = static_cast<double>(stats.matrix_cols);
  state.counters["matrix_nnz"] = static_cast<double>(stats.matrix_nnz);
  state.counters["matrix_density"] = stats.matrix_density;
}

BENCHMARK(BM_RepairVsYears)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Arg(8)
    ->Arg(12)
    ->Unit(benchmark::kMillisecond);

// BM_RepairVsYears with a live RunContext attached: every solve publishes
// its counters and spans — plus one labeled series incremented per solve
// (the serve-layer idiom: precompute the encoded key, pay an unlabeled
// lookup per hit), so the gate measures the registry with labels enabled.
// Compared against the plain BM_RepairVsYears/12 row by
// scripts/trace_report.py --overhead (gated at < 2% in reproduce.sh) — the
// registry's sharded counters must stay invisible next to the solve.
void BM_RepairVsYearsObserved(benchmark::State& state) {
  const int years = static_cast<int>(state.range(0));
  dart::bench::Scenario scenario =
      dart::bench::MakeBudgetScenario(/*seed=*/42, years, /*num_errors=*/2);
  dart::obs::RunContext run;
  dart::repair::RepairEngineOptions options;
  options.run = &run;
  dart::repair::RepairEngine engine(options);
  const std::string solves_series =
      dart::obs::LabeledName("bench.solves", {{"tenant", "scaling"}});
  for (auto _ : state) {
    auto outcome =
        engine.ComputeRepair(scenario.acquired, scenario.constraints);
    DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
    benchmark::DoNotOptimize(outcome->repair.cardinality());
    run.metrics().AddCounter(solves_series);
  }
  const auto snapshot = run.metrics().Snapshot();
  state.counters["obs_nodes"] =
      static_cast<double>(snapshot.Counter("milp.nodes"));
  DART_CHECK_MSG(snapshot.Counter("bench.solves",
                                  {{"tenant", "scaling"}}) ==
                     static_cast<int64_t>(state.iterations()),
                 "labeled bench.solves counter diverged from iterations");
}

BENCHMARK(BM_RepairVsYearsObserved)->Arg(12)->Unit(benchmark::kMillisecond);

// Same sweep but growing the *width* of each year (more detail lines per
// section) instead of the number of years: distinguishes "more ground
// constraints" from "bigger ground constraints".
void BM_RepairVsDetails(benchmark::State& state) {
  const int details = static_cast<int>(state.range(0));
  dart::bench::Scenario scenario = dart::bench::MakeBudgetScenario(
      /*seed=*/43, /*years=*/2, /*num_errors=*/2, details, details);
  dart::repair::RepairEngine engine;
  size_t cells = 0;
  for (auto _ : state) {
    auto outcome =
        engine.ComputeRepair(scenario.acquired, scenario.constraints);
    DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
    benchmark::DoNotOptimize(outcome->repair.cardinality());
    cells = outcome->stats.num_cells;
  }
  state.counters["N_cells"] = static_cast<double>(cells);
}

BENCHMARK(BM_RepairVsDetails)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Translation alone (grounding + model building), isolating it from the
// solver.
void BM_TranslateVsYears(benchmark::State& state) {
  const int years = static_cast<int>(state.range(0));
  dart::bench::Scenario scenario =
      dart::bench::MakeBudgetScenario(/*seed=*/44, years, /*num_errors=*/2);
  for (auto _ : state) {
    auto translation =
        dart::repair::TranslateToMilp(scenario.acquired, scenario.constraints);
    DART_CHECK_MSG(translation.ok(), translation.status().ToString());
    benchmark::DoNotOptimize(translation->model.num_variables());
  }
}

BENCHMARK(BM_TranslateVsYears)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Grounding alone: S(AC) of the cash-budget program over budgets of 25..200
// years (10 tuples and 5 ground rows per year), the layer every detection
// and repair pays before anything else.
void BM_GroundVsYears(benchmark::State& state) {
  const int years = static_cast<int>(state.range(0));
  dart::bench::Scenario scenario =
      dart::bench::MakeBudgetScenario(/*seed=*/45, years, /*num_errors=*/2);
  size_t rows = 0;
  for (auto _ : state) {
    auto ground = dart::cons::GroundConstraintProgram(scenario.acquired,
                                                      scenario.constraints);
    DART_CHECK_MSG(ground.ok(), ground.status().ToString());
    rows = ground->rows.size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["ground_rows"] = static_cast<double>(rows);
}

BENCHMARK(BM_GroundVsYears)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dart::bench::EmitRepairTrace(
      dart::bench::MakeBudgetScenario(/*seed=*/42, /*years=*/12,
                                      /*num_errors=*/2),
      "bench_repair_scaling");
  return 0;
}
