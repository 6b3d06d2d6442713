// Experiment E18 (EXPERIMENTS.md): sparse revised simplex kernel vs the
// dense tableau oracle. The dense kernel carries a full (m+1)x(n+m+1)
// tableau and rewrites O(m·n) entries per pivot; the sparse kernel holds the
// basis as an LU eta file, solves FTRAN/BTRAN against the factors, and pays
// only for the nonzeros the pivot actually touches. DART's S*(AC) matrices
// are extremely sparse (2–3-term S'/S'' stencils plus per-document ground
// rows), so the revised kernel's advantage grows with instance size.
//
// Two views:
//   BM_MilpMonolithicKernel — the raw monolithic MILP solve over the merged
//     multi-document model (the E16 fixture), 4 threads, kernel x docs.
//     Objectives are asserted identical across kernels; the acceptance bar
//     is sparse ≥ 3x faster at 6 documents.
//   BM_EngineKernel — the full repair engine (decomposition on, its
//     default) under a kernel x years sweep of single-document cash
//     budgets; shows the kernel delta that survives the model-shrinking
//     stages. Counters surface the constraint-matrix sparsity
//     (RepairStats::matrix_*) that motivates the revised kernel.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_util.h"
#include "milp/branch_and_bound.h"
#include "repair/engine.h"
#include "repair/translator.h"

namespace {

// The E16 merged-document fixture: documents never share a ground row, so
// the monolithic search multiplies their subtree sizes — the worst case for
// the dense tableau, whose pivots also grow quadratically with the merge.
constexpr int kYears = 3;
constexpr size_t kErrorsPerDoc = 1;

dart::bench::Scenario MultiDoc(int docs) {
  return dart::bench::MakeMultiDocScenario(/*seed=*/42, docs, kYears,
                                           kErrorsPerDoc);
}

dart::milp::LpKernel KernelArg(int64_t arg) {
  return arg != 0 ? dart::milp::LpKernel::kDense
                  : dart::milp::LpKernel::kSparse;
}

// Whole-model branch-and-bound on the merged instance, 4 threads, by kernel.
void BM_MilpMonolithicKernel(benchmark::State& state) {
  const dart::milp::LpKernel kernel = KernelArg(state.range(0));
  const int docs = static_cast<int>(state.range(1));
  const dart::bench::Scenario scenario = MultiDoc(docs);
  auto translation =
      dart::repair::TranslateToMilp(scenario.acquired, scenario.constraints);
  DART_CHECK_MSG(translation.ok(), translation.status().ToString());

  dart::milp::MilpOptions options;
  options.objective_is_integral = true;
  options.search.num_threads = 4;
  options.lp.kernel = kernel;

  // Cross-kernel oracle check before timing: both kernels must report the
  // same optimum on this instance.
  dart::milp::MilpOptions oracle_options = options;
  oracle_options.lp.kernel = kernel == dart::milp::LpKernel::kSparse
                                 ? dart::milp::LpKernel::kDense
                                 : dart::milp::LpKernel::kSparse;
  const dart::milp::MilpResult oracle =
      dart::milp::SolveMilp(translation->model, oracle_options);
  DART_CHECK_MSG(oracle.status == dart::milp::MilpResult::SolveStatus::kOptimal,
                 "E18 oracle solve must be optimal");

  for (auto _ : state) {
    dart::milp::MilpResult solved =
        dart::milp::SolveMilp(translation->model, options);
    DART_CHECK_MSG(
        solved.status == dart::milp::MilpResult::SolveStatus::kOptimal,
        "E18 monolithic instance must solve to optimality");
    DART_CHECK_MSG(std::fabs(solved.objective - oracle.objective) < 1e-6,
                   "kernels must agree on the optimal objective");
    benchmark::DoNotOptimize(solved.objective);
  }

  const dart::bench::SolveCounters counters =
      dart::bench::CollectMilpCounters(translation->model, options);
  state.counters["dense"] = state.range(0) ? 1 : 0;
  state.counters["docs"] = static_cast<double>(docs);
  state.counters["bb_nodes"] = static_cast<double>(counters.nodes);
  state.counters["lp_iters"] = static_cast<double>(counters.lp_iterations);
  state.counters["refactors"] =
      static_cast<double>(counters.lp_refactorizations);
  state.counters["eta_updates"] = static_cast<double>(counters.lp_eta_updates);
  state.counters["matrix_nnz"] =
      static_cast<double>(translation->matrix_nnz);
  state.counters["matrix_density"] = translation->matrix_density;
}

// Full repair engine (default decomposition), kernel x years.
void BM_EngineKernel(benchmark::State& state) {
  const dart::milp::LpKernel kernel = KernelArg(state.range(0));
  const int years = static_cast<int>(state.range(1));
  const dart::bench::Scenario scenario =
      dart::bench::MakeBudgetScenario(/*seed=*/42, years, /*num_errors=*/2);

  dart::repair::RepairEngineOptions options;
  options.milp.lp.kernel = kernel;
  dart::repair::RepairEngine engine(options);
  dart::repair::RepairStats stats;
  size_t cardinality = 0;
  for (auto _ : state) {
    auto outcome =
        engine.ComputeRepair(scenario.acquired, scenario.constraints);
    DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
    benchmark::DoNotOptimize(outcome->repair.cardinality());
    stats = outcome->stats;
    cardinality = outcome->repair.cardinality();
  }
  state.counters["dense"] = state.range(0) ? 1 : 0;
  state.counters["years"] = static_cast<double>(years);
  state.counters["repair_card"] = static_cast<double>(cardinality);
  state.counters["matrix_rows"] = static_cast<double>(stats.matrix_rows);
  state.counters["matrix_cols"] = static_cast<double>(stats.matrix_cols);
  state.counters["matrix_nnz"] = static_cast<double>(stats.matrix_nnz);
  state.counters["matrix_density"] = stats.matrix_density;
}

BENCHMARK(BM_MilpMonolithicKernel)
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({0, 6})
    ->Args({1, 6})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_EngineKernel)
    ->Args({0, 12})
    ->Args({1, 12})
    ->Args({0, 25})
    ->Args({1, 25})
    ->Args({0, 50})
    ->Args({1, 50})
    ->Args({0, 100})
    ->Args({1, 100})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Trace a sparse-kernel engine run over the merged 4-document instance:
  // the milp.lp.* counters and basis_fill_nnz gauge are the artifacts here.
  dart::bench::EmitRepairTrace(MultiDoc(4), "bench_sparse_kernel");
  return 0;
}
