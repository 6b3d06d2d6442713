// Tests for the constraint-graph decomposition layer (milp/decompose.h) and
// the batch entry point: union-find component extraction, rowless analytic
// fixing, single-component passthrough, the empty (all-presolved) model, the
// SolveMilpDecomposed == SolveMilp property over random block models
// (including pin-split chains), SolveMilpBatch agreement with individual
// solves and its thread-count independence, and the engine's decomposition
// dispatch with per-component big-M retries.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "../bench/bench_util.h"
#include "constraints/parser.h"
#include "milp/branch_and_bound.h"
#include "milp/decompose.h"
#include "milp/model.h"
#include "milp/presolve.h"
#include "ocr/cash_budget.h"
#include "repair/engine.h"
#include "util/random.h"

namespace dart::milp {
namespace {

constexpr double kTol = 1e-6;

// --- Component extraction --------------------------------------------------

TEST(DecomposeModelTest, SplitsDisjointBlocks) {
  // Block A: {a0, a1, a2} linked by two rows. Block B: {b0, b1} by one row.
  Model model;
  const int a0 = model.AddVariable("a0", VarType::kBinary, 0, 1);
  const int a1 = model.AddVariable("a1", VarType::kBinary, 0, 1);
  const int b0 = model.AddVariable("b0", VarType::kBinary, 0, 1);
  const int a2 = model.AddVariable("a2", VarType::kBinary, 0, 1);
  const int b1 = model.AddVariable("b1", VarType::kBinary, 0, 1);
  model.AddRow("ra1", {{a0, 1.0}, {a1, 1.0}}, RowSense::kGe, 1);
  model.AddRow("rb", {{b0, 1.0}, {b1, 1.0}}, RowSense::kGe, 1);
  model.AddRow("ra2", {{a1, 1.0}, {a2, 1.0}}, RowSense::kGe, 1);
  model.SetObjective({{a0, 1.0}, {a1, 1.0}, {a2, 1.0}, {b0, 1.0}, {b1, 1.0}},
                     0, ObjectiveSense::kMinimize);

  const Decomposition dec = DecomposeModel(model);
  ASSERT_EQ(dec.num_components(), 2);
  EXPECT_EQ(dec.largest_component_vars, 3);
  // Largest first; vars ascending within each component.
  EXPECT_EQ(dec.components[0].vars, (std::vector<int>{a0, a1, a2}));
  EXPECT_EQ(dec.components[1].vars, (std::vector<int>{b0, b1}));
  EXPECT_EQ(dec.components[0].rows, (std::vector<int>{0, 2}));
  EXPECT_EQ(dec.components[1].rows, (std::vector<int>{1}));
  EXPECT_TRUE(dec.rowless_vars.empty());
  // Index maps round-trip.
  for (int c = 0; c < dec.num_components(); ++c) {
    const Component& comp = dec.components[c];
    EXPECT_EQ(comp.model.num_variables(),
              static_cast<int>(comp.vars.size()));
    EXPECT_EQ(comp.model.num_rows(), static_cast<int>(comp.rows.size()));
    for (size_t l = 0; l < comp.vars.size(); ++l) {
      EXPECT_EQ(dec.component_of_var[comp.vars[l]], c);
      EXPECT_EQ(dec.local_of_var[comp.vars[l]], static_cast<int>(l));
    }
  }
  // The decomposed optimum (one variable per covering row's block… = 2)
  // matches the whole-model solve.
  const MilpResult whole = SolveMilp(model);
  const MilpResult split = SolveMilpDecomposed(model);
  ASSERT_EQ(split.status, MilpResult::SolveStatus::kOptimal);
  EXPECT_NEAR(split.objective, whole.objective, kTol);
  EXPECT_EQ(split.num_components, 2);
  EXPECT_EQ(split.largest_component_vars, 3);
  EXPECT_TRUE(IsFeasiblePoint(model, split.point, 1e-5));
}

TEST(DecomposeModelTest, ZeroCoefficientTermsDoNotCoupleBlocks) {
  // The row "link" mentions x and y, but y's coefficients cancel on merge —
  // structurally the blocks stay independent.
  Model model;
  const int x = model.AddVariable("x", VarType::kBinary, 0, 1);
  const int y = model.AddVariable("y", VarType::kBinary, 0, 1);
  model.AddRow("link", {{x, 1.0}, {y, 1.0}, {y, -1.0}}, RowSense::kGe, 1);
  model.AddRow("own", {{y, 1.0}}, RowSense::kLe, 1);
  model.SetObjective({{x, 1.0}, {y, -1.0}}, 0, ObjectiveSense::kMinimize);
  const Decomposition dec = DecomposeModel(model);
  EXPECT_EQ(dec.num_components(), 2);
}

// --- Rowless variables -----------------------------------------------------

TEST(DecomposeModelTest, RowlessVariablesFixedByObjectiveSign) {
  Model model;
  model.AddVariable("down", VarType::kContinuous, -3, 7);   // cost +2 → lower
  model.AddVariable("up", VarType::kContinuous, -3, 7);     // cost −1 → upper
  model.AddVariable("free", VarType::kContinuous, -3, 7);   // cost 0 → 0
  model.AddVariable("intup", VarType::kInteger, -2.5, 6.5); // cost −1 → 6
  model.SetObjective({{0, 2.0}, {1, -1.0}, {3, -1.0}}, 5.0,
                     ObjectiveSense::kMinimize);
  const Decomposition dec = DecomposeModel(model);
  EXPECT_EQ(dec.num_components(), 0);
  ASSERT_EQ(dec.rowless_vars.size(), 4u);
  EXPECT_FALSE(dec.rowless_infeasible);
  EXPECT_EQ(dec.rowless_values[0], -3);
  EXPECT_EQ(dec.rowless_values[1], 7);
  EXPECT_EQ(dec.rowless_values[2], 0);
  EXPECT_EQ(dec.rowless_values[3], 6);

  const MilpResult solved = SolveMilpDecomposed(model);
  ASSERT_EQ(solved.status, MilpResult::SolveStatus::kOptimal);
  // 2·(−3) − 1·7 − 1·6 + 5 = −14.
  EXPECT_NEAR(solved.objective, -14.0, kTol);
  EXPECT_TRUE(IsFeasiblePoint(model, solved.point, 1e-5));
  // Matches the whole-model branch-and-bound.
  const MilpResult whole = SolveMilp(model);
  ASSERT_EQ(whole.status, MilpResult::SolveStatus::kOptimal);
  EXPECT_NEAR(solved.objective, whole.objective, kTol);
}

TEST(DecomposeModelTest, RowlessIntegerWithEmptyBoxIsInfeasible) {
  Model model;
  model.AddVariable("x", VarType::kInteger, 0.2, 0.8);  // no integral point
  model.SetObjective({{0, 1.0}}, 0, ObjectiveSense::kMinimize);
  const Decomposition dec = DecomposeModel(model);
  EXPECT_TRUE(dec.rowless_infeasible);
  EXPECT_EQ(SolveMilpDecomposed(model).status,
            MilpResult::SolveStatus::kInfeasible);
  EXPECT_EQ(SolveMilp(model).status, MilpResult::SolveStatus::kInfeasible);
}

TEST(DecomposeModelTest, ViolatedConstantRowIsLpInfeasible) {
  // The two y terms merge and cancel, leaving 0 >= 5.
  Model model;
  const int x = model.AddVariable("x", VarType::kBinary, 0, 1);
  const int y = model.AddVariable("y", VarType::kBinary, 0, 1);
  model.AddRow("zero", {{y, 1.0}, {y, -1.0}}, RowSense::kGe, 5);
  model.AddRow("own", {{x, 1.0}}, RowSense::kLe, 1);
  model.SetObjective({{x, 1.0}}, 0, ObjectiveSense::kMinimize);
  const Decomposition dec = DecomposeModel(model);
  EXPECT_TRUE(dec.constant_row_infeasible);
  EXPECT_EQ(SolveMilpDecomposed(model).status,
            MilpResult::SolveStatus::kLpRelaxationInfeasible);
  EXPECT_EQ(SolveMilp(model).status,
            MilpResult::SolveStatus::kLpRelaxationInfeasible);
}

// --- Passthrough and the empty model ---------------------------------------

TEST(DecomposeModelTest, SingleComponentPassesThroughToSolveMilp) {
  // A connected model must take the identical monolithic search (same node
  // count, same iterations), not a rebuilt copy.
  Model model;
  std::vector<LinearTerm> row, obj;
  for (int i = 0; i < 8; ++i) {
    const int v =
        model.AddVariable("b" + std::to_string(i), VarType::kBinary, 0, 1);
    row.push_back({v, static_cast<double>(2 * i + 3)});
    obj.push_back({v, 1.0});
  }
  model.AddRow("pack", row, RowSense::kEq, 24);
  model.SetObjective(obj, 0, ObjectiveSense::kMinimize);

  const Decomposition dec = DecomposeModel(model);
  ASSERT_EQ(dec.num_components(), 1);
  obs::RunContext whole_run, split_run;
  MilpOptions whole_options;
  whole_options.run = &whole_run;
  const MilpResult whole = SolveMilp(model, whole_options);
  MilpOptions split_options;
  split_options.run = &split_run;
  const MilpResult split = SolveMilpDecomposed(model, split_options);
  EXPECT_EQ(split.status, whole.status);
  const obs::MetricsSnapshot whole_snap = whole_run.metrics().Snapshot();
  const obs::MetricsSnapshot split_snap = split_run.metrics().Snapshot();
  EXPECT_EQ(split_snap.Counter("milp.nodes"), whole_snap.Counter("milp.nodes"));
  EXPECT_EQ(split_snap.Counter("milp.lp_iterations"),
            whole_snap.Counter("milp.lp_iterations"));
  EXPECT_NEAR(split.objective, whole.objective, kTol);
  EXPECT_EQ(split.num_components, 1);
  EXPECT_EQ(split.largest_component_vars, model.num_variables());
}

TEST(DecomposeModelTest, AllFixedModelReducesToEmptyDecomposition) {
  // Every variable fixed by bounds; presolve eliminates them all and the
  // decomposition of the residue is empty — the solve is pure constant.
  Model model;
  const int x = model.AddVariable("x", VarType::kInteger, 3, 3);
  const int y = model.AddVariable("y", VarType::kInteger, 4, 4);
  model.AddRow("sum", {{x, 1.0}, {y, 1.0}}, RowSense::kLe, 10);
  model.SetObjective({{x, 1.0}, {y, 2.0}}, 1.0, ObjectiveSense::kMinimize);

  const PresolveResult presolved = Presolve(model);
  ASSERT_FALSE(presolved.infeasible);
  ASSERT_EQ(presolved.reduced.num_variables(), 0);
  const Decomposition dec = DecomposeModel(presolved.reduced);
  EXPECT_EQ(dec.num_components(), 0);
  EXPECT_EQ(dec.largest_component_vars, 0);
  const MilpResult solved = SolveMilpDecomposed(presolved.reduced);
  ASSERT_EQ(solved.status, MilpResult::SolveStatus::kOptimal);
  EXPECT_TRUE(solved.has_incumbent);
  // 3 + 2·4 + 1 folded into the reduced objective constant.
  EXPECT_NEAR(solved.objective, 12.0, kTol);
}

// --- Batch solve -----------------------------------------------------------

TEST(SolveMilpBatchTest, EmptyBatchReturnsNothing) {
  MilpOptions options;
  options.search.num_threads = 4;
  EXPECT_TRUE(SolveMilpBatch({}, options).empty());
}

TEST(SolveMilpBatchTest, MatchesIndividualSolves) {
  // Three unrelated instances: a knapsack (maximize), an integer-infeasible
  // model, and a tiny covering problem. Batch results must agree with
  // one-at-a-time solves at every thread count.
  Model knapsack;
  {
    const int a = knapsack.AddVariable("a", VarType::kBinary, 0, 1);
    const int b = knapsack.AddVariable("b", VarType::kBinary, 0, 1);
    const int c = knapsack.AddVariable("c", VarType::kBinary, 0, 1);
    const int d = knapsack.AddVariable("d", VarType::kBinary, 0, 1);
    knapsack.AddRow("cap", {{a, 5.0}, {b, 7.0}, {c, 4.0}, {d, 3.0}},
                    RowSense::kLe, 14);
    knapsack.SetObjective({{a, 8.0}, {b, 11.0}, {c, 6.0}, {d, 4.0}}, 0,
                          ObjectiveSense::kMaximize);
  }
  Model odd;
  {
    const int x = odd.AddVariable("x", VarType::kInteger, 0, 10);
    odd.AddRow("odd", {{x, 2.0}}, RowSense::kEq, 3);
    odd.SetObjective({{x, 1.0}}, 0, ObjectiveSense::kMinimize);
  }
  Model cover;
  {
    const int p = cover.AddVariable("p", VarType::kBinary, 0, 1);
    const int q = cover.AddVariable("q", VarType::kBinary, 0, 1);
    cover.AddRow("need", {{p, 1.0}, {q, 1.0}}, RowSense::kGe, 1);
    cover.SetObjective({{p, 3.0}, {q, 5.0}}, 0, ObjectiveSense::kMinimize);
  }

  std::vector<BatchModel> batch(3);
  batch[0].model = &knapsack;
  batch[1].model = &odd;
  batch[2].model = &cover;
  std::vector<MilpResult> serial;
  for (int threads : {1, 4}) {
    MilpOptions options;
    options.search.num_threads = threads;
    const std::vector<MilpResult> results = SolveMilpBatch(batch, options);
    ASSERT_EQ(results.size(), 3u) << "threads=" << threads;
    ASSERT_EQ(results[0].status, MilpResult::SolveStatus::kOptimal);
    EXPECT_NEAR(results[0].objective, 21.0, kTol);
    EXPECT_TRUE(IsFeasiblePoint(knapsack, results[0].point, 1e-5));
    EXPECT_EQ(results[1].status, MilpResult::SolveStatus::kInfeasible);
    ASSERT_EQ(results[2].status, MilpResult::SolveStatus::kOptimal);
    EXPECT_NEAR(results[2].objective, 3.0, kTol);
    if (threads == 1) {
      serial = results;
      continue;
    }
    for (size_t k = 0; k < results.size(); ++k) {
      EXPECT_EQ(results[k].point, serial[k].point) << "model " << k;
    }
  }
}

TEST(SolveMilpBatchTest, NodeLimitIsPerModelAtEveryThreadCount) {
  // Two independent models under max_nodes = 1: each model gets its own
  // one-node budget, so the model whose root LP is integral still proves
  // optimality while the fractional one stops at the node limit — at every
  // thread count.
  Model integral;
  {
    const int x = integral.AddVariable("x", VarType::kInteger, 0, 9);
    integral.AddRow("r", {{x, 1.0}}, RowSense::kGe, 4);
    integral.SetObjective({{x, 1.0}}, 0, ObjectiveSense::kMinimize);
  }
  Model fractional;
  {
    std::vector<LinearTerm> row, obj;
    for (int i = 0; i < 12; ++i) {
      const int v = fractional.AddVariable("b" + std::to_string(i),
                                           VarType::kBinary, 0, 1);
      row.push_back({v, static_cast<double>(2 * i + 3)});
      obj.push_back({v, 1.0});
    }
    fractional.AddRow("pack", row, RowSense::kEq, 41);
    fractional.SetObjective(obj, 0, ObjectiveSense::kMinimize);
  }
  std::vector<BatchModel> batch(2);
  batch[0].model = &fractional;
  batch[1].model = &integral;
  for (int threads : {1, 4}) {
    MilpOptions options;
    options.search.num_threads = threads;
    options.search.max_nodes = 1;
    options.search.rounding_heuristic = false;
    const std::vector<MilpResult> results = SolveMilpBatch(batch, options);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, MilpResult::SolveStatus::kNodeLimit)
        << "threads=" << threads;
    EXPECT_EQ(results[1].status, MilpResult::SolveStatus::kOptimal)
        << "threads=" << threads;
    EXPECT_NEAR(results[1].objective, 4.0, kTol) << "threads=" << threads;
  }
}

TEST(SolveMilpBatchTest, PerModelInitialPointSeedsEachIncumbent) {
  Model a, b;
  const int x = a.AddVariable("x", VarType::kBinary, 0, 1);
  a.AddRow("r", {{x, 1.0}}, RowSense::kGe, 1);
  a.SetObjective({{x, 1.0}}, 0, ObjectiveSense::kMinimize);
  const int y = b.AddVariable("y", VarType::kInteger, 0, 9);
  b.AddRow("r", {{y, 1.0}}, RowSense::kGe, 4);
  b.SetObjective({{y, 1.0}}, 0, ObjectiveSense::kMinimize);

  std::vector<BatchModel> batch(2);
  batch[0].model = &a;
  batch[0].initial_point = {1.0};
  batch[1].model = &b;
  batch[1].initial_point = {4.0};
  MilpOptions options;
  options.search.num_threads = 2;
  const std::vector<MilpResult> results = SolveMilpBatch(batch, options);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_NEAR(results[0].objective, 1.0, kTol);
  EXPECT_NEAR(results[1].objective, 4.0, kTol);
}

// --- Property test: decomposed == whole on random block models -------------

class DecomposedAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(DecomposedAgreementTest, MatchesWholeModelSolve) {
  Rng rng(9300 + GetParam());
  // 1–4 independent blocks, each with the parallel-test recipe scaled down:
  // 3 binaries + 1 continuous, 2 random rows over the block's variables.
  const int blocks = 1 + rng.UniformInt(0, 3);
  Model model;
  std::vector<std::vector<int>> block_vars(blocks);
  for (int bl = 0; bl < blocks; ++bl) {
    for (int i = 0; i < 3; ++i) {
      block_vars[bl].push_back(model.AddVariable(
          "b" + std::to_string(bl) + "_" + std::to_string(i),
          VarType::kBinary, 0, 1));
    }
    block_vars[bl].push_back(model.AddVariable(
        "x" + std::to_string(bl), VarType::kContinuous, -5, 5));
  }
  for (int bl = 0; bl < blocks; ++bl) {
    for (int r = 0; r < 2; ++r) {
      std::vector<LinearTerm> terms;
      for (int v : block_vars[bl]) {
        if (rng.Bernoulli(0.6)) {
          terms.push_back({v, static_cast<double>(rng.UniformInt(-4, 4))});
        }
      }
      if (terms.empty()) continue;
      model.AddRow("r" + std::to_string(bl) + "_" + std::to_string(r), terms,
                   rng.Bernoulli(0.3) ? RowSense::kGe : RowSense::kLe,
                   static_cast<double>(rng.UniformInt(-6, 10)));
    }
  }
  // Sometimes chain the blocks together with coupling rows, then cut the
  // chain again with a pin (an equal-bounds variable presolve eliminates):
  // the decomposition must split exactly where the pin cuts.
  const bool chain = rng.Bernoulli(0.5);
  if (chain) {
    for (int bl = 0; bl + 1 < blocks; ++bl) {
      model.AddRow("chain" + std::to_string(bl),
                   {{block_vars[bl].back(), 1.0},
                    {block_vars[bl + 1].front(), 1.0}},
                   RowSense::kLe, 5);
    }
  }
  std::vector<LinearTerm> objective;
  for (const auto& vars : block_vars) {
    for (int v : vars) {
      objective.push_back({v, static_cast<double>(rng.UniformInt(-5, 5))});
    }
  }
  model.SetObjective(objective, 0, ObjectiveSense::kMinimize);

  const MilpResult whole = SolveMilp(model);

  // Dense-oracle cross-check: the whole-model solve must agree between the
  // default sparse LP kernel and the dense tableau oracle to 1e-6.
  {
    MilpOptions dense_options;
    dense_options.lp.kernel = LpKernel::kDense;
    const MilpResult dense = SolveMilp(model, dense_options);
    ASSERT_EQ(dense.status, whole.status) << "seed=" << GetParam();
    if (whole.status == MilpResult::SolveStatus::kOptimal) {
      EXPECT_NEAR(dense.objective, whole.objective, 1e-6)
          << "seed=" << GetParam();
    }
  }

  std::vector<double> serial_point;
  for (int threads : {1, 4}) {
    MilpOptions options;
    options.search.num_threads = threads;
    const MilpResult split = SolveMilpDecomposed(model, options);
    ASSERT_EQ(split.status, whole.status)
        << "seed=" << GetParam() << " threads=" << threads;
    if (whole.status == MilpResult::SolveStatus::kOptimal) {
      EXPECT_NEAR(split.objective, whole.objective, 1e-5)
          << "seed=" << GetParam() << " threads=" << threads;
      EXPECT_TRUE(IsFeasiblePoint(model, split.point, 1e-5));
    }
    if (threads == 1) {
      serial_point = split.point;
    } else {
      EXPECT_EQ(split.point, serial_point)
          << "seed=" << GetParam() << " threads=" << threads;
    }
  }

  // Pin-split: fix the chain's middle junction variable at its solved value
  // (as the validation loop does) and compare presolve+decompose against
  // the whole pinned model.
  if (chain && blocks >= 2 &&
      whole.status == MilpResult::SolveStatus::kOptimal) {
    Model pinned = model;
    const int junction = block_vars[blocks / 2].front();
    pinned.AddRow("pin", {{junction, 1.0}}, RowSense::kEq,
                  whole.point[junction]);
    const MilpResult pinned_whole = SolveMilp(pinned);
    const PresolveResult presolved = Presolve(pinned);
    ASSERT_FALSE(presolved.infeasible);
    const MilpResult pinned_split = SolveMilpDecomposed(presolved.reduced);
    ASSERT_EQ(pinned_split.status, pinned_whole.status)
        << "seed=" << GetParam();
    if (pinned_whole.status == MilpResult::SolveStatus::kOptimal) {
      EXPECT_NEAR(pinned_split.objective, pinned_whole.objective, 1e-5)
          << "seed=" << GetParam();
      EXPECT_TRUE(IsFeasiblePoint(
          pinned, presolved.RestorePoint(pinned_split.point), 1e-5));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomBlockModels, DecomposedAgreementTest,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace dart::milp

// --- Engine dispatch -------------------------------------------------------

namespace dart::repair {
namespace {

TEST(DecomposeEngineTest, MultiDocRepairMatchesMonolithicEngine) {
  // Four independent documents: the decomposed engine must find a repair of
  // the same cardinality as the monolithic one, and report the component
  // shape in its stats.
  const bench::Scenario scenario = bench::MakeMultiDocScenario(
      /*seed=*/42, /*docs=*/4, /*years=*/2, /*errors_per_doc=*/1);

  RepairEngineOptions mono_options;
  mono_options.milp.decomposition.use_components = false;
  RepairEngine mono(mono_options);
  auto mono_outcome =
      mono.ComputeRepair(scenario.acquired, scenario.constraints);
  ASSERT_TRUE(mono_outcome.ok()) << mono_outcome.status().ToString();

  RepairEngineOptions split_options;
  split_options.milp.search.num_threads = 4;
  RepairEngine split(split_options);
  auto split_outcome =
      split.ComputeRepair(scenario.acquired, scenario.constraints);
  ASSERT_TRUE(split_outcome.ok()) << split_outcome.status().ToString();

  EXPECT_EQ(split_outcome->repair.cardinality(),
            mono_outcome->repair.cardinality());
  EXPECT_GE(split_outcome->stats.num_components, 4);
  EXPECT_GT(split_outcome->stats.largest_component_vars, 0);
  EXPECT_EQ(mono_outcome->stats.num_components, 1);
}

TEST(DecomposeEngineTest, TranslatedMultiDocObjectiveIsErrorCount) {
  // One injected error per document ⇒ the card-minimal optimum of the
  // merged S*(AC) is exactly the document count, monolithic or decomposed,
  // with or without the integral-objective bound strengthening.
  const bench::Scenario scenario = bench::MakeMultiDocScenario(
      /*seed=*/42, /*docs=*/2, /*years=*/3, /*errors_per_doc=*/1);
  auto translation =
      TranslateToMilp(scenario.acquired, scenario.constraints);
  ASSERT_TRUE(translation.ok()) << translation.status().ToString();
  std::vector<double> serial_whole, serial_split;
  for (int threads : {1, 4}) {
    milp::MilpOptions options;
    options.search.num_threads = threads;
    options.objective_is_integral = true;
    const milp::MilpResult whole = milp::SolveMilp(translation->model, options);
    ASSERT_EQ(whole.status, milp::MilpResult::SolveStatus::kOptimal);
    EXPECT_NEAR(whole.objective, 2.0, 1e-6) << "threads=" << threads;
    const milp::MilpResult split =
        milp::SolveMilpDecomposed(translation->model, options);
    ASSERT_EQ(split.status, milp::MilpResult::SolveStatus::kOptimal);
    EXPECT_NEAR(split.objective, 2.0, 1e-6) << "threads=" << threads;
    if (threads == 1) {
      serial_whole = whole.point;
      serial_split = split.point;
    } else {
      EXPECT_EQ(whole.point, serial_whole) << "threads=" << threads;
      EXPECT_EQ(split.point, serial_split) << "threads=" << threads;
    }
  }
}

TEST(DecomposeEngineTest, TranslatorReportsDocumentComponents) {
  const bench::Scenario scenario = bench::MakeMultiDocScenario(
      /*seed=*/7, /*docs=*/3, /*years=*/2, /*errors_per_doc=*/1);
  auto translation =
      TranslateToMilp(scenario.acquired, scenario.constraints);
  ASSERT_TRUE(translation.ok()) << translation.status().ToString();
  // Every document is (at least) one component; the per-year structure of
  // the budget usually splits further, but never across documents. A cell's
  // component is that of its z variable.
  const milp::Decomposition decomposition =
      milp::DecomposeModel(translation->model);
  EXPECT_GE(decomposition.num_components(), 3);
  std::vector<int> cell_component;
  for (int z : translation->z_vars) {
    cell_component.push_back(decomposition.component_of_var[z]);
  }
  ASSERT_EQ(cell_component.size(), translation->cells.size());
  for (size_t i = 0; i < translation->cells.size(); ++i) {
    for (size_t j = 0; j < translation->cells.size(); ++j) {
      if (translation->cells[i].relation != translation->cells[j].relation) {
        EXPECT_NE(cell_component[i], cell_component[j]);
      }
    }
  }
}

TEST(DecomposeEngineTest, NodeCountsAccumulateAcrossBigMRetries) {
  // A deliberately small fixed big-M (the translator only floors it at
  // 1 + max |v| = 2 here, so fixed_value = 50 sticks) makes the first
  // attempt infeasible: each year's balance must be repaired to 1000 but
  // the z box is [-50, 50]. The engine must enlarge M ×100 and re-solve;
  // the registry's search counters must accumulate across the retries, and
  // be the same at 1 and 2 threads.
  rel::Database db;
  {
    auto schema = rel::RelationSchema::Create(
        "Ledger", {{"Year", rel::Domain::kInt, false},
                   {"Balance", rel::Domain::kInt, true}});
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE(db.AddRelation(*schema).ok());
    rel::Relation* ledger = db.FindRelation("Ledger");
    // Two cells per year so each year's ground row z_a + z_b = 1000 keeps a
    // branch-and-bound instance alive after presolve (a one-cell row would
    // be a singleton equality presolve chases away entirely).
    for (int64_t year : {1, 2}) {
      ASSERT_TRUE(
          ledger->Insert({rel::Value(year), rel::Value(int64_t{1})}).ok());
      ASSERT_TRUE(
          ledger->Insert({rel::Value(year), rel::Value(int64_t{2})}).ok());
    }
  }
  const char* program = R"(
agg bal(x) := sum(Balance) from Ledger where Year = x;
constraint target: Ledger(y, _) => bal(y) = 1000;
)";
  cons::ConstraintSet constraints;
  Status parsed =
      cons::ParseConstraintProgram(db.Schema(), program, &constraints);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();

  for (bool decompose : {false, true}) {
    int64_t serial_nodes = -1;
    for (int threads : {1, 2}) {
      obs::RunContext run;
      RepairEngineOptions options;
      options.run = &run;
      options.milp.decomposition.use_components = decompose;
      options.translator.big_m.fixed_value = 50;
      options.milp.search.num_threads = threads;
      RepairEngine engine(options);
      auto outcome = engine.ComputeRepair(db, constraints);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_GE(outcome->stats.bigm_retries, 1) << "decompose=" << decompose;
      EXPECT_EQ(outcome->repair.cardinality(), 2u);
      // Every attempt's solves publish: more solves than one attempt needs,
      // and at least one node per solve.
      const obs::MetricsSnapshot snap = run.metrics().Snapshot();
      const int64_t per_attempt = decompose ? 2 : 1;
      EXPECT_GT(snap.Counter("milp.solves"), per_attempt)
          << "decompose=" << decompose
          << " retries=" << outcome->stats.bigm_retries;
      EXPECT_GE(snap.Counter("milp.nodes"), snap.Counter("milp.solves"));
      if (threads == 1) {
        serial_nodes = snap.Counter("milp.nodes");
      } else {
        EXPECT_EQ(snap.Counter("milp.nodes"), serial_nodes)
            << "decompose=" << decompose;
      }
      if (decompose) {
        EXPECT_EQ(outcome->stats.num_components, 2);
      }
    }
  }
}

}  // namespace
}  // namespace dart::repair
