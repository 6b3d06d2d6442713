// Tests for the branch-and-bound search at several thread counts and the
// cached bounded-variable LP core: thread-count invariance of the point,
// node count and LP iterations (property test against the exhaustive
// baseline), the serial regression on the Fig. 4 / Example 11 paper
// instance, the two infeasibility statuses, and scratch-reuse equivalence
// of SolveLpCached.

#include <gtest/gtest.h>

#include <cmath>

#include "constraints/parser.h"
#include "milp/branch_and_bound.h"
#include "milp/exhaustive.h"
#include "milp/model.h"
#include "milp/simplex.h"
#include "ocr/cash_budget.h"
#include "repair/engine.h"
#include "repair/translator.h"
#include "util/random.h"

namespace dart::milp {
namespace {

constexpr double kTol = 1e-6;

// --- Infeasibility statuses (the former dead-ternary at the end of
// SolveMilp always produced kInfeasible; the no-feasible-LP case must now be
// distinguished). -----------------------------------------------------------

TEST(InfeasibleStatusTest, LpInfeasibleModelReportsRelaxationStatus) {
  // x >= 6 and x <= 5: even the continuous relaxation is empty.
  Model model;
  int x = model.AddVariable("x", VarType::kInteger, 0, 10);
  model.AddRow("low", {{x, 1.0}}, RowSense::kGe, 6);
  model.AddRow("high", {{x, 1.0}}, RowSense::kLe, 5);
  model.SetObjective({{x, 1.0}}, 0, ObjectiveSense::kMinimize);
  MilpResult result = SolveMilp(model);
  EXPECT_EQ(result.status, MilpResult::SolveStatus::kLpRelaxationInfeasible);
  EXPECT_TRUE(IsInfeasibleStatus(result.status));
}

TEST(InfeasibleStatusTest, IntegerInfeasibleKeepsPlainInfeasible) {
  // 2x = 3: LP feasible (x = 1.5) but no integer point.
  Model model;
  int x = model.AddVariable("x", VarType::kInteger, 0, 10);
  model.AddRow("odd", {{x, 2.0}}, RowSense::kEq, 3);
  model.SetObjective({{x, 1.0}}, 0, ObjectiveSense::kMinimize);
  MilpResult result = SolveMilp(model);
  EXPECT_EQ(result.status, MilpResult::SolveStatus::kInfeasible);
  EXPECT_TRUE(IsInfeasibleStatus(result.status));
}

TEST(InfeasibleStatusTest, ParallelAgreesOnBothFlavours) {
  Model lp_infeasible;
  int x = lp_infeasible.AddVariable("x", VarType::kInteger, 0, 10);
  lp_infeasible.AddRow("low", {{x, 1.0}}, RowSense::kGe, 6);
  lp_infeasible.AddRow("high", {{x, 1.0}}, RowSense::kLe, 5);
  lp_infeasible.SetObjective({{x, 1.0}}, 0, ObjectiveSense::kMinimize);

  Model int_infeasible;
  int y = int_infeasible.AddVariable("y", VarType::kInteger, 0, 10);
  int_infeasible.AddRow("odd", {{y, 2.0}}, RowSense::kEq, 3);
  int_infeasible.SetObjective({{y, 1.0}}, 0, ObjectiveSense::kMinimize);

  MilpOptions options;
  options.search.num_threads = 4;
  EXPECT_EQ(SolveMilp(lp_infeasible, options).status,
            MilpResult::SolveStatus::kLpRelaxationInfeasible);
  EXPECT_EQ(SolveMilp(int_infeasible, options).status,
            MilpResult::SolveStatus::kInfeasible);
}

TEST(InfeasibleStatusTest, StatusNamesAreDistinct) {
  EXPECT_STRNE(
      MilpStatusName(MilpResult::SolveStatus::kInfeasible),
      MilpStatusName(MilpResult::SolveStatus::kLpRelaxationInfeasible));
}

// --- Cached LP core --------------------------------------------------------

TEST(StandardFormTest, ScratchReuseMatchesOneShotSolves) {
  // Solve the same model under three different bound sets with one reused
  // scratch; results must match the one-shot SolveLpRelaxation exactly.
  Model model;
  int a = model.AddVariable("a", VarType::kContinuous, 0, 10);
  int b = model.AddVariable("b", VarType::kContinuous, -5, 5);
  model.AddRow("r1", {{a, 1.0}, {b, 1.0}}, RowSense::kLe, 8);
  model.AddRow("r2", {{a, 1.0}, {b, -2.0}}, RowSense::kGe, -4);
  model.SetObjective({{a, -1.0}, {b, -2.0}}, 0, ObjectiveSense::kMinimize);

  StandardForm form(model);
  LpScratch scratch;
  LpResult cached;
  const std::vector<std::pair<std::vector<double>, std::vector<double>>>
      bound_sets = {
          {{0, -5}, {10, 5}},
          {{2, 0}, {6, 0}},   // b fixed at 0
          {{0, -5}, {0, 5}},  // a fixed at 0
      };
  for (const auto& [lower, upper] : bound_sets) {
    SolveLpCached(form, {}, lower, upper, &scratch, &cached);
    LpResult fresh = SolveLpRelaxation(model, {}, &lower, &upper);
    ASSERT_EQ(cached.status, fresh.status);
    ASSERT_EQ(cached.status, LpResult::SolveStatus::kOptimal);
    EXPECT_EQ(cached.objective, fresh.objective);  // bit-identical pivots
    EXPECT_EQ(cached.iterations, fresh.iterations);
    ASSERT_EQ(cached.point.size(), fresh.point.size());
    for (size_t i = 0; i < cached.point.size(); ++i) {
      EXPECT_EQ(cached.point[i], fresh.point[i]);
    }
  }
}

TEST(StandardFormTest, InfeasibleBoundsShortCircuit) {
  Model model;
  model.AddVariable("x", VarType::kContinuous, 0, 10);
  model.SetObjective({{0, 1.0}}, 0, ObjectiveSense::kMinimize);
  StandardForm form(model);
  LpScratch scratch;
  LpResult result;
  SolveLpCached(form, {}, {7}, {3}, &scratch, &result);
  EXPECT_EQ(result.status, LpResult::SolveStatus::kInfeasible);
}

// --- Paper-instance regression --------------------------------------------

class PaperInstanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = ocr::CashBudgetFixture::PaperExample(/*with_error=*/true);
    ASSERT_TRUE(db.ok());
    cons::ConstraintSet constraints;
    Status parsed = cons::ParseConstraintProgram(
        db->Schema(), ocr::CashBudgetFixture::ConstraintProgram(),
        &constraints);
    ASSERT_TRUE(parsed.ok()) << parsed.ToString();
    auto translation = repair::TranslateToMilp(*db, constraints);
    ASSERT_TRUE(translation.ok());
    model_ = translation->model;
  }

  Model model_;
};

TEST_F(PaperInstanceTest, SerialSolveBeatsSeedIterationCount) {
  // The seed (pre-bounded-variable) solver explored 3 nodes / 282 LP
  // iterations on the Fig. 4 / Example 11 instance. Correctness is anchored
  // on the optimal objective (1 — exactly one cell repaired), and the
  // bounded-variable core with dual warm starts must use strictly fewer LP
  // iterations than the seed's explicit-upper-bound-row tableau did.
  obs::RunContext run;
  MilpOptions options;
  options.run = &run;
  options.objective_is_integral = true;
  options.search.num_threads = 1;
  MilpResult solved = SolveMilp(model_, options);
  ASSERT_EQ(solved.status, MilpResult::SolveStatus::kOptimal);
  EXPECT_NEAR(solved.objective, 1.0, kTol);
  const obs::MetricsSnapshot snap = run.metrics().Snapshot();
  const int64_t nodes = snap.Counter("milp.nodes");
  EXPECT_GE(nodes, 1);
  EXPECT_GT(snap.Counter("milp.lp_iterations"), 0);
  EXPECT_LT(snap.Counter("milp.lp_iterations"), 282);
  // Every non-root node LP must complete on the warm path here.
  EXPECT_EQ(snap.Counter("milp.lp_warm_solves"), nodes - 1);
}

TEST_F(PaperInstanceTest, WarmAndColdAgreeOnObjective) {
  // Ablation invariance: disabling warm starts must not change the optimum
  // (only the work done to reach it).
  obs::RunContext warm_run, cold_run;
  MilpOptions warm, cold;
  warm.run = &warm_run;
  cold.run = &cold_run;
  warm.objective_is_integral = cold.objective_is_integral = true;
  cold.search.use_warm_start = false;
  MilpResult with_warm = SolveMilp(model_, warm);
  MilpResult with_cold = SolveMilp(model_, cold);
  ASSERT_EQ(with_warm.status, MilpResult::SolveStatus::kOptimal);
  ASSERT_EQ(with_cold.status, MilpResult::SolveStatus::kOptimal);
  EXPECT_NEAR(with_warm.objective, with_cold.objective, kTol);
  const obs::MetricsSnapshot warm_snap = warm_run.metrics().Snapshot();
  const obs::MetricsSnapshot cold_snap = cold_run.metrics().Snapshot();
  EXPECT_EQ(cold_snap.Counter("milp.lp_warm_solves"), 0);
  EXPECT_LE(warm_snap.Counter("milp.lp_iterations"),
            cold_snap.Counter("milp.lp_iterations"));
}

TEST_F(PaperInstanceTest, ThreadCountsAgreeOnObjective) {
  // A single model is always searched serially: the thread count must not
  // change the point, the node count or the LP iteration count.
  std::vector<double> serial_point;
  int64_t serial_nodes = -1;
  int64_t serial_lp_iterations = -1;
  for (int threads : {1, 2, 8}) {
    obs::RunContext run;
    MilpOptions options;
    options.run = &run;
    options.objective_is_integral = true;
    options.search.num_threads = threads;
    MilpResult solved = SolveMilp(model_, options);
    ASSERT_EQ(solved.status, MilpResult::SolveStatus::kOptimal)
        << "threads=" << threads;
    EXPECT_NEAR(solved.objective, 1.0, kTol) << "threads=" << threads;
    const obs::MetricsSnapshot snap = run.metrics().Snapshot();
    if (threads == 1) {
      serial_point = solved.point;
      serial_nodes = snap.Counter("milp.nodes");
      serial_lp_iterations = snap.Counter("milp.lp_iterations");
      continue;
    }
    EXPECT_EQ(solved.point, serial_point) << "threads=" << threads;
    EXPECT_EQ(snap.Counter("milp.nodes"), serial_nodes)
        << "threads=" << threads;
    EXPECT_EQ(snap.Counter("milp.lp_iterations"), serial_lp_iterations)
        << "threads=" << threads;
  }
}

// --- Parallel/serial/exhaustive agreement (randomized property test) -------

class ParallelAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelAgreementTest, AllThreadCountsMatchExhaustive) {
  Rng rng(7100 + GetParam());
  // Random model: 6 binaries, 2 continuous, 4 random rows, random objective;
  // the same recipe as the serial SolverAgreementTest so coverage stays
  // comparable.
  Model model;
  std::vector<int> vars;
  for (int i = 0; i < 6; ++i) {
    vars.push_back(
        model.AddVariable("b" + std::to_string(i), VarType::kBinary, 0, 1));
  }
  for (int i = 0; i < 2; ++i) {
    vars.push_back(model.AddVariable("x" + std::to_string(i),
                                     VarType::kContinuous, -5, 5));
  }
  for (int r = 0; r < 4; ++r) {
    std::vector<LinearTerm> terms;
    for (int v : vars) {
      if (rng.Bernoulli(0.6)) {
        terms.push_back({v, static_cast<double>(rng.UniformInt(-4, 4))});
      }
    }
    if (terms.empty()) continue;
    model.AddRow("r" + std::to_string(r), terms,
                 rng.Bernoulli(0.3) ? RowSense::kGe : RowSense::kLe,
                 static_cast<double>(rng.UniformInt(-6, 10)));
  }
  std::vector<LinearTerm> objective;
  for (int v : vars) {
    objective.push_back({v, static_cast<double>(rng.UniformInt(-5, 5))});
  }
  model.SetObjective(objective, 0, ObjectiveSense::kMinimize);

  MilpResult exhaustive = SolveByBinaryEnumeration(model);
  for (int threads : {1, 2, 8}) {
    MilpOptions options;
    options.search.num_threads = threads;
    MilpResult solved = SolveMilp(model, options);
    ASSERT_EQ(solved.status == MilpResult::SolveStatus::kOptimal,
              exhaustive.status == MilpResult::SolveStatus::kOptimal)
        << "threads=" << threads << " seed=" << GetParam();
    if (solved.status == MilpResult::SolveStatus::kOptimal) {
      EXPECT_NEAR(solved.objective, exhaustive.objective, 1e-5)
          << "threads=" << threads << " seed=" << GetParam();
      EXPECT_TRUE(IsFeasiblePoint(model, solved.point, 1e-5));
    } else {
      EXPECT_TRUE(IsInfeasibleStatus(solved.status));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, ParallelAgreementTest,
                         ::testing::Range(0, 25));

// --- Parallel solver corners ----------------------------------------------

TEST(ParallelSolverTest, NodeLimitReported) {
  Model model;
  std::vector<LinearTerm> row, obj;
  for (int i = 0; i < 12; ++i) {
    int v = model.AddVariable("b" + std::to_string(i), VarType::kBinary, 0, 1);
    row.push_back({v, static_cast<double>(2 * i + 3)});
    obj.push_back({v, 1.0});
  }
  model.AddRow("pack", row, RowSense::kEq, 41);
  model.SetObjective(obj, 0, ObjectiveSense::kMinimize);
  MilpOptions options;
  options.search.max_nodes = 1;
  options.search.rounding_heuristic = false;
  options.search.num_threads = 4;
  MilpResult result = SolveMilp(model, options);
  EXPECT_EQ(result.status, MilpResult::SolveStatus::kNodeLimit);
}

TEST(ParallelSolverTest, WarmStartSeedsIncumbent) {
  // max 8a + 11b + 6c + 4d, 5a + 7b + 4c + 3d <= 14, binaries; optimum 21.
  Model model;
  int a = model.AddVariable("a", VarType::kBinary, 0, 1);
  int b = model.AddVariable("b", VarType::kBinary, 0, 1);
  int c = model.AddVariable("c", VarType::kBinary, 0, 1);
  int d = model.AddVariable("d", VarType::kBinary, 0, 1);
  model.AddRow("cap", {{a, 5.0}, {b, 7.0}, {c, 4.0}, {d, 3.0}}, RowSense::kLe,
               14);
  model.SetObjective({{a, 8.0}, {b, 11.0}, {c, 6.0}, {d, 4.0}}, 0,
                     ObjectiveSense::kMaximize);
  MilpOptions options;
  options.search.num_threads = 2;
  options.initial_point = {0, 1, 1, 1};  // the optimum itself
  MilpResult result = SolveMilp(model, options);
  ASSERT_EQ(result.status, MilpResult::SolveStatus::kOptimal);
  EXPECT_NEAR(result.objective, 21.0, kTol);
}

TEST(ParallelSolverTest, EngineProducesSameRepairCardinality) {
  // End-to-end: the paper example repaired with a 2-thread solver must give
  // the same card-1 repair as the serial engine.
  auto db = ocr::CashBudgetFixture::PaperExample(/*with_error=*/true);
  ASSERT_TRUE(db.ok());
  cons::ConstraintSet constraints;
  Status parsed = cons::ParseConstraintProgram(
      db->Schema(), ocr::CashBudgetFixture::ConstraintProgram(), &constraints);
  ASSERT_TRUE(parsed.ok());
  for (int threads : {1, 2}) {
    repair::RepairEngineOptions options;
    options.milp.search.num_threads = threads;
    repair::RepairEngine engine(options);
    auto outcome = engine.ComputeRepair(*db, constraints);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->repair.cardinality(), 1u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace dart::milp
