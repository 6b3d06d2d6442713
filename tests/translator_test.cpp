// Tests for the Sec. 5 translation (P4 of DESIGN.md): the running example
// must produce exactly the ground equalities of Example 10 / Fig. 4, the
// variable layout of the paper (N = 20 with one z/y/δ triple per tuple), and
// the MILP optimum 1 with y₄ = −30.

#include <gtest/gtest.h>

#include <algorithm>

#include "constraints/parser.h"
#include "milp/branch_and_bound.h"
#include "ocr/cash_budget.h"
#include "repair/translator.h"

namespace dart::repair {
namespace {

using ocr::CashBudgetFixture;

cons::ConstraintSet RunningExampleConstraints(const rel::Database& db) {
  cons::ConstraintSet constraints;
  Status status = cons::ParseConstraintProgram(
      db.Schema(), CashBudgetFixture::ConstraintProgram(), &constraints);
  DART_CHECK_MSG(status.ok(), status.ToString());
  return constraints;
}

class PaperTranslationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = CashBudgetFixture::PaperExample(/*with_acquisition_error=*/true);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    constraints_ = RunningExampleConstraints(db_);
  }

  rel::Database db_;
  cons::ConstraintSet constraints_;
};

TEST_F(PaperTranslationTest, VariableLayoutMatchesExample10) {
  auto translation = TranslateToMilp(db_, constraints_);
  ASSERT_TRUE(translation.ok()) << translation.status().ToString();
  // "The values involved in constraints ... are as many as the number of
  // tuples, that is N = 20."
  EXPECT_EQ(translation->cells.size(), 20u);
  // z_i is associated to the i-th tuple's Value, in tuple order: v₂ = 100
  // (cash sales 2003), v₄ = 250 (the corrupted total).
  EXPECT_DOUBLE_EQ(translation->current_values[1], 100);
  EXPECT_DOUBLE_EQ(translation->current_values[3], 250);
  EXPECT_DOUBLE_EQ(translation->current_values[19], 90);
  // 3 variables per cell: z, y, δ.
  EXPECT_EQ(translation->model.num_variables(), 60);
}

TEST_F(PaperTranslationTest, GroundRowsMatchFigure4) {
  auto translation = TranslateToMilp(db_, constraints_);
  ASSERT_TRUE(translation.ok());
  // Constraint 1 grounds to 4 non-trivial equalities (Receipts and
  // Disbursements, both years; Balance sections have neither det nor aggr
  // items so their instances are the trivial 0 = 0 and are dropped),
  // constraints 2 and 3 to 2 each: 8 rows total, exactly Fig. 4.
  ASSERT_EQ(translation->ground_rows.size(), 8u);

  auto contains = [&](const std::string& needle) {
    return std::any_of(translation->ground_rows.begin(),
                       translation->ground_rows.end(),
                       [&](const std::string& row) {
                         return row.find(needle) != std::string::npos;
                       });
  };
  // z2 + z3 - z4 = 0  (cash sales + receivables = total cash receipts 2003)
  EXPECT_TRUE(contains("z2 + z3 + -1*z4 = 0") || contains("z2 + z3 -1*z4"))
      << "rows:\n" + [&] {
           std::string all;
           for (const auto& row : translation->ground_rows) all += row + "\n";
           return all;
         }();
}

TEST_F(PaperTranslationTest, OccurrenceCountsDriveOrderingHeuristic) {
  auto translation = TranslateToMilp(db_, constraints_);
  ASSERT_TRUE(translation.ok());
  // z₄ (total cash receipts 2003) occurs in constraint 1 (receipts/2003) and
  // constraint 2 (2003): 2 ground rows. z₂ (cash sales) occurs only in the
  // receipts sum: 1 row. z₉ (net cash inflow 2003) occurs in constraints 2
  // and 3: 2 rows.
  EXPECT_EQ(translation->occurrence_counts[3], 2);
  EXPECT_EQ(translation->occurrence_counts[1], 1);
  EXPECT_EQ(translation->occurrence_counts[8], 2);
}

TEST_F(PaperTranslationTest, MilpOptimumIsOneChange) {
  auto translation = TranslateToMilp(db_, constraints_);
  ASSERT_TRUE(translation.ok());
  milp::MilpOptions options;
  options.objective_is_integral = true;
  milp::MilpResult solved = milp::SolveMilp(translation->model, options);
  ASSERT_EQ(solved.status, milp::MilpResult::SolveStatus::kOptimal);
  // "The minimum value of the objective function of this optimization
  // problem is 1 (only δ₄ = 1) ... y₄ takes value −30."
  EXPECT_NEAR(solved.objective, 1.0, 1e-6);
  EXPECT_NEAR(solved.point[translation->y_vars[3]], -30.0, 1e-6);
  EXPECT_NEAR(solved.point[translation->z_vars[3]], 220.0, 1e-6);
  for (size_t i = 0; i < translation->cells.size(); ++i) {
    if (i == 3) continue;
    EXPECT_NEAR(solved.point[translation->y_vars[i]], 0.0, 1e-6)
        << "y" << (i + 1) << " unexpectedly nonzero";
  }
}

TEST_F(PaperTranslationTest, TheoreticalBigMIsAstronomical) {
  auto translation = TranslateToMilp(db_, constraints_);
  ASSERT_TRUE(translation.ok());
  // The paper's M for the running example is 20·(28·250)^57 — far beyond any
  // double. We report log10; sanity-check the order of magnitude (> 100
  // decimal digits) and that the practical M is modest.
  EXPECT_GT(translation->theoretical_m_log10, 100);
  EXPECT_LT(translation->practical_m, 1e5);
}

TEST_F(PaperTranslationTest, RestrictToInvolvedKeepsAllTwentyCells) {
  // In the running example every tuple participates in some constraint, so
  // restriction changes nothing.
  TranslatorOptions options;
  options.restrict_to_involved = true;
  auto translation = TranslateToMilp(db_, constraints_, options);
  ASSERT_TRUE(translation.ok());
  EXPECT_EQ(translation->cells.size(), 20u);
}

TEST_F(PaperTranslationTest, ConsistentDatabaseTranslatesToZeroOptimum) {
  auto clean = CashBudgetFixture::PaperExample(false);
  ASSERT_TRUE(clean.ok());
  auto translation = TranslateToMilp(*clean, constraints_);
  ASSERT_TRUE(translation.ok());
  milp::MilpResult solved = milp::SolveMilp(translation->model);
  ASSERT_EQ(solved.status, milp::MilpResult::SolveStatus::kOptimal);
  EXPECT_NEAR(solved.objective, 0.0, 1e-6);
}

TEST_F(PaperTranslationTest, FixedValuePinIsHonored) {
  // Pin z₄ to the (wrong) acquired value 250 the way the repair core does,
  // as the bound z₄ ∈ [250, 250]: the cheapest completion now changes 2
  // other cells instead (e.g. a detail receipt and the net/ending chain —
  // cardinality must exceed 1).
  const rel::CellRef total_receipts_2003{"CashBudget", 3, 4};
  auto translation = TranslateToMilp(db_, constraints_);
  ASSERT_TRUE(translation.ok());
  const int z4 = translation->z_vars[translation->CellIndex(total_receipts_2003)];
  translation->model.SetVariableBounds(z4, 250.0, 250.0);
  milp::MilpOptions options;
  options.objective_is_integral = true;
  milp::MilpResult solved = milp::SolveMilp(translation->model, options);
  ASSERT_EQ(solved.status, milp::MilpResult::SolveStatus::kOptimal);
  EXPECT_NEAR(solved.point[z4], 250.0, 1e-6);
  EXPECT_GE(solved.objective, 2.0 - 1e-6);
}

TEST(TranslatorErrorsTest, NonSteadyConstraintRejected) {
  // A schema where the aggregation WHERE clause touches the measure
  // attribute itself: R(A:Int*, B:String); sum over A where A = x.
  auto schema_result = rel::RelationSchema::Create(
      "R", {{"A", rel::Domain::kInt, true}, {"B", rel::Domain::kString, false}});
  ASSERT_TRUE(schema_result.ok());
  rel::Database db;
  ASSERT_TRUE(db.AddRelation(*schema_result).ok());
  cons::ConstraintSet constraints;
  Status status = cons::ParseConstraintProgram(db.Schema(), R"(
agg bad(x) := sum(A) from R where A = x;
constraint k: R(a, _) => bad(a) <= 10;
)", &constraints);
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto translation = TranslateToMilp(db, constraints);
  ASSERT_FALSE(translation.ok());
  EXPECT_EQ(translation.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(translation.status().message().find("not steady"),
            std::string::npos);
}

TEST(TranslatorErrorsTest, ViolatedConstantRowIsInfeasible) {
  // A ground constraint with no measure cells that is false can never be
  // repaired by measure updates.
  auto schema_result = rel::RelationSchema::Create(
      "R", {{"A", rel::Domain::kInt, false}, {"V", rel::Domain::kInt, true}});
  ASSERT_TRUE(schema_result.ok());
  rel::Database db;
  ASSERT_TRUE(db.AddRelation(*schema_result).ok());
  rel::Relation* r = db.FindRelation("R");
  ASSERT_TRUE(r->Insert({rel::Value(7), rel::Value(1)}).ok());
  cons::ConstraintSet constraints;
  // sum(A) where A = 7 is 7, but the constraint demands <= 3; A is not a
  // measure attribute so nothing can change it.
  Status status = cons::ParseConstraintProgram(db.Schema(), R"(
agg sa(x) := sum(A) from R where A = x;
constraint k: R(a, _) => sa(a) <= 3;
)", &constraints);
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto translation = TranslateToMilp(db, constraints);
  ASSERT_FALSE(translation.ok());
  EXPECT_EQ(translation.status().code(), StatusCode::kInfeasible);
}

}  // namespace
}  // namespace dart::repair
