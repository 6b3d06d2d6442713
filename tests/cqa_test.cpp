// Tests for the CQA extension (consistent value intervals under the
// card-minimal semantics): the running example has a unique card-minimal
// repair, so every cell's interval is a point; pinning the "wrong" value
// opens genuine ambiguity and the intervals must widen on exactly the
// ambiguous cells.

#include <gtest/gtest.h>

#include "constraints/parser.h"
#include "ocr/cash_budget.h"
#include "repair/cqa.h"
#include "repair/engine.h"

namespace dart::repair {
namespace {

using ocr::CashBudgetFixture;

class CqaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = CashBudgetFixture::PaperExample(/*with_acquisition_error=*/true);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    Status status = cons::ParseConstraintProgram(
        db_.Schema(), CashBudgetFixture::ConstraintProgram(), &constraints_);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  const CellInterval* IntervalOf(const CqaResult& result,
                                 const rel::CellRef& cell) {
    for (const CellInterval& interval : result.intervals) {
      if (interval.cell == cell) return &interval;
    }
    return nullptr;
  }

  rel::Database db_;
  cons::ConstraintSet constraints_;
};

TEST_F(CqaTest, UniqueRepairMakesEveryCellReliable) {
  // "In our running example, repair ρ of Example 6 is the unique
  // card-minimal repair" — so every cell's consistent interval is a point,
  // and z₄'s point is 220, not its acquired 250.
  auto result = ComputeConsistentIntervals(db_, constraints_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->min_repair_cardinality, 1u);
  ASSERT_EQ(result->intervals.size(), 20u);
  for (const CellInterval& interval : result->intervals) {
    EXPECT_TRUE(interval.reliable())
        << interval.cell.ToString() << " in [" << interval.min_value << ", "
        << interval.max_value << "]";
  }
  const CellInterval* z4 = IntervalOf(*result, {"CashBudget", 3, 4});
  ASSERT_NE(z4, nullptr);
  EXPECT_NEAR(z4->min_value, 220, 1e-6);
  EXPECT_NEAR(z4->max_value, 220, 1e-6);
  EXPECT_TRUE(z4->touched());
  // An untouched cell keeps its acquired value.
  const CellInterval* z2 = IntervalOf(*result, {"CashBudget", 1, 4});
  ASSERT_NE(z2, nullptr);
  EXPECT_FALSE(z2->touched());
  EXPECT_NEAR(z2->min_value, 100, 1e-6);
}

TEST_F(CqaTest, ConsistentDatabaseHasPointIntervalsEverywhere) {
  auto clean = CashBudgetFixture::PaperExample(false);
  ASSERT_TRUE(clean.ok());
  auto result = ComputeConsistentIntervals(*clean, constraints_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->min_repair_cardinality, 0u);
  for (const CellInterval& interval : result->intervals) {
    EXPECT_TRUE(interval.reliable());
    EXPECT_FALSE(interval.touched());
    EXPECT_NEAR(interval.min_value, interval.current_value, 1e-6);
  }
}

TEST_F(CqaTest, AmbiguousOptimaWidenIntervals) {
  // Corrupt cash sales AND total cash receipts consistently with c1 but not
  // c2: two distinct cardinality-2 repairs exist ({cash sales, total} back
  // to truth vs {net inflow, ending balance} forward), so the touched cells
  // cannot all be reliable.
  rel::Database ambiguous = db_.Clone();
  ASSERT_TRUE(
      ambiguous.UpdateCell({"CashBudget", 3, 4}, rel::Value(270)).ok());
  ASSERT_TRUE(
      ambiguous.UpdateCell({"CashBudget", 1, 4}, rel::Value(150)).ok());
  auto result = ComputeConsistentIntervals(ambiguous, constraints_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->min_repair_cardinality, 2u);
  size_t unreliable = 0;
  for (const CellInterval& interval : result->intervals) {
    if (!interval.reliable()) ++unreliable;
  }
  EXPECT_GE(unreliable, 2u);
}

TEST_F(CqaTest, IntervalsBracketEveryEngineRepair) {
  // Property: the value assigned by any card-minimal repair the engine
  // returns lies within the computed interval of its cell.
  auto result = ComputeConsistentIntervals(db_, constraints_);
  ASSERT_TRUE(result.ok());
  RepairEngine engine;
  auto outcome = engine.ComputeRepair(db_, constraints_);
  ASSERT_TRUE(outcome.ok());
  for (const AtomicUpdate& update : outcome->repair.updates()) {
    const CellInterval* interval = IntervalOf(*result, update.cell);
    ASSERT_NE(interval, nullptr);
    EXPECT_GE(update.new_value.AsReal(), interval->min_value - 1e-6);
    EXPECT_LE(update.new_value.AsReal(), interval->max_value + 1e-6);
  }
}

TEST_F(CqaTest, OnlyInvolvedCellsOptionShrinksWork) {
  auto restricted = ComputeConsistentIntervals(db_, constraints_);
  ASSERT_TRUE(restricted.ok());
  // All 20 cells are involved in the running example; on a database with an
  // extra unconstrained relation the restriction would shrink this.
  EXPECT_EQ(restricted->intervals.size(), 20u);
  EXPECT_EQ(restricted->milp_solves, 21);
}

TEST_F(CqaTest, UniformWeightsKeepTheUnweightedIntervals) {
  // Scaling every weight by 3 scales every repair's cost by 3, so the set
  // of optimal repairs — and every interval — must not change.
  CqaOptions weighted;
  for (const rel::CellRef& cell : db_.MeasureCells()) {
    weighted.translator.weights.push_back({cell, 3.0});
  }
  auto plain = ComputeConsistentIntervals(db_, constraints_);
  auto scaled = ComputeConsistentIntervals(db_, constraints_, weighted);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(scaled.ok()) << scaled.status().ToString();
  EXPECT_EQ(scaled->min_repair_cardinality, 1u);
  ASSERT_EQ(scaled->intervals.size(), plain->intervals.size());
  for (size_t i = 0; i < plain->intervals.size(); ++i) {
    const CellInterval& a = plain->intervals[i];
    const CellInterval& b = scaled->intervals[i];
    EXPECT_EQ(a.cell, b.cell);
    EXPECT_NEAR(a.min_value, b.min_value, 1e-6) << a.cell.ToString();
    EXPECT_NEAR(a.max_value, b.max_value, 1e-6) << a.cell.ToString();
  }
}

TEST_F(CqaTest, AggregateQueryAnswerOnRunningExample) {
  // Query: chi2(2003, 'total cash receipts'). Acquired value 250; the
  // unique card-minimal repair puts it at 220, so the consistent answer is
  // the certain value 220.
  auto answer = ConsistentAggregateAnswer(
      db_, constraints_, "chi2",
      {rel::Value(2003), rel::Value("total cash receipts")});
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_DOUBLE_EQ(answer->value_on_acquired, 250);
  EXPECT_TRUE(answer->certain());
  EXPECT_NEAR(answer->min_value, 220, 1e-6);
  EXPECT_EQ(answer->min_repair_cardinality, 1u);
}

TEST_F(CqaTest, AggregateQueryOverUntouchedCellsIsCertain) {
  // chi1('Disbursements', 2003, 'det') = 160 in every card-minimal repair
  // (nothing in the 2003 disbursements section is implicated).
  auto answer = ConsistentAggregateAnswer(
      db_, constraints_, "chi1",
      {rel::Value("Disbursements"), rel::Value(2003), rel::Value("det")});
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->certain());
  EXPECT_NEAR(answer->min_value, 160, 1e-6);
  EXPECT_DOUBLE_EQ(answer->value_on_acquired, 160);
}

TEST_F(CqaTest, AggregateQueryUncertainUnderAmbiguity) {
  // The compensating-corruption instance: chi2(2003, 'cash sales') differs
  // between the two optima (150 stays vs goes back to 100), so the answer
  // is an interval, not a point.
  rel::Database ambiguous = db_.Clone();
  ASSERT_TRUE(
      ambiguous.UpdateCell({"CashBudget", 3, 4}, rel::Value(270)).ok());
  ASSERT_TRUE(
      ambiguous.UpdateCell({"CashBudget", 1, 4}, rel::Value(150)).ok());
  auto answer = ConsistentAggregateAnswer(
      ambiguous, constraints_, "chi2",
      {rel::Value(2003), rel::Value("cash sales")});
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_FALSE(answer->certain());
  EXPECT_NEAR(answer->min_value, 100, 1e-6);
  EXPECT_NEAR(answer->max_value, 150, 1e-6);
}

TEST_F(CqaTest, AggregateQueryUnknownFunctionRejected) {
  auto answer = ConsistentAggregateAnswer(db_, constraints_, "ghost", {});
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace dart::repair
