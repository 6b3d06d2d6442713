// Cross-relation constraints: a premise joining two atoms through a shared
// (non-measure) variable — J(κ) non-empty yet steady — grounded and
// repaired across relations. Scenario: the cash budget must reconcile with
// an independently-acquired bank statement (ending cash balance of year y =
// the bank's reported balance for y).

#include <gtest/gtest.h>

#include <vector>

#include "constraints/eval.h"
#include "constraints/parser.h"
#include "constraints/steady.h"
#include "ocr/cash_budget.h"
#include "repair/cqa.h"
#include "repair/engine.h"

namespace dart::repair {
namespace {

/// Adds Bank(Year:Int, Balance:Int*) with the given per-year balances.
void AddBankStatement(rel::Database* db,
                      const std::vector<std::pair<int, int64_t>>& balances) {
  auto schema = rel::RelationSchema::Create(
      "Bank", {{"Year", rel::Domain::kInt, false},
               {"Balance", rel::Domain::kInt, true}});
  DART_CHECK(schema.ok());
  DART_CHECK(db->AddRelation(*schema).ok());
  rel::Relation* relation = db->FindRelation("Bank");
  for (const auto& [year, balance] : balances) {
    DART_CHECK(relation
                   ->Insert({rel::Value(int64_t{year}), rel::Value(balance)})
                   .ok());
  }
}

const char* kReconciliationProgram = R"(
agg chi2(x, y) := sum(Value) from CashBudget
    where Year = x and Subsection = y;
agg bank(x) := sum(Balance) from Bank where Year = x;

# The budget's ending balance must match the bank statement, year by year.
# The premise joins the two relations through the (non-measure) Year.
constraint reconcile: CashBudget(y, _, _, _, _), Bank(y, _)
    => chi2(y, 'ending cash balance') - bank(y) = 0;
)";

class CrossRelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = ocr::CashBudgetFixture::PaperExample(false);  // consistent
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    // Matching statement: 80 (2003) and 90 (2004), per Fig. 1.
    AddBankStatement(&db_, {{2003, 80}, {2004, 90}});
    Status status = cons::ParseConstraintProgram(
        db_.Schema(), kReconciliationProgram, &constraints_);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  rel::Database db_;
  cons::ConstraintSet constraints_;
};

TEST_F(CrossRelationTest, JoinConstraintIsSteady) {
  const rel::DatabaseSchema schema = db_.Schema();
  auto report = cons::AnalyzeSteadiness(schema, constraints_,
                                        constraints_.constraints()[0]);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // y is shared by the two atoms → J(κ) = {CashBudget.Year, Bank.Year},
  // neither a measure — steady.
  std::vector<cons::AttrRef> expected_j = {{"Bank", "Year"},
                                           {"CashBudget", "Year"}};
  EXPECT_EQ(report->j_set, expected_j);
  EXPECT_TRUE(report->steady()) << report->ToString();
}

TEST_F(CrossRelationTest, ConsistentWhenStatementsMatch) {
  cons::ConsistencyChecker checker(&constraints_);
  auto consistent = checker.IsConsistent(db_);
  ASSERT_TRUE(consistent.ok());
  EXPECT_TRUE(*consistent);
}

TEST_F(CrossRelationTest, GroundingJoinsOnSharedYear) {
  const cons::AggregateConstraint& constraint = constraints_.constraints()[0];
  cons::TupleIndexCache indexes(db_);
  auto bindings = cons::GroundSubstitutions(&indexes, constraint.premise,
                                            cons::TermVariables(constraint));
  ASSERT_TRUE(bindings.ok());
  EXPECT_EQ(bindings->size(), 2u);  // one per matching year
}

TEST_F(CrossRelationTest, BankOnlyYearProducesNoGroundConstraint) {
  // A bank row for a year absent from the budget joins with nothing.
  rel::Database db = db_.Clone();
  ASSERT_TRUE(db.FindRelation("Bank")
                  ->Insert({rel::Value(2099), rel::Value(123)})
                  .ok());
  cons::ConsistencyChecker checker(&constraints_);
  EXPECT_TRUE(*checker.IsConsistent(db));
}

TEST_F(CrossRelationTest, RepairSpansBothRelations) {
  // Corrupt the BANK side: 2004 balance read as 20 instead of 90. With only
  // the reconciliation constraint active, two single-change explanations
  // exist (fix the bank figure, or move the budget's ending balance); the
  // repair must be one change on one of those two cells and restore
  // consistency.
  rel::Database corrupted = db_.Clone();
  ASSERT_TRUE(corrupted.UpdateCell({"Bank", 1, 1}, rel::Value(20)).ok());
  RepairEngine engine;
  auto outcome = engine.ComputeRepair(corrupted, constraints_);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->repair.cardinality(), 1u);
  const AtomicUpdate& update = outcome->repair.updates()[0];
  const bool fixed_bank = update.cell == rel::CellRef{"Bank", 1, 1};
  const bool moved_budget = update.cell == rel::CellRef{"CashBudget", 19, 4};
  EXPECT_TRUE(fixed_bank || moved_budget) << update.ToString();
  auto repaired = outcome->repair.Applied(corrupted);
  ASSERT_TRUE(repaired.ok());
  cons::ConsistencyChecker checker(&constraints_);
  EXPECT_TRUE(*checker.IsConsistent(*repaired));
}

TEST_F(CrossRelationTest, CombinedConstraintsRepairTheBudgetSide) {
  // With BOTH the internal budget constraints and the reconciliation
  // active, corrupting the budget's ending balance is pinned down from two
  // directions (c3 and the bank statement): the unique single-change repair
  // restores it.
  rel::Database corrupted = db_.Clone();
  cons::ConstraintSet combined;
  Status status = cons::ParseConstraintProgram(
      corrupted.Schema(),
      ocr::CashBudgetFixture::ConstraintProgram() + std::string(R"(
agg bank(x) := sum(Balance) from Bank where Year = x;
constraint reconcile: CashBudget(y, _, _, _, _), Bank(y, _)
    => chi2(y, 'ending cash balance') - bank(y) = 0;
)"),
      &combined);
  ASSERT_TRUE(status.ok()) << status.ToString();
  // ending cash balance 2004: 90 → 40.
  ASSERT_TRUE(corrupted.UpdateCell({"CashBudget", 19, 4}, rel::Value(40)).ok());
  RepairEngine engine;
  auto outcome = engine.ComputeRepair(corrupted, combined);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->repair.cardinality(), 1u);
  EXPECT_EQ(outcome->repair.updates()[0].cell,
            (rel::CellRef{"CashBudget", 19, 4}));
  EXPECT_EQ(outcome->repair.updates()[0].new_value, rel::Value(90));
}

TEST_F(CrossRelationTest, IntervalsComeOutInCellOrder) {
  // Bank was inserted after CashBudget, so its cells have the larger ids,
  // yet intervals list cells in CellRef order (relation name first). The
  // corrupted 2004 balance has two single-change explanations, so both of
  // its cells range; the matching 2003 pair is reliable.
  rel::Database corrupted = db_.Clone();
  ASSERT_TRUE(corrupted.UpdateCell({"Bank", 1, 1}, rel::Value(20)).ok());
  auto cqa = ComputeConsistentIntervals(corrupted, constraints_);
  ASSERT_TRUE(cqa.ok()) << cqa.status().ToString();
  ASSERT_EQ(cqa->intervals.size(), 4u);
  std::vector<rel::CellRef> cells;
  for (const CellInterval& interval : cqa->intervals) {
    cells.push_back(interval.cell);
    const bool explains_2004 =
        interval.cell == rel::CellRef{"Bank", 1, 1} ||
        interval.cell == rel::CellRef{"CashBudget", 19, 4};
    EXPECT_EQ(interval.reliable(), !explains_2004) << interval.cell.ToString();
  }
  EXPECT_EQ(cells, (std::vector<rel::CellRef>{{"Bank", 0, 1},
                                              {"Bank", 1, 1},
                                              {"CashBudget", 9, 4},
                                              {"CashBudget", 19, 4}}));
}

TEST_F(CrossRelationTest, MeasureCellsSpanRelations) {
  auto cells = db_.MeasureCells();
  size_t budget_cells = 0, bank_cells = 0;
  for (const rel::CellRef& cell : cells) {
    if (cell.relation == "CashBudget") ++budget_cells;
    if (cell.relation == "Bank") ++bank_cells;
  }
  EXPECT_EQ(budget_cells, 20u);
  EXPECT_EQ(bank_cells, 2u);
}

}  // namespace
}  // namespace dart::repair
