// Tests for the repair engine (P5 of DESIGN.md plus randomized properties):
// Example 6's repair is found and is card-minimal, Example 7's repair is a
// valid but non-minimal alternative, and on random corpora the engine always
// returns a repair that (a) satisfies AC, (b) has cardinality no larger than
// the number of injected errors, and (c) agrees with the exhaustive baseline.

#include <gtest/gtest.h>

#include "constraints/eval.h"
#include "constraints/parser.h"
#include "ocr/cash_budget.h"
#include "ocr/catalog.h"
#include "ocr/noise.h"
#include "repair/engine.h"
#include "util/random.h"

namespace dart::repair {
namespace {

using ocr::CashBudgetFixture;
using ocr::CatalogFixture;

cons::ConstraintSet ParseProgram(const rel::Database& db,
                                 const std::string& program) {
  cons::ConstraintSet constraints;
  Status status =
      cons::ParseConstraintProgram(db.Schema(), program, &constraints);
  DART_CHECK_MSG(status.ok(), status.ToString());
  return constraints;
}

TEST(RepairTest, ConsistentUpdateDetection) {
  rel::CellRef cell{"R", 0, 1};
  Repair repair({{cell, rel::Value(1), rel::Value(2)},
                 {cell, rel::Value(1), rel::Value(3)}});
  EXPECT_FALSE(repair.IsConsistentUpdate());  // same λ(u) twice — Def. 3
  Repair ok_repair({{cell, rel::Value(1), rel::Value(2)},
                    {rel::CellRef{"R", 1, 1}, rel::Value(1), rel::Value(3)}});
  EXPECT_TRUE(ok_repair.IsConsistentUpdate());
}

TEST(RepairTest, ApplyProducesExample6Database) {
  auto db = CashBudgetFixture::PaperExample(true);
  ASSERT_TRUE(db.ok());
  // ρ = {⟨t, Value, 220⟩} with t = total cash receipts 2003 (row 3).
  Repair repair({{rel::CellRef{"CashBudget", 3, 4}, rel::Value(250),
                  rel::Value(220)}});
  auto repaired = repair.Applied(*db);
  ASSERT_TRUE(repaired.ok());
  auto value = repaired->ValueAt({"CashBudget", 3, 4});
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, rel::Value(220));
  // Original untouched.
  EXPECT_EQ(*db->ValueAt({"CashBudget", 3, 4}), rel::Value(250));
}

TEST(RepairTest, NonMeasureUpdateRejected) {
  auto db = CashBudgetFixture::PaperExample(true);
  ASSERT_TRUE(db.ok());
  Repair repair(
      {{rel::CellRef{"CashBudget", 3, 0}, rel::Value(2003), rel::Value(2005)}});
  EXPECT_FALSE(repair.ApplyTo(&*db).ok());  // Year is not in M_D
}

class RunningExampleEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = CashBudgetFixture::PaperExample(true);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    constraints_ = ParseProgram(db_, CashBudgetFixture::ConstraintProgram());
  }

  rel::Database db_;
  cons::ConstraintSet constraints_;
};

TEST_F(RunningExampleEngineTest, FindsExample6CardMinimalRepair) {
  RepairEngine engine;
  auto outcome = engine.ComputeRepair(db_, constraints_);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->repair.cardinality(), 1u);
  const AtomicUpdate& update = outcome->repair.updates()[0];
  EXPECT_EQ(update.cell, (rel::CellRef{"CashBudget", 3, 4}));
  EXPECT_EQ(update.old_value, rel::Value(250));
  EXPECT_EQ(update.new_value, rel::Value(220));
  EXPECT_FALSE(outcome->already_consistent);
  EXPECT_EQ(outcome->stats.num_cells, 20u);
  EXPECT_EQ(outcome->stats.num_ground_rows, 8u);
}

TEST_F(RunningExampleEngineTest, Example7RepairIsValidButNotMinimal) {
  // ρ' changes cash sales → 130, long-term financing → 70... the paper's ρ'
  // is {t1→130, t2→70, t3→190}: verify it repairs the database but has
  // cardinality 3 > 1.
  Repair rho_prime({
      {rel::CellRef{"CashBudget", 1, 4}, rel::Value(100), rel::Value(130)},
      {rel::CellRef{"CashBudget", 6, 4}, rel::Value(40), rel::Value(70)},
      {rel::CellRef{"CashBudget", 7, 4}, rel::Value(160), rel::Value(190)},
  });
  auto repaired = rho_prime.Applied(db_);
  ASSERT_TRUE(repaired.ok());
  cons::ConsistencyChecker checker(&constraints_);
  auto consistent = checker.IsConsistent(*repaired);
  ASSERT_TRUE(consistent.ok());
  EXPECT_TRUE(*consistent);
  EXPECT_EQ(rho_prime.cardinality(), 3u);

  RepairEngine engine;
  auto outcome = engine.ComputeRepair(db_, constraints_);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LT(outcome->repair.cardinality(), rho_prime.cardinality());
}

TEST_F(RunningExampleEngineTest, ConsistentInputShortCircuits) {
  auto clean = CashBudgetFixture::PaperExample(false);
  ASSERT_TRUE(clean.ok());
  obs::RunContext run;
  RepairEngineOptions engine_options;
  engine_options.run = &run;
  RepairEngine engine(engine_options);
  auto outcome = engine.ComputeRepair(*clean, constraints_);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->already_consistent);
  EXPECT_TRUE(outcome->repair.empty());
  // The fast path never reaches the solver: no milp.nodes published.
  EXPECT_EQ(run.metrics().Snapshot().Counter("milp.nodes"), 0);
}

TEST_F(RunningExampleEngineTest, OperatorPinForcesAlternativeRepair) {
  // The operator rejects the 250→220 suggestion claiming the document really
  // says 250: the next repair must keep z₄ = 250 and fix other cells.
  std::vector<FixedValue> pins = {{rel::CellRef{"CashBudget", 3, 4}, 250.0}};
  RepairEngine engine;
  auto outcome = engine.ComputeRepair(db_, constraints_, pins);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  auto repaired = outcome->repair.Applied(db_);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired->ValueAt({"CashBudget", 3, 4}), rel::Value(250));
  cons::ConsistencyChecker checker(&constraints_);
  EXPECT_TRUE(*checker.IsConsistent(*repaired));
  EXPECT_GE(outcome->repair.cardinality(), 2u);
}

TEST_F(RunningExampleEngineTest, DisplayOrderPutsMostConstrainedFirst) {
  std::vector<FixedValue> pins = {{rel::CellRef{"CashBudget", 3, 4}, 250.0}};
  RepairEngine engine;
  auto outcome = engine.ComputeRepair(db_, constraints_, pins);
  ASSERT_TRUE(outcome.ok());
  ASSERT_GE(outcome->repair.cardinality(), 2u);
  // Sec. 6.3: updates are displayed most-constrained-cell first. Verify the
  // order is non-increasing in ground-row occurrence count.
  auto translation = TranslateToMilp(db_, constraints_);
  ASSERT_TRUE(translation.ok());
  int previous = 1 << 30;
  for (const AtomicUpdate& update : outcome->repair.updates()) {
    const int index = translation->CellIndex(update.cell);
    ASSERT_GE(index, 0);
    const int count = translation->occurrence_counts[index];
    EXPECT_LE(count, previous);
    previous = count;
  }
}

TEST_F(RunningExampleEngineTest, ExhaustiveSolverAgrees) {
  // Exhaustive enumeration is 2^N residual solves, so cross-check on a
  // one-year, two-detail budget (7 measure cells → 128 assignments).
  RepairEngineOptions options;
  options.use_exhaustive_solver = true;
  ocr::CashBudgetOptions small;
  small.num_years = 1;
  small.receipt_details = 1;
  small.disbursement_details = 1;
  Rng rng(7);
  auto truth = CashBudgetFixture::Random(small, &rng);
  ASSERT_TRUE(truth.ok());
  rel::Database noisy = truth->Clone();
  auto injected = ocr::InjectMeasureErrors(&noisy, 1, &rng);
  ASSERT_TRUE(injected.ok());
  cons::ConstraintSet constraints =
      ParseProgram(noisy, CashBudgetFixture::ConstraintProgram());

  RepairEngine exhaustive(options);
  RepairEngine standard;
  auto a = exhaustive.ComputeRepair(noisy, constraints);
  auto b = standard.ComputeRepair(noisy, constraints);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->repair.cardinality(), b->repair.cardinality());
}

// --- Randomized properties ------------------------------------------------

class RepairPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RepairPropertyTest, RepairSatisfiesConstraintsAndIsBounded) {
  const auto [seed, errors] = GetParam();
  Rng rng(1000 + seed);
  ocr::CashBudgetOptions options;
  options.num_years = 2;
  auto truth = CashBudgetFixture::Random(options, &rng);
  ASSERT_TRUE(truth.ok());
  rel::Database noisy = truth->Clone();
  auto injected = ocr::InjectMeasureErrors(&noisy, errors, &rng);
  ASSERT_TRUE(injected.ok());
  cons::ConstraintSet constraints =
      ParseProgram(noisy, CashBudgetFixture::ConstraintProgram());

  RepairEngine engine;
  auto outcome = engine.ComputeRepair(noisy, constraints);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // (a) ρ(D) ⊨ AC.
  auto repaired = outcome->repair.Applied(noisy);
  ASSERT_TRUE(repaired.ok());
  cons::ConsistencyChecker checker(&constraints);
  EXPECT_TRUE(*checker.IsConsistent(*repaired));
  // (b) card-minimality upper bound: restoring the injected cells is itself
  // a repair, so the minimal one cannot be larger.
  EXPECT_LE(outcome->repair.cardinality(), static_cast<size_t>(errors));
  // (c) Def. 3 consistency of the update set.
  EXPECT_TRUE(outcome->repair.IsConsistentUpdate());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RepairPropertyTest,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Values(1, 2, 4)));

TEST(RepairCatalogTest, TwoLevelHierarchyRepairs) {
  Rng rng(99);
  ocr::CatalogOptions options;
  auto truth = CatalogFixture::Random(options, &rng);
  ASSERT_TRUE(truth.ok());
  rel::Database noisy = truth->Clone();
  auto injected = ocr::InjectMeasureErrors(&noisy, 2, &rng);
  ASSERT_TRUE(injected.ok());
  cons::ConstraintSet constraints =
      ParseProgram(noisy, CatalogFixture::ConstraintProgram());
  RepairEngine engine;
  auto outcome = engine.ComputeRepair(noisy, constraints);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  auto repaired = outcome->repair.Applied(noisy);
  ASSERT_TRUE(repaired.ok());
  cons::ConsistencyChecker checker(&constraints);
  EXPECT_TRUE(*checker.IsConsistent(*repaired));
  EXPECT_LE(outcome->repair.cardinality(), 2u);
}

}  // namespace
}  // namespace dart::repair
