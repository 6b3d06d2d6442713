// Tests for the supervised validation loop (P7 of DESIGN.md): the simulated
// operator accepts correct suggestions, rejections feed actual values back
// as constraints, the loop converges to the ground truth, and batch-limited
// examination still converges.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "constraints/eval.h"
#include "constraints/parser.h"
#include "ocr/cash_budget.h"
#include "ocr/noise.h"
#include "validation/operator.h"
#include "validation/session.h"

namespace dart::validation {
namespace {

using ocr::CashBudgetFixture;

cons::ConstraintSet ParseProgram(const rel::Database& db) {
  cons::ConstraintSet constraints;
  Status status = cons::ParseConstraintProgram(
      db.Schema(), CashBudgetFixture::ConstraintProgram(), &constraints);
  DART_CHECK_MSG(status.ok(), status.ToString());
  return constraints;
}

TEST(SimulatedOperatorTest, AcceptsAndRejects) {
  auto truth = CashBudgetFixture::PaperExample(false);
  ASSERT_TRUE(truth.ok());
  SimulatedOperator op(&*truth);
  // Correct suggestion (250 → 220, truth holds 220).
  repair::AtomicUpdate good{{"CashBudget", 3, 4}, rel::Value(250),
                            rel::Value(220)};
  auto verdict = op.Examine(good);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict->accepted);
  // Wrong suggestion (→ 230).
  repair::AtomicUpdate bad{{"CashBudget", 3, 4}, rel::Value(250),
                           rel::Value(230)};
  verdict = op.Examine(bad);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict->accepted);
  EXPECT_DOUBLE_EQ(verdict->actual_value, 220);
}

TEST(ValidationSessionTest, RunningExampleConvergesInOneIteration) {
  auto truth = CashBudgetFixture::PaperExample(false);
  auto acquired = CashBudgetFixture::PaperExample(true);
  ASSERT_TRUE(truth.ok() && acquired.ok());
  cons::ConstraintSet constraints = ParseProgram(*acquired);
  SimulatedOperator op(&*truth);
  auto result = RunValidationSession(*acquired, constraints, op);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->iterations, 1u);
  EXPECT_EQ(result->examined_updates, 1u);
  EXPECT_EQ(result->accepted_updates, 1u);
  EXPECT_EQ(result->rejected_updates, 0u);
  EXPECT_EQ(*result->repaired.CountDifferences(*truth), 0u);
}

TEST(ValidationSessionTest, AlreadyConsistentInputNeedsNoExamination) {
  auto truth = CashBudgetFixture::PaperExample(false);
  ASSERT_TRUE(truth.ok());
  cons::ConstraintSet constraints = ParseProgram(*truth);
  SimulatedOperator op(&*truth);
  auto result = RunValidationSession(*truth, constraints, op);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->examined_updates, 0u);
}

TEST(ValidationSessionTest, CompensatingErrorsNeedRejectionRound) {
  // Corrupt a detail AND the matching aggregate so the sums still balance in
  // one constraint but not the others; the card-minimal repair may pick a
  // non-true fix, which the operator rejects — forcing a second iteration
  // that must then land on the truth.
  auto truth = CashBudgetFixture::PaperExample(false);
  ASSERT_TRUE(truth.ok());
  rel::Database acquired = truth->Clone();
  // cash sales 100 → 150 and total cash receipts 220 → 270: constraint 1
  // stays satisfied, constraints 2 (net inflow) breaks.
  ASSERT_TRUE(acquired.UpdateCell({"CashBudget", 1, 4}, rel::Value(150)).ok());
  ASSERT_TRUE(acquired.UpdateCell({"CashBudget", 3, 4}, rel::Value(270)).ok());
  cons::ConstraintSet constraints = ParseProgram(acquired);
  SimulatedOperator op(&*truth);
  auto result = RunValidationSession(acquired, constraints, op);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->converged);
  // Whatever path it took, the outcome equals the source document. (The
  // card-minimal optimum here is ambiguous — {net inflow, ending balance}
  // and {cash sales, total receipts} both have cardinality 2 — so whether a
  // rejection round occurs depends on which optimum the solver returns;
  // the loop must recover the truth either way.)
  EXPECT_EQ(*result->repaired.CountDifferences(*truth), 0u);
  EXPECT_EQ(result->examined_updates,
            result->accepted_updates + result->rejected_updates);
}

TEST(ValidationSessionTest, ProgressStreamGetsOneLinePerIteration) {
  auto truth = CashBudgetFixture::PaperExample(false);
  auto acquired = CashBudgetFixture::PaperExample(true);
  ASSERT_TRUE(truth.ok() && acquired.ok());
  cons::ConstraintSet constraints = ParseProgram(*acquired);
  SimulatedOperator op(&*truth);
  std::ostringstream progress;
  OstreamProgressSink progress_sink(&progress);
  SessionOptions options;
  options.progress = &progress_sink;
  auto result = RunValidationSession(*acquired, constraints, op, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->converged);

  const std::string text = progress.str();
  size_t lines = 0;
  for (char c : text) lines += c == '\n';
  EXPECT_EQ(lines, result->iterations);
  // The running example converges in one iteration with one accepted
  // suggestion; the rendered counts mirror the session result.
  EXPECT_NE(text.find("[validation] iter 1 | suggested 1 | examined 1 "
                      "(accepted 1, rejected 0)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("| attempt "), std::string::npos);
}

class BatchSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BatchSweepTest, ConvergesToTruthUnderAnyBatchSize) {
  Rng rng(404);
  ocr::CashBudgetOptions options;
  options.num_years = 2;
  auto truth = CashBudgetFixture::Random(options, &rng);
  ASSERT_TRUE(truth.ok());
  rel::Database acquired = truth->Clone();
  auto injected = ocr::InjectMeasureErrors(&acquired, 3, &rng);
  ASSERT_TRUE(injected.ok());
  cons::ConstraintSet constraints = ParseProgram(acquired);
  SimulatedOperator op(&*truth);
  SessionOptions session;
  session.examine_batch = GetParam();
  auto result = RunValidationSession(acquired, constraints, op, session);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(*result->repaired.CountDifferences(*truth), 0u);
  cons::ConsistencyChecker checker(&constraints);
  EXPECT_TRUE(*checker.IsConsistent(result->repaired));
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchSweepTest,
                         ::testing::Values(0, 1, 2, 5));

TEST(ValidationSessionTest, RejectionActualValueSurvivesEmptyRepairPath) {
  // Regression for a silent-corruption path in the convergence handling:
  // ExtractRepair drops updates below a *relative* 1e-6 tolerance, so at
  // millions-scale magnitudes a repair that moves a cell by a few units
  // extracts as empty — and the `already_consistent || repair.empty()` exit
  // used to return the acquired database verbatim, discarding actual source
  // values the operator had supplied on rejection. The final database must
  // always reflect the operator's word.
  //
  // Scenario: two cells of 3,000,000 whose true values are 2,999,998 each,
  // under sum = 5,999,996. Iteration 1 suggests a single-cell change by 4
  // (extractable: 4 > 1e-6·3e6 = 3) which the operator rejects, pinning that
  // cell to 2,999,998. Iteration 2's optimal repair then moves both cells by
  // 2 — below the relative tolerance — so the extracted repair is empty and
  // the loop converges. verify_result must be off for this to be silent
  // (the core's own post-check would reject the empty repair first).
  rel::Database truth;
  {
    auto schema = rel::RelationSchema::Create(
        "Books", {{"Grp", rel::Domain::kInt, false},
                  {"Val", rel::Domain::kInt, true}});
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE(truth.AddRelation(*schema).ok());
    rel::Relation* books = truth.FindRelation("Books");
    ASSERT_TRUE(books
                    ->Insert({rel::Value(int64_t{1}),
                              rel::Value(int64_t{2999998})})
                    .ok());
    ASSERT_TRUE(books
                    ->Insert({rel::Value(int64_t{1}),
                              rel::Value(int64_t{2999998})})
                    .ok());
  }
  rel::Database acquired = truth.Clone();
  ASSERT_TRUE(
      acquired.UpdateCell({"Books", 0, 1}, rel::Value(int64_t{3000000})).ok());
  ASSERT_TRUE(
      acquired.UpdateCell({"Books", 1, 1}, rel::Value(int64_t{3000000})).ok());
  const char* program = R"(
agg tot(x) := sum(Val) from Books where Grp = x;
constraint balance: Books(x, _) => tot(x) = 5999996;
)";
  cons::ConstraintSet constraints;
  Status parsed =
      cons::ParseConstraintProgram(acquired.Schema(), program, &constraints);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  SimulatedOperator op(&truth);

  SessionOptions options;
  options.engine.verify_result = false;
  auto result = RunValidationSession(acquired, constraints, op, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->converged);
  ASSERT_GE(result->rejected_updates, 1u);
  // The rejected cell's actual source value (2,999,998) must be in the final
  // database even though the converging repair extracted as empty.
  EXPECT_GE(*result->repaired.CountDifferences(acquired), 1u);
  bool actual_value_present = false;
  for (size_t row = 0; row < 2; ++row) {
    auto value = result->repaired.ValueAt({"Books", row, 1});
    ASSERT_TRUE(value.ok());
    if (*value == rel::Value(int64_t{2999998})) actual_value_present = true;
  }
  EXPECT_TRUE(actual_value_present);
}

TEST(ValidationSessionTest, EffortIsBoundedByMeasureCells) {
  Rng rng(777);
  ocr::CashBudgetOptions options;
  options.num_years = 3;
  auto truth = CashBudgetFixture::Random(options, &rng);
  ASSERT_TRUE(truth.ok());
  rel::Database acquired = truth->Clone();
  auto injected = ocr::InjectMeasureErrors(&acquired, 4, &rng);
  ASSERT_TRUE(injected.ok());
  cons::ConstraintSet constraints = ParseProgram(acquired);
  SimulatedOperator op(&*truth);
  auto result = RunValidationSession(acquired, constraints, op);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The whole point of DART: the operator examines far fewer values than
  // the total number of measure cells.
  EXPECT_LT(result->examined_updates, acquired.MeasureCells().size());
}

}  // namespace
}  // namespace dart::validation
