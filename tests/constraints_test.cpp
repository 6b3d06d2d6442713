// Tests for the constraint language: attribute expressions, aggregation
// function evaluation (P2: the χ values of Example 2), the DSL parser, the
// grounding engine, and the consistency checker on the running example
// (violations i and ii of Example 1).

#include <gtest/gtest.h>

#include "constraints/ast.h"
#include "constraints/eval.h"
#include "constraints/parser.h"
#include "ocr/cash_budget.h"

namespace dart::cons {
namespace {

using ocr::CashBudgetFixture;

/// χ(params) on `db`: the summed expression over T_χ, computed here from the
/// tuple set so the χ values of Example 2 are checked directly.
Result<double> ChiValue(const rel::Database& db, const AggregationFunction& fn,
                        const std::vector<rel::Value>& params) {
  DART_ASSIGN_OR_RETURN(std::vector<size_t> rows,
                        AggregationTupleSet(db, fn, params));
  const rel::Relation* relation = db.FindRelation(fn.relation);
  LinearForm form;
  DART_RETURN_IF_ERROR(fn.expr->Linearize(relation->schema(), &form, 1.0));
  double total = 0;
  for (size_t row : rows) {
    total += form.constant;
    for (const auto& [attr, coeff] : form.coefficients) {
      total += coeff * relation->At(row, attr).AsReal();
    }
  }
  return total;
}

class RunningExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = CashBudgetFixture::PaperExample(/*with_acquisition_error=*/true);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    Status status = ParseConstraintProgram(
        db_.Schema(), CashBudgetFixture::ConstraintProgram(), &constraints_);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  const AggregationFunction& chi(const std::string& name) {
    const AggregationFunction* fn = constraints_.FindFunction(name);
    DART_CHECK(fn != nullptr);
    return *fn;
  }

  rel::Database db_;
  ConstraintSet constraints_;
};

TEST_F(RunningExampleTest, ParserRegistersEverything) {
  EXPECT_EQ(constraints_.functions().size(), 2u);
  EXPECT_EQ(constraints_.constraints().size(), 3u);
  EXPECT_NE(constraints_.FindFunction("chi1"), nullptr);
  EXPECT_NE(constraints_.FindFunction("chi2"), nullptr);
  EXPECT_EQ(constraints_.FindFunction("nope"), nullptr);
}

TEST_F(RunningExampleTest, Chi1ValuesOfExample2) {
  // χ₁('Receipts', 2003, 'det') = 100 + 120 = 220.
  auto value = ChiValue(
      db_, chi("chi1"),
      {rel::Value("Receipts"), rel::Value(2003), rel::Value("det")});
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_DOUBLE_EQ(*value, 220);
  // χ₁('Disbursements', 2003, 'aggr') = 160.
  value = ChiValue(
      db_, chi("chi1"),
      {rel::Value("Disbursements"), rel::Value(2003), rel::Value("aggr")});
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 160);
}

TEST_F(RunningExampleTest, Chi2ValuesOfExample2) {
  // χ₂(2003, 'cash sales') = 100.
  auto value = ChiValue(
      db_, chi("chi2"), {rel::Value(2003), rel::Value("cash sales")});
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 100);
  // χ₂(2004, 'net cash inflow') = 10.
  value = ChiValue(
      db_, chi("chi2"), {rel::Value(2004), rel::Value("net cash inflow")});
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 10);
}

TEST_F(RunningExampleTest, EmptyTupleSetSumsToZero) {
  auto value = ChiValue(
      db_, chi("chi2"), {rel::Value(2099), rel::Value("cash sales")});
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 0);
}

TEST_F(RunningExampleTest, TupleSetsAreSteadyTargets) {
  auto tuples = AggregationTupleSet(
      db_, chi("chi1"),
      {rel::Value("Receipts"), rel::Value(2003), rel::Value("det")});
  ASSERT_TRUE(tuples.ok());
  ASSERT_EQ(tuples->size(), 2u);  // cash sales, receivables
  EXPECT_EQ((*tuples)[0], 1u);
  EXPECT_EQ((*tuples)[1], 2u);
}

TEST_F(RunningExampleTest, ViolationsOfExample1Detected) {
  // The 250-error breaks (i) constraint 1 on Receipts/2003 and (ii)
  // constraint 2 on 2003 — and nothing else.
  ConsistencyChecker checker(&constraints_);
  auto violations = checker.Check(db_);
  ASSERT_TRUE(violations.ok()) << violations.status().ToString();
  ASSERT_EQ(violations->size(), 2u);
  EXPECT_EQ((*violations)[0].constraint, "c1");
  EXPECT_EQ((*violations)[1].constraint, "c2");
  EXPECT_FALSE(*checker.IsConsistent(db_));
}

TEST_F(RunningExampleTest, CleanDatabaseIsConsistent) {
  auto clean = CashBudgetFixture::PaperExample(false);
  ASSERT_TRUE(clean.ok());
  ConsistencyChecker checker(&constraints_);
  EXPECT_TRUE(*checker.IsConsistent(*clean));
}

TEST_F(RunningExampleTest, GroundingProjectsAndDedupes) {
  // Constraint 1 projects onto (x, y): 3 sections × 2 years = 6 bindings,
  // even though 20 tuples satisfy the premise.
  TupleIndexCache indexes(db_);
  const AggregateConstraint& c1 = constraints_.constraints()[0];
  auto bindings =
      GroundSubstitutions(&indexes, c1.premise, TermVariables(c1));
  ASSERT_TRUE(bindings.ok());
  EXPECT_EQ(bindings->size(), 6u);
  // Constraint 2 projects onto (x): 2 years.
  const AggregateConstraint& c2 = constraints_.constraints()[1];
  bindings = GroundSubstitutions(&indexes, c2.premise, TermVariables(c2));
  ASSERT_TRUE(bindings.ok());
  EXPECT_EQ(bindings->size(), 2u);
}

// --- Attribute expressions -------------------------------------------------

TEST(AttributeExprTest, LinearizeCombinations) {
  auto schema = rel::RelationSchema::Create(
      "R", {{"A", rel::Domain::kInt, true}, {"B", rel::Domain::kReal, true}});
  ASSERT_TRUE(schema.ok());
  // 2*(A - B) + 3  → 2A - 2B + 3
  AttributeExprPtr expr = MakeBinaryExpr(
      MakeScaleExpr(2.0, MakeBinaryExpr(MakeAttrExpr("A"), '-',
                                        MakeAttrExpr("B"))),
      '+', MakeConstExpr(3.0));
  LinearForm form;
  ASSERT_TRUE(expr->Linearize(*schema, &form, 1.0).ok());
  EXPECT_DOUBLE_EQ(form.constant, 3.0);
  EXPECT_DOUBLE_EQ(form.coefficients.at(0), 2.0);
  EXPECT_DOUBLE_EQ(form.coefficients.at(1), -2.0);
}

TEST(AttributeExprTest, UnknownAttributeRejected) {
  auto schema = rel::RelationSchema::Create(
      "R", {{"A", rel::Domain::kInt, true}});
  ASSERT_TRUE(schema.ok());
  LinearForm form;
  EXPECT_FALSE(MakeAttrExpr("Z")->Linearize(*schema, &form, 1.0).ok());
}

TEST(AttributeExprTest, NonNumericAttributeRejected) {
  auto schema = rel::RelationSchema::Create(
      "R", {{"S", rel::Domain::kString, false}});
  ASSERT_TRUE(schema.ok());
  LinearForm form;
  EXPECT_FALSE(MakeAttrExpr("S")->Linearize(*schema, &form, 1.0).ok());
}

// --- Parser error handling -------------------------------------------------

class ParserErrorTest : public ::testing::Test {
 protected:
  rel::DatabaseSchema Schema() {
    rel::DatabaseSchema schema;
    auto r = rel::RelationSchema::Create(
        "R", {{"A", rel::Domain::kString, false},
              {"V", rel::Domain::kInt, true}});
    DART_CHECK(r.ok());
    DART_CHECK(schema.AddRelation(*r).ok());
    return schema;
  }

  Status Parse(const std::string& text) {
    ConstraintSet out;
    return ParseConstraintProgram(Schema(), text, &out);
  }
};

TEST_F(ParserErrorTest, AcceptsMinimalProgram) {
  EXPECT_TRUE(Parse("agg s(x) := sum(V) from R where A = x;\n"
                    "constraint k: R(a, _) => s(a) <= 10;")
                  .ok());
}

TEST_F(ParserErrorTest, ComparisonOperatorsParsed) {
  EXPECT_TRUE(Parse("agg s(x) := sum(V) from R where A != x;\n"
                    "constraint k: R(a, _) => s(a) >= -3;")
                  .ok());
}

TEST_F(ParserErrorTest, RejectsUnknownRelation) {
  Status status = Parse("agg s(x) := sum(V) from Nope where A = x;");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(ParserErrorTest, RejectsUnknownAttributeInSum) {
  EXPECT_FALSE(Parse("agg s(x) := sum(W) from R where A = x;").ok());
}

TEST_F(ParserErrorTest, RejectsUndeclaredFunction) {
  Status status = Parse("constraint k: R(a, _) => ghost(a) <= 1;");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(ParserErrorTest, RejectsArityMismatch) {
  EXPECT_FALSE(Parse("agg s(x) := sum(V) from R where A = x;\n"
                     "constraint k: R(a, _) => s(a, a) <= 1;")
                   .ok());
}

TEST_F(ParserErrorTest, RejectsFreeVariableInCall) {
  // Def. 1 requires call variables to occur in the premise.
  EXPECT_FALSE(Parse("agg s(x) := sum(V) from R where A = x;\n"
                     "constraint k: R(a, _) => s(zz) <= 1;")
                   .ok());
}

TEST_F(ParserErrorTest, RejectsStrictComparisonInBody) {
  EXPECT_FALSE(Parse("agg s(x) := sum(V) from R where A = x;\n"
                     "constraint k: R(a, _) => s(a) < 1;")
                   .ok());
}

TEST_F(ParserErrorTest, RejectsUnterminatedString) {
  EXPECT_EQ(Parse("agg s(x) := sum(V) from R where A = 'oops;").code(),
            StatusCode::kParseError);
}

TEST_F(ParserErrorTest, RejectsWildcardInCall) {
  EXPECT_FALSE(Parse("agg s(x) := sum(V) from R where A = x;\n"
                     "constraint k: R(a, _) => s(_) <= 1;")
                   .ok());
}

TEST_F(ParserErrorTest, ConstantSummandsFoldIntoRhs) {
  ConstraintSet out;
  Status status = ParseConstraintProgram(
      Schema(),
      "agg s(x) := sum(V) from R where A = x;\n"
      "constraint k: R(a, _) => s(a) + 5 <= 12;",
      &out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(out.constraints().size(), 1u);
  EXPECT_DOUBLE_EQ(out.constraints()[0].rhs, 7.0);  // 12 - 5
}

TEST_F(ParserErrorTest, CoefficientsAndSignsParsed) {
  ConstraintSet out;
  Status status = ParseConstraintProgram(
      Schema(),
      "agg s(x) := sum(V) from R where A = x;\n"
      "constraint k: R(a, _) => -2*s(a) + 3*s(a) <= 4;",
      &out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const auto& terms = out.constraints()[0].terms;
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_DOUBLE_EQ(terms[0].coefficient, -2.0);
  EXPECT_DOUBLE_EQ(terms[1].coefficient, 3.0);
}

TEST_F(ParserErrorTest, CommentsAndWhitespaceIgnored) {
  EXPECT_TRUE(Parse("# header comment\n"
                    "agg s(x) := sum(V) from R where A = x;  # trailing\n"
                    "\n"
                    "constraint k: R(a, _) => s(a) <= 10;\n")
                  .ok());
}

}  // namespace
}  // namespace dart::cons
