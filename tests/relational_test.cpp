// Tests for the relational substrate: values, schemas, relations, database
// instances, measure-cell addressing and CSV round-trips.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "relational/csv.h"
#include "relational/database.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace dart::rel {
namespace {

RelationSchema TestSchema() {
  auto schema = RelationSchema::Create(
      "T", {{"Name", Domain::kString, false},
            {"Qty", Domain::kInt, true},
            {"Price", Domain::kReal, true}});
  DART_CHECK(schema.ok());
  return std::move(schema).value();
}

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(3).is_int());
  EXPECT_TRUE(Value(3.5).is_real());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_EQ(Value(7).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value(7).AsReal(), 7.0);  // int widens
  EXPECT_EQ(Value("abc").AsString(), "abc");
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value(2), Value(2.0));
  EXPECT_NE(Value(2), Value(2.5));
  EXPECT_NE(Value("2"), Value(2));
  EXPECT_EQ(Value(), Value());
  EXPECT_NE(Value(), Value(0));
}

TEST(ValueTest, Ordering) {
  EXPECT_LT(Value(), Value(1));          // null < numeric
  EXPECT_LT(Value(5), Value("a"));       // numeric < string
  EXPECT_LT(Value(1), Value(2.5));
  EXPECT_LT(Value("a"), Value("b"));
}

TEST(ValueTest, Conformance) {
  EXPECT_TRUE(Value(3).ConformsTo(Domain::kInt));
  EXPECT_TRUE(Value(3).ConformsTo(Domain::kReal));   // Z ⊂ R
  EXPECT_FALSE(Value(3.5).ConformsTo(Domain::kInt));
  EXPECT_FALSE(Value().ConformsTo(Domain::kInt));
  EXPECT_TRUE(Value("s").ConformsTo(Domain::kString));
}

TEST(ValueTest, ParsePerDomain) {
  EXPECT_EQ(*Value::Parse("42", Domain::kInt), Value(42));
  EXPECT_EQ(*Value::Parse(" -7 ", Domain::kInt), Value(-7));
  EXPECT_FALSE(Value::Parse("4.2", Domain::kInt).ok());
  EXPECT_EQ(*Value::Parse("4.25", Domain::kReal), Value(4.25));
  EXPECT_FALSE(Value::Parse("x", Domain::kReal).ok());
  EXPECT_EQ(*Value::Parse("  hi  ", Domain::kString), Value("  hi  "));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value().ToString(), "null");
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value("s").ToString(), "s");
}

TEST(SchemaTest, CreateValidates) {
  EXPECT_FALSE(RelationSchema::Create("", {{"A", Domain::kInt, false}}).ok());
  EXPECT_FALSE(RelationSchema::Create("R", {}).ok());
  EXPECT_FALSE(RelationSchema::Create("R", {{"A", Domain::kInt, false},
                                            {"A", Domain::kInt, false}})
                   .ok());
  // Measures must be numeric (paper Sec. 3).
  EXPECT_FALSE(
      RelationSchema::Create("R", {{"A", Domain::kString, true}}).ok());
}

TEST(SchemaTest, MeasureIndexes) {
  RelationSchema schema = TestSchema();
  ASSERT_EQ(schema.measure_indexes().size(), 2u);
  EXPECT_EQ(schema.measure_indexes()[0], 1u);
  EXPECT_EQ(schema.measure_indexes()[1], 2u);
  EXPECT_EQ(schema.AttributeIndex("Price"), 2u);
  EXPECT_FALSE(schema.AttributeIndex("Nope").has_value());
  EXPECT_EQ(schema.ToString(), "T(Name:String, Qty:Int*, Price:Real*)");
}

TEST(RelationTest, InsertValidatesArityAndDomains) {
  Relation relation(TestSchema());
  EXPECT_FALSE(relation.Insert({Value("a")}).ok());  // arity
  EXPECT_FALSE(
      relation.Insert({Value("a"), Value(1.5), Value(2.0)}).ok());  // Qty: Z
  auto row = relation.Insert({Value("a"), Value(1), Value(2.5)});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(*row, 0u);
  EXPECT_EQ(relation.size(), 1u);
}

TEST(RelationTest, UpdateValueGuardsMeasures) {
  Relation relation(TestSchema());
  ASSERT_TRUE(relation.Insert({Value("a"), Value(1), Value(2.5)}).ok());
  EXPECT_TRUE(relation.UpdateValue(0, 1, Value(9)).ok());
  EXPECT_EQ(relation.At(0, 1), Value(9));
  // Non-measure attribute refused unless explicitly allowed.
  EXPECT_FALSE(relation.UpdateValue(0, 0, Value("b")).ok());
  EXPECT_TRUE(relation.UpdateValue(0, 0, Value("b"), true).ok());
  // Domain violation refused.
  EXPECT_FALSE(relation.UpdateValue(0, 1, Value(1.5)).ok());
  // Out of range.
  EXPECT_FALSE(relation.UpdateValue(5, 1, Value(2)).ok());
}

TEST(RelationTest, SelectIndexes) {
  Relation relation(TestSchema());
  ASSERT_TRUE(relation.Insert({Value("a"), Value(1), Value(2.5)}).ok());
  ASSERT_TRUE(relation.Insert({Value("b"), Value(5), Value(0.5)}).ok());
  auto hits = relation.SelectIndexes(
      [](const Tuple& t) { return t[1].AsInt() > 2; });
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1u);
}

TEST(DatabaseTest, MeasureCellsEnumeration) {
  Database db;
  ASSERT_TRUE(db.AddRelation(TestSchema()).ok());
  Relation* relation = db.FindRelation("T");
  ASSERT_TRUE(relation->Insert({Value("a"), Value(1), Value(2.5)}).ok());
  ASSERT_TRUE(relation->Insert({Value("b"), Value(2), Value(3.5)}).ok());
  auto cells = db.MeasureCells();
  ASSERT_EQ(cells.size(), 4u);  // 2 rows × 2 measure attrs
  EXPECT_EQ(cells[0], (CellRef{"T", 0, 1}));
  EXPECT_EQ(cells[3], (CellRef{"T", 1, 2}));
}

// Measure-cell ids follow relation insertion order (CashBudget before Bank
// here, against name order), come from the current shape, so they stay
// right as a relation grows, and are -1 for every cell that is not a
// measure cell. MeasureValues lists the values in id order.
TEST(DatabaseTest, MeasureCellIdsFollowInsertionOrder) {
  auto budget_schema = [](const std::string& name) {
    auto schema = RelationSchema::Create(
        name, {{"Year", Domain::kInt, false},
               {"Value", Domain::kInt, true},
               {"Rate", Domain::kReal, true}});
    DART_CHECK(schema.ok());
    return std::move(schema).value();
  };
  Database db;
  ASSERT_TRUE(db.AddRelation(budget_schema("CashBudget")).ok());
  ASSERT_TRUE(db.AddRelation(budget_schema("Bank")).ok());
  Relation* budget = db.FindRelation("CashBudget");
  Relation* bank = db.FindRelation("Bank");
  ASSERT_TRUE(budget->Insert({Value(2003), Value(10), Value(0.5)}).ok());
  ASSERT_TRUE(budget->Insert({Value(2004), Value(20), Value(1)}).ok());
  ASSERT_TRUE(bank->Insert({Value(2003), Value(30), Value(1.5)}).ok());

  auto expect_dense_ids = [&] {
    const std::vector<CellRef> cells = db.MeasureCells();
    for (size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(db.MeasureCellId(cells[i]), static_cast<int>(i))
          << cells[i].ToString();
    }
    auto values = db.MeasureValues();
    ASSERT_TRUE(values.ok()) << values.status().ToString();
    ASSERT_EQ(values->size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ((*values)[i], db.ValueAt(cells[i])->AsReal());
    }
  };
  expect_dense_ids();
  EXPECT_EQ(db.MeasureCells()[0], (CellRef{"CashBudget", 0, 1}));
  EXPECT_EQ(db.MeasureCellId({"CashBudget", 1, 2}), 3);
  EXPECT_EQ(db.MeasureCellId({"Bank", 0, 1}), 4);

  EXPECT_EQ(db.MeasureCellId({"CashBudget", 0, 0}), -1);  // not a measure
  EXPECT_EQ(db.MeasureCellId({"Bank", 0, 3}), -1);        // past the arity
  EXPECT_EQ(db.MeasureCellId({"CashBudget", 2, 1}), -1);  // past the end
  EXPECT_EQ(db.MeasureCellId({"Missing", 0, 1}), -1);     // no relation

  // A grown CashBudget shifts Bank's ids; nothing is cached.
  ASSERT_TRUE(budget->Insert({Value(2005), Value(40), Value(2.5)}).ok());
  expect_dense_ids();
  EXPECT_EQ(db.MeasureCellId({"CashBudget", 2, 1}), 4);
  EXPECT_EQ(db.MeasureCellId({"Bank", 0, 1}), 6);
}

TEST(DatabaseTest, CellAccessAndUpdate) {
  Database db;
  ASSERT_TRUE(db.AddRelation(TestSchema()).ok());
  ASSERT_TRUE(
      db.FindRelation("T")->Insert({Value("a"), Value(1), Value(2.5)}).ok());
  CellRef cell{"T", 0, 1};
  EXPECT_EQ(*db.ValueAt(cell), Value(1));
  ASSERT_TRUE(db.UpdateCell(cell, Value(10)).ok());
  EXPECT_EQ(*db.ValueAt(cell), Value(10));
  EXPECT_FALSE(db.ValueAt({"Missing", 0, 0}).ok());
  EXPECT_FALSE(db.ValueAt({"T", 9, 0}).ok());
}

TEST(DatabaseTest, CountDifferences) {
  Database a;
  ASSERT_TRUE(a.AddRelation(TestSchema()).ok());
  ASSERT_TRUE(
      a.FindRelation("T")->Insert({Value("a"), Value(1), Value(2.5)}).ok());
  Database b = a.Clone();
  EXPECT_EQ(*a.CountDifferences(b), 0u);
  ASSERT_TRUE(b.UpdateCell({"T", 0, 1}, Value(7)).ok());
  EXPECT_EQ(*a.CountDifferences(b), 1u);
}

TEST(DatabaseTest, DuplicateRelationRejected) {
  Database db;
  ASSERT_TRUE(db.AddRelation(TestSchema()).ok());
  EXPECT_FALSE(db.AddRelation(TestSchema()).ok());
}

TEST(CsvTest, RoundTrip) {
  Relation relation(TestSchema());
  ASSERT_TRUE(relation.Insert({Value("plain"), Value(1), Value(2.5)}).ok());
  ASSERT_TRUE(
      relation.Insert({Value("with,comma"), Value(-2), Value(0.25)}).ok());
  ASSERT_TRUE(
      relation.Insert({Value("with \"quote\""), Value(3), Value(4.0)}).ok());
  const std::string csv = WriteCsv(relation);
  auto parsed = ReadCsv(TestSchema(), csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ(parsed->At(1, 0), Value("with,comma"));
  EXPECT_EQ(parsed->At(2, 0), Value("with \"quote\""));
  EXPECT_EQ(parsed->At(1, 1), Value(-2));
  EXPECT_EQ(parsed->At(2, 2), Value(4.0));
}

TEST(CsvTest, RejectsBadHeader) {
  EXPECT_FALSE(ReadCsv(TestSchema(), "X,Y,Z\n").ok());
  EXPECT_FALSE(ReadCsv(TestSchema(), "Name,Qty\n").ok());
}

TEST(CsvTest, RejectsBadField) {
  EXPECT_FALSE(ReadCsv(TestSchema(), "Name,Qty,Price\na,notanint,2.5\n").ok());
  EXPECT_FALSE(ReadCsv(TestSchema(), "Name,Qty,Price\na,1\n").ok());
}

TEST(CsvTest, SkipsBlankLines) {
  auto parsed = ReadCsv(TestSchema(), "Name,Qty,Price\n\na,1,2.5\n\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), 1u);
}

}  // namespace
}  // namespace dart::rel
