// Grounding parity: FNV-1a digests of serialized GroundPrograms, recorded
// from the scan-based grounder that preceded the indexed one. Any change to
// the rows (order, names, bindings, coefficients, op, rhs, rhs_original) or
// to max_abs_factor changes a digest. Cases: 30 random cash budgets at 2,
// 12 and 50 years, expense reports, a two-atom (cross-relation) premise, a
// WHERE with non-equality residual comparisons, premise constants, and keys
// that compare an Int against a Real (2 vs 2.0).

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "constraints/ground.h"
#include "constraints/parser.h"
#include "ocr/cash_budget.h"
#include "ocr/expense.h"
#include "ocr/noise.h"
#include "util/random.h"

namespace dart::cons {
namespace {

std::string SerializeValue(const rel::Value& v) {
  char buf[64];
  if (v.is_null()) return "n:";
  if (v.is_int()) return "i:" + std::to_string(v.AsInt());
  if (v.is_real()) {
    std::snprintf(buf, sizeof(buf), "r:%.17g", v.AsReal());
    return buf;
  }
  return "s:" + v.AsString();
}

// Cells serialize as their CellRef text (ids mapped back through `db`), so
// the digests recorded when rows were keyed by CellRef still apply.
std::string Serialize(const rel::Database& db, const GroundProgram& program) {
  const std::vector<rel::CellRef> cells = db.MeasureCells();
  std::string out;
  char buf[128];
  for (const GroundRow& row : program.rows) {
    out += row.constraint + "|" + row.name + "|";
    for (const auto& [var, value] : row.binding) {
      out += var + "=" + SerializeValue(value) + ",";
    }
    out += "|";
    for (const auto& [id, coeff] : row.coefficients) {
      const rel::CellRef& cell = cells[static_cast<size_t>(id)];
      std::snprintf(buf, sizeof(buf), "%zu.%zu:%.17g,", cell.row,
                    cell.attribute, coeff);
      out += cell.relation + buf;
    }
    std::snprintf(buf, sizeof(buf), "|%s|%.17g|%.17g\n", CompareOpName(row.op),
                  row.rhs, row.rhs_original);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "max_abs_factor=%.17g\n",
                program.max_abs_factor);
  return out + buf;
}

std::string Digest(const rel::Database& db, const GroundProgram& program) {
  uint64_t hash = 14695981039346656037ull;  // FNV-1a 64-bit.
  for (unsigned char c : Serialize(db, program)) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
  return buf;
}

std::string GroundDigest(const rel::Database& db, const std::string& program) {
  ConstraintSet constraints;
  Status status = ParseConstraintProgram(db.Schema(), program, &constraints);
  DART_CHECK_MSG(status.ok(), status.ToString());
  Result<GroundProgram> ground = GroundConstraintProgram(db, constraints);
  DART_CHECK_MSG(ground.ok(), ground.status().ToString());
  return Digest(db, *ground);
}

std::string CashBudgetDigest(int years, int seed) {
  Rng rng(static_cast<uint64_t>(years * 1000 + seed));
  // The seed varies the shape too: grounding reads only non-measure values,
  // so budgets that differ only in measure values ground identically.
  ocr::CashBudgetOptions options;
  options.num_years = years;
  options.start_year = 1990 + seed;
  options.receipt_details = 1 + seed % 4;
  options.disbursement_details = 1 + (seed / 4) % 5;
  auto db = ocr::CashBudgetFixture::Random(options, &rng);
  DART_CHECK(db.ok());
  DART_CHECK(ocr::InjectMeasureErrors(&*db, 3, &rng).ok());
  return GroundDigest(*db, ocr::CashBudgetFixture::ConstraintProgram());
}

// Indexed by seed 0..29.
const char* const kCashBudget2[] = {
    "22f7400095d5e8ec", "6816a951a7ba391f", "ed7416bb15da4e03",
    "99e0179305f9b077", "e8808853d481244d", "6dc174ad0f9f8ae5",
    "ee342d8bce06dfb5", "753e728d020d3b1e", "88d3092571ad2c73",
    "83ee0d8d0df00866", "51b4ed067f6d6292", "891babebb573edfe",
    "0a7a6f5250c9f049", "b0b90b8aebe43834", "f22134803964a0a6",
    "be5b539c0812f8bf", "89456e20d0f28912", "939f7b9a5162c106",
    "740bcc90d215eccf", "b97e07b14f04ca52", "09f370300d93ec18",
    "e2266f62b732fd5b", "09700afc5238bc53", "d19c8adcd5c7fdfb",
    "e511d8e02d6b0c15", "c0cfd163e64bc199", "995b177ddd8b4fdd",
    "6d9e55f039a64992", "8a62c6978b6c10f7", "caf9a9c64a504c78"};
const char* const kCashBudget12[] = {
    "0e9b05a64e0d0820", "e9beb72b3d577e52", "892b024b71422467",
    "5ecbf1918a214691", "8e7746ec044c8169", "8e9be238dbb91301",
    "1940051de4324a52", "2d523528bceed0bf", "62b5f021fac3f4ff",
    "f6000aa47f9da68a", "b29472d893bfd3e3", "c97863507d9caeb5",
    "0d64643722eba114", "c35ec8837bc2a1c3", "40b1d6abc74d83a4",
    "0c7c112b04e009c0", "e2b647e7a978869b", "ec706cfeefed41d0",
    "46331ae7ca71449c", "fdda13c4f60e2093", "b3fc981dab7682d0",
    "4de5fae2b81ee9a8", "547491f4737137c7", "d4614961ba277a1f",
    "74510bc03c03b0c9", "fc12f1925a10d9ef", "9739802eca869a5e",
    "bd998d680afecc45", "b2ce0eabbefd9607", "f896dc4987df0ee8"};
const char* const kCashBudget50[] = {
    "e21ab0c50aee88b0", "80c1379674e71065", "5d3d252008333f9f",
    "efaed78bbe6819c4", "84150b5a5de35814", "9139225f1759e6ac",
    "1cfa102a69f4a613", "ea994073772a5bfb", "58e6edf25799f59d",
    "ede2f02cd1a60d06", "ac0120d38afe09ba", "879292d577d8f0fc",
    "aff140fcbe469639", "8795a6fd7aa7461f", "3b2fe03908e52d09",
    "50fb50d9af956f9b", "bdfb78ad91185ab0", "6d58e538dc16072e",
    "ac54bd8ac3120ad4", "f0561c6fa4f92ad2", "8ea42e575660e478",
    "f1190b25a2381897", "5efc4143dea8215b", "5b8d21a1319d6dfa",
    "0949d14c79757384", "69507258a683aa42", "1501cccb7703a80f",
    "16e58c807f5d3fd5", "b55e9c7027bd4771", "046093f24b309b38"};

void ExpectCashBudgetDigests(int years, const char* const* expected) {
  for (int seed = 0; seed < 30; ++seed) {
    EXPECT_EQ(CashBudgetDigest(years, seed), expected[seed])
        << years << " years, seed " << seed;
  }
}

TEST(GroundingParityTest, CashBudgetTwoYears) {
  ExpectCashBudgetDigests(2, kCashBudget2);
}

TEST(GroundingParityTest, CashBudgetTwelveYears) {
  ExpectCashBudgetDigests(12, kCashBudget12);
}

TEST(GroundingParityTest, CashBudgetFiftyYears) {
  ExpectCashBudgetDigests(50, kCashBudget50);
}

TEST(GroundingParityTest, ExpenseReports) {
  const char* const expected[] = {"3e966ffe839dee33", "2546924fea8423cb",
                                  "70ac7cf4c268ceee"};
  for (int seed = 0; seed < 3; ++seed) {
    Rng rng(static_cast<uint64_t>(7000 + seed));
    ocr::ExpenseOptions options;
    options.num_months = 2 + seed;
    options.categories_per_month = 1 + seed;
    options.items_per_category = 3 - seed;
    auto db = ocr::ExpenseFixture::Random(options, &rng);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(ocr::InjectMeasureErrors(&*db, 2, &rng).ok());
    EXPECT_EQ(GroundDigest(*db, ocr::ExpenseFixture::ConstraintProgram()),
              expected[seed])
        << "seed " << seed;
  }
}

/// The paper's Fig. 1 budget plus Bank(Year:Int, Balance:Int*), with a
/// statement year (2005) the budget lacks.
rel::Database BudgetWithBank() {
  auto db = ocr::CashBudgetFixture::PaperExample(true);
  DART_CHECK(db.ok());
  auto schema = rel::RelationSchema::Create(
      "Bank", {{"Year", rel::Domain::kInt, false},
               {"Balance", rel::Domain::kInt, true}});
  DART_CHECK(schema.ok());
  DART_CHECK(db->AddRelation(*schema).ok());
  rel::Relation* bank = db->FindRelation("Bank");
  for (const auto& [year, balance] :
       std::vector<std::pair<int64_t, int64_t>>{
           {2004, 90}, {2003, 80}, {2005, 7}, {2003, 1}}) {
    DART_CHECK(bank->Insert({rel::Value(year), rel::Value(balance)}).ok());
  }
  return std::move(db).value();
}

TEST(GroundingParityTest, TwoAtomPremise) {
  EXPECT_EQ(GroundDigest(BudgetWithBank(), R"(
agg chi2(x, y) := sum(Value) from CashBudget
    where Year = x and Subsection = y;
agg bank(x) := sum(Balance) from Bank where Year = x;
constraint reconcile: CashBudget(y, _, _, _, _), Bank(y, _)
    => chi2(y, 'ending cash balance') - bank(y) = 0;
constraint by_section: Bank(y, _), CashBudget(y, s, _, _, _)
    => chi2(y, 'net cash inflow') + 2 * bank(y) <= 500;
)"),
            "3eb38d272d795b53");
}

TEST(GroundingParityTest, ResidualComparisonsAndPremiseConstants) {
  auto db = ocr::CashBudgetFixture::PaperExample(true);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(GroundDigest(*db, R"(
agg since(x, y) := sum(Value) from CashBudget
    where Year >= x and Subsection = y;
agg others(x, z) := sum(Value) from CashBudget
    where Section = x and Type != z and Year < 2005;
agg fixed(y) := sum(2 * Value + 3) from CashBudget
    where Type = 'det' and Year = y and Section != 'Balance';
constraint c_since: CashBudget(x, _, _, _, _)
    => since(x, 'cash sales') - since(x, 'total cash receipts') <= 0;
constraint c_others: CashBudget(y, x, _, 'aggr', _)
    => others(x, 'det') - 0.5 * fixed(y) >= -1000;
constraint c_const: CashBudget(2004, x, _, _, _)
    => others(x, 'aggr') + fixed(2003) = 1;
)"),
            "37c5679b2b562a49");
}

TEST(GroundingParityTest, IntKeysMatchRealValues) {
  rel::Database db;
  auto years = rel::RelationSchema::Create(
      "Years", {{"Year", rel::Domain::kInt, false},
                {"Count", rel::Domain::kInt, true}});
  auto readings = rel::RelationSchema::Create(
      "Readings", {{"Year", rel::Domain::kReal, false},
                   {"Level", rel::Domain::kReal, false},
                   {"Amount", rel::Domain::kReal, true}});
  ASSERT_TRUE(years.ok() && readings.ok());
  ASSERT_TRUE(db.AddRelation(*years).ok());
  ASSERT_TRUE(db.AddRelation(*readings).ok());
  rel::Relation* y = db.FindRelation("Years");
  for (int64_t year : {3, 2, 4}) {
    ASSERT_TRUE(y->Insert({rel::Value(year), rel::Value(int64_t{1})}).ok());
  }
  rel::Relation* r = db.FindRelation("Readings");
  const std::vector<std::vector<rel::Value>> rows = {
      {2.0, 1.0, 1.5}, {2.5, 1.0, 2.25}, {3.0, 2.0, 4.0},
      {2.0, 2.0, 0.75}, {3.0, 1.0, 8.0}, {2.0, 1.0, 0.125}};
  for (const auto& row : rows) ASSERT_TRUE(r->Insert(row).ok());
  EXPECT_EQ(GroundDigest(db, R"(
agg at(x, l) := sum(Amount) from Readings where Year = x and Level = l;
agg count(x) := sum(Count) from Years where Year = x;
agg two() := sum(Amount) from Readings where Year = 2 and Level = 1;
constraint per_year: Years(x, _) => at(x, 1) - at(x, 2.0) - count(x) <= 10;
constraint joined: Years(x, _), Readings(x, l, _) => at(x, l) >= 0;
constraint constant: Years(2, _) => two() + at(2.0, 1) = 3.25;
)"),
            "1ed852fd9f5bfee3");
}

}  // namespace
}  // namespace dart::cons
