// Extraction parity: FNV-1a digests of serialized wrapper output plus the
// generated database, recorded from the scan-only msi() lookup that preceded
// the catalog's exact-hit index. Any change to a row's pattern or score, to a
// cell's bound item, score, raw text or repaired flag, to the extraction
// stats, or to the generated tuples, warnings and confidences changes a
// digest. Cases: 30 clean cash budgets at 2 and 50 years, the E5 string-noise
// sweep, expense reports (clean and noisy), item text in upper and mixed case
// or padded with whitespace, and Subsection cells that exactly spell an item
// the Section filter rules out.

#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "dbgen/generator.h"
#include "ocr/cash_budget.h"
#include "ocr/expense.h"
#include "ocr/noise.h"
#include "util/random.h"
#include "wrapper/wrapper.h"

namespace dart::wrap {
namespace {

std::string Format(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string SerializeValue(const rel::Value& v) {
  if (v.is_null()) return "n:";
  if (v.is_int()) return "i:" + std::to_string(v.AsInt());
  if (v.is_real()) return "r:" + Format(v.AsReal());
  return "s:" + v.AsString();
}

std::string Serialize(const ExtractionResult& extraction,
                      const dbgen::GenerationReport& report) {
  std::string out;
  for (const ExtractedRow& row : extraction.rows) {
    out += std::to_string(row.table_index) + "." +
           std::to_string(row.row_index) + "[";
    for (const std::string& text : row.texts) out += text + "\x1f";
    out += "]";
    if (!row.instance) {
      out += "-\n";
      continue;
    }
    out += row.instance->pattern_name + "@" + Format(row.instance->score);
    for (const CellMatch& cell : row.instance->cells) {
      out += "|" + cell.item + "@" + Format(cell.score) + "<" + cell.raw_text +
             ">" + (cell.repaired ? "R" : "=");
    }
    out += "\n";
  }
  const ExtractionStats& stats = extraction.stats;
  out += "stats " + std::to_string(stats.tables) + " " +
         std::to_string(stats.rows) + " " +
         std::to_string(stats.matched_rows) + " " +
         std::to_string(stats.repaired_cells) + "\n";
  out += "generated " + std::to_string(report.inserted_tuples) + " " +
         std::to_string(report.skipped_rows) + "\n";
  for (const std::string& warning : report.warnings) out += warning + "\n";
  for (const rel::Relation& relation : report.database.relations()) {
    for (size_t r = 0; r < relation.size(); ++r) {
      out += relation.name() + "(";
      for (size_t a = 0; a < relation.schema().arity(); ++a) {
        out += SerializeValue(relation.At(r, a)) + ",";
      }
      out += ")\n";
    }
  }
  for (const dbgen::CellConfidence& confidence : report.confidences) {
    const rel::CellRef& cell = confidence.cell;
    out += cell.relation + "." + std::to_string(cell.row) + "." +
           std::to_string(cell.attribute) + "=" + Format(confidence.score) +
           "\n";
  }
  return out;
}

std::string Digest(const std::string& serialized) {
  uint64_t hash = 14695981039346656037ull;  // FNV-1a 64-bit.
  for (unsigned char c : serialized) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
  return buf;
}

/// Wraps `html` with the given metadata and generates its database.
std::string Extract(const DomainCatalog& catalog,
                    const std::vector<RowPattern>& patterns,
                    const dbgen::RelationMapping& mapping,
                    const std::string& html) {
  Wrapper wrapper(&catalog, patterns);
  Result<ExtractionResult> extraction = wrapper.ExtractFromHtml(html);
  DART_CHECK_MSG(extraction.ok(), extraction.status().ToString());
  dbgen::DatabaseGenerator generator({mapping}, patterns);
  DART_CHECK_MSG(generator.status().ok(), generator.status().ToString());
  Result<dbgen::GenerationReport> report =
      generator.Generate(extraction->MatchedInstances());
  DART_CHECK_MSG(report.ok(), report.status().ToString());
  return Serialize(*extraction, *report);
}

/// Extraction of `html` with the cash-budget metadata built from `truth`.
std::string ExtractCashBudget(const rel::Database& truth,
                              const std::string& html) {
  auto catalog = ocr::CashBudgetFixture::BuildCatalog(truth);
  auto mapping = ocr::CashBudgetFixture::BuildMapping(truth);
  DART_CHECK(catalog.ok() && mapping.ok());
  return Extract(*catalog, ocr::CashBudgetFixture::BuildPatterns(), *mapping,
                 html);
}

rel::Database RandomCashBudget(int years, int seed) {
  Rng rng(static_cast<uint64_t>(years * 1000 + seed));
  // The seed varies the shape too, so the catalogs differ across seeds.
  ocr::CashBudgetOptions options;
  options.num_years = years;
  options.start_year = 1990 + seed;
  options.receipt_details = 1 + seed % 4;
  options.disbursement_details = 1 + (seed / 4) % 5;
  auto db = ocr::CashBudgetFixture::Random(options, &rng);
  DART_CHECK(db.ok());
  return std::move(db).value();
}

/// Applies `transform` to every non-blank text run between tags.
std::string TransformText(
    const std::string& html,
    const std::function<std::string(const std::string&)>& transform) {
  std::string out;
  size_t pos = 0;
  while (pos < html.size()) {
    if (html[pos] == '<') {
      const size_t end = html.find('>', pos);
      out += html.substr(pos, end - pos + 1);
      pos = end + 1;
      continue;
    }
    const size_t end = std::min(html.find('<', pos), html.size());
    const std::string text = html.substr(pos, end - pos);
    bool blank = true;
    for (unsigned char c : text) blank = blank && std::isspace(c);
    out += blank ? text : transform(text);
    pos = end;
  }
  return out;
}

std::string Upper(const std::string& text) {
  std::string out = text;
  for (char& c : out) c = static_cast<char>(std::toupper(c));
  return out;
}

std::string Mixed(const std::string& text) {
  std::string out = text;
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<char>(i % 2 == 0 ? std::toupper(out[i])
                                          : std::tolower(out[i]));
  }
  return out;
}

std::string Padded(const std::string& text) { return "  \t" + text + " \n "; }

// Indexed by seed 0..29.
const char* const kCleanTwoYears[] = {
    "528daf1be0c89c0c", "cc3ca0294f10a9f4", "50beb0d1e1c32976",
    "9d0eb6455f053df3", "cd2a2212e535da0c", "7de416b412a82556",
    "06c99e256d1b373b", "00db75b92d249ad9", "d67489d33c1df102",
    "6632814949a843c3", "82d9c8067e07e483", "0d6cd386c18aee29",
    "b7c5625d10df3375", "d52680e78b9203ef", "42fcacde0888e81b",
    "1aed0fa0b56c2621", "94a02dfeadc1329b", "b744803221a0b939",
    "5c54aa1517841bb3", "e905a081c8a0b1b7", "77933aea900fb6c8",
    "c32f7336a226ccb8", "581c498302c174d2", "304cce2da564ea1d",
    "0a56564ff859b452", "d8c630b043cf75c4", "e9d7f42c7f3d5cfd",
    "563100502364c81b", "54f7b0df199dcc0e", "4c16bc83efd71a25"};
const char* const kCleanFiftyYears[] = {
    "822ac145e5342f8a", "0a57dc2ef551c2a6", "d7211406e7a8de1d",
    "5731ae3af7b299ad", "42d5ce127a645a1e", "cc91df234c87bfcd",
    "03c67eda63afc959", "1fe231439b38f0d2", "edd04cfcaf025993",
    "a8401e13cbe70edd", "aba9a62cae800a16", "cbf80fa2d5f8209a",
    "55fe1671963bcdef", "e16e5aab45d28380", "e538a69637bd6ed4",
    "b72782b0afa55b95", "65452079e1841bc4", "a94e63e9a20e6d84",
    "7eab0353597c60cd", "55198127f5606041", "c85a12106f1021de",
    "7ab572cb4892800e", "bf2d40da2de3674b", "da63aececf352f27",
    "5e3c83f9d620b04e", "f4bd3c8caa255645", "47a3b211bed16407",
    "8e8480da1ebe2338", "60ab2c3956c063a5", "c30f3da6725c55ff"};

void ExpectCleanDigests(int years, const char* const* expected) {
  for (int seed = 0; seed < 30; ++seed) {
    const rel::Database truth = RandomCashBudget(years, seed);
    EXPECT_EQ(Digest(ExtractCashBudget(
                  truth, ocr::CashBudgetFixture::RenderHtml(truth))),
              expected[seed])
        << years << " years, seed " << seed;
  }
}

TEST(ExtractionParityTest, CleanCashBudgetTwoYears) {
  ExpectCleanDigests(2, kCleanTwoYears);
}

TEST(ExtractionParityTest, CleanCashBudgetFiftyYears) {
  ExpectCleanDigests(50, kCleanFiftyYears);
}

// E5's sweep (bench_wrapper_accuracy): 10 noisy 2-year documents per level,
// one digest over all ten.
TEST(ExtractionParityTest, StringNoiseSweep) {
  const double kLevels[] = {0.05, 0.10, 0.20, 0.35, 0.50, 0.75, 1.0};
  const char* const expected[] = {
      "dc316967a5a68b4d", "3ddc303ccebea47d", "b09c30b601d3573f",
      "e4c0816e2893f85c", "a3f58ea13269b198", "06843aa983c1846b",
      "193e74a90c397f60"};
  for (size_t level = 0; level < std::size(kLevels); ++level) {
    std::string serialized;
    for (int trial = 0; trial < 10; ++trial) {
      Rng rng(static_cast<uint64_t>(5000 + trial));
      ocr::CashBudgetOptions options;
      options.num_years = 2;
      auto truth = ocr::CashBudgetFixture::Random(options, &rng);
      ASSERT_TRUE(truth.ok());
      ocr::NoiseModel noise({0.0, kLevels[level], 1, 4}, &rng);
      serialized += ExtractCashBudget(
          *truth, ocr::CashBudgetFixture::RenderHtml(*truth, &noise));
    }
    EXPECT_EQ(Digest(serialized), expected[level])
        << "char noise " << kLevels[level];
  }
}

TEST(ExtractionParityTest, ExpenseReports) {
  const char* const clean[] = {"e7c49d686b069719", "11edb2b1c851e6b1",
                               "cee1e17820e82698"};
  const char* const noisy[] = {"a89df73b59c139b1", "f357f1a152bb391b",
                               "fc2410daa158b513"};
  for (int seed = 0; seed < 3; ++seed) {
    Rng rng(static_cast<uint64_t>(7000 + seed));
    ocr::ExpenseOptions options;
    options.num_months = 2 + seed;
    options.categories_per_month = 1 + seed;
    options.items_per_category = 3 - seed;
    auto truth = ocr::ExpenseFixture::Random(options, &rng);
    ASSERT_TRUE(truth.ok());
    auto catalog = ocr::ExpenseFixture::BuildCatalog(*truth);
    auto mapping = ocr::ExpenseFixture::BuildMapping(*truth);
    ASSERT_TRUE(catalog.ok() && mapping.ok());
    const auto patterns = ocr::ExpenseFixture::BuildPatterns();
    EXPECT_EQ(Digest(Extract(*catalog, patterns, *mapping,
                             ocr::ExpenseFixture::RenderHtml(*truth))),
              clean[seed])
        << "clean, seed " << seed;
    ocr::NoiseModel noise({0.2, 0.5, 1, 3}, &rng);
    EXPECT_EQ(Digest(Extract(*catalog, patterns, *mapping,
                             ocr::ExpenseFixture::RenderHtml(*truth, &noise))),
              noisy[seed])
        << "noisy, seed " << seed;
  }
}

// Exact spellings that differ from the item only in case or surrounding
// whitespace; one digest per transform over seeds 0..4 at 2 years.
TEST(ExtractionParityTest, CaseAndWhitespaceVariants) {
  const std::vector<
      std::pair<const char*, std::function<std::string(const std::string&)>>>
      transforms = {{"upper", Upper}, {"mixed", Mixed}, {"padded", Padded}};
  const char* const expected[] = {"2c09fdec13488823", "4d784245824478a3",
                                  "97adde678c401ae3"};
  for (size_t t = 0; t < transforms.size(); ++t) {
    std::string serialized;
    for (int seed = 0; seed < 5; ++seed) {
      const rel::Database truth = RandomCashBudget(2, seed);
      serialized += ExtractCashBudget(
          truth, TransformText(ocr::CashBudgetFixture::RenderHtml(truth),
                               transforms[t].second));
    }
    EXPECT_EQ(Digest(serialized), expected[t]) << transforms[t].first;
  }
}

// Subsection cells spelling, verbatim, an item that specializes another
// Section: the hierarchy filter rejects the exact spelling, so the cell binds
// to the most similar item under its own Section instead, or the row goes
// unmatched when no such item is similar enough ("receivables").
TEST(ExtractionParityTest, ExactSpellingOutsideRequiredSection) {
  auto truth = ocr::CashBudgetFixture::PaperExample(false);
  ASSERT_TRUE(truth.ok());
  const std::string html =
      "<table>"
      "<tr><td rowspan=\"4\">2003</td><td rowspan=\"2\">Receipts</td>"
      "<td>cash sales</td><td>100</td></tr>"
      "<tr><td>Total Disbursements</td><td>120</td></tr>"
      "<tr><td rowspan=\"2\">Disbursements</td><td>receivables</td>"
      "<td>20</td></tr>"
      "<tr><td>  total cash receipts </td><td>5</td></tr>"
      "</table>";
  const std::string serialized = ExtractCashBudget(*truth, html);
  EXPECT_EQ(Digest(serialized), "7c636379324d8eac") << serialized;

  // The rejected spellings bind as repairs, never as exact hits.
  auto catalog = ocr::CashBudgetFixture::BuildCatalog(*truth);
  ASSERT_TRUE(catalog.ok());
  Wrapper wrapper(&*catalog, ocr::CashBudgetFixture::BuildPatterns());
  auto extraction = wrapper.ExtractFromHtml(html);
  ASSERT_TRUE(extraction.ok());
  ASSERT_EQ(extraction->rows.size(), 4u);
  EXPECT_FALSE(extraction->rows[2].instance.has_value());
  for (size_t r : {1, 3}) {
    ASSERT_TRUE(extraction->rows[r].instance.has_value()) << r;
    const CellMatch& subsection = extraction->rows[r].instance->cells[2];
    EXPECT_TRUE(subsection.repaired) << r;
    EXPECT_LT(subsection.score, 1.0) << r;
    EXPECT_TRUE(catalog->IsSpecializationOf(
        subsection.item, extraction->rows[r].instance->cells[1].item))
        << r;
  }
}

}  // namespace
}  // namespace dart::wrap
