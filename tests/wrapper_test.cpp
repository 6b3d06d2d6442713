// Tests for the wrapper substrate: HTML table parsing, rowspan/colspan grid
// normalization, domain catalogs with hierarchies, t-norms, and row-pattern
// matching — including P6: the Fig. 7 match where "bgnning cesh" binds to
// "beginning cash" with a sub-100% third-cell score, and the multi-row Year
// cell propagating to adjacent rows (Example 13).

#include <gtest/gtest.h>

#include "ocr/cash_budget.h"
#include "wrapper/domains.h"
#include "wrapper/html_parser.h"
#include "wrapper/matcher.h"
#include "wrapper/row_pattern.h"
#include "wrapper/table_grid.h"
#include "wrapper/wrapper.h"

namespace dart::wrap {
namespace {

TEST(HtmlParserTest, SimpleTable) {
  auto tables = ParseHtmlTables(
      "<table><tr><td>a</td><td>b</td></tr><tr><td>c</td><td>d</td></tr>"
      "</table>");
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->size(), 1u);
  ASSERT_EQ((*tables)[0].rows.size(), 2u);
  EXPECT_EQ((*tables)[0].rows[0][0].text, "a");
  EXPECT_EQ((*tables)[0].rows[1][1].text, "d");
}

TEST(HtmlParserTest, SpansAndHeaders) {
  auto tables = ParseHtmlTables(
      "<table><tr><th colspan=\"2\">head</th></tr>"
      "<tr><td rowspan=\"3\">tall</td><td>x</td></tr></table>");
  ASSERT_TRUE(tables.ok());
  const HtmlTable& table = (*tables)[0];
  EXPECT_TRUE(table.rows[0][0].header);
  EXPECT_EQ(table.rows[0][0].colspan, 2);
  EXPECT_EQ(table.rows[1][0].rowspan, 3);
}

TEST(HtmlParserTest, OmittedEndTagsTolerated) {
  auto tables = ParseHtmlTables(
      "<table><tr><td>a<td>b<tr><td>c<td>d</table>");
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ((*tables)[0].rows.size(), 2u);
  EXPECT_EQ((*tables)[0].rows[1][1].text, "d");
}

TEST(HtmlParserTest, EntitiesAndMarkupInsideCells) {
  auto tables = ParseHtmlTables(
      "<table><tr><td><b>R&amp;D</b> &lt;x&gt;&nbsp;&#65;</td></tr></table>");
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ((*tables)[0].rows[0][0].text, "R&D <x> A");
}

TEST(HtmlParserTest, NestedTablesSeparated) {
  auto tables = ParseHtmlTables(
      "<table><tr><td>outer<table><tr><td>inner</td></tr></table></td></tr>"
      "</table>");
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->size(), 2u);
  EXPECT_EQ((*tables)[0].rows[0][0].text, "inner");   // closes first
  EXPECT_EQ((*tables)[1].rows[0][0].text, "outer");
}

TEST(HtmlParserTest, ScriptAndCommentSkipped) {
  auto tables = ParseHtmlTables(
      "<table><!-- decoy <td>ghost</td> --><tr><td>"
      "<script>var x = '<td>evil</td>';</script>real</td></tr></table>");
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->size(), 1u);
  EXPECT_EQ((*tables)[0].rows[0][0].text, "real");
}

// Finding each <script> closer must not copy the document: with a copy per
// closer, 20000 scripts take minutes and blow the ctest timeout.
TEST(HtmlParserTest, ManyScriptsSkippedInLinearTime) {
  std::string html = "<html><head>";
  for (int i = 0; i < 20000; ++i) {
    html += "<script>var x" + std::to_string(i) + " = '<td>no</td>';</script>";
  }
  html += "</head><body><table><tr><td>kept</td></tr></table></body></html>";
  auto tables = ParseHtmlTables(html);
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->size(), 1u);
  EXPECT_EQ((*tables)[0].rows[0][0].text, "kept");
}

TEST(HtmlParserTest, MixedCaseScriptCloser) {
  auto tables = ParseHtmlTables(
      "<table><tr><td><SCRIPT>'<td>evil</td>'</ScRiPt>a</td>"
      "<td><Style>td { }</STYLE>b</td></tr></table>");
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->size(), 1u);
  ASSERT_EQ((*tables)[0].rows[0].size(), 2u);
  EXPECT_EQ((*tables)[0].rows[0][0].text, "a");
  EXPECT_EQ((*tables)[0].rows[0][1].text, "b");
}

TEST(HtmlParserTest, UnclosedTableRecovered) {
  auto tables = ParseHtmlTables("<table><tr><td>x</td>");
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->size(), 1u);
  EXPECT_EQ((*tables)[0].rows[0][0].text, "x");
}

// A '/' inside a tag that does not close it used to stall the attribute
// loop forever; both inputs must now parse.
TEST(HtmlParserTest, StraySlashInTagTerminates) {
  auto tables = ParseHtmlTables("<table><tr><td /x>1</td></tr></table>");
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->size(), 1u);
  EXPECT_EQ((*tables)[0].rows[0][0].text, "1");

  tables = ParseHtmlTables("<table><tr><td a/b>2</td></tr></table>");
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->size(), 1u);
  EXPECT_EQ((*tables)[0].rows[0][0].text, "2");

  // The same slash at the end of the input, with no '>' to stop at.
  tables = ParseHtmlTables("<table><tr><td>3<td a/");
  EXPECT_TRUE(tables.ok());
}

TEST(HtmlParserTest, EscapeRoundTrip) {
  const std::string nasty = "a<b>&\"c'";
  EXPECT_EQ(DecodeEntities(EscapeHtml(nasty)), nasty);
}

TEST(TableGridTest, RowspanFillsDown) {
  HtmlTable table;
  table.rows = {{{"Y", 2, 1, false}, {"a", 1, 1, false}},
                {{"b", 1, 1, false}}};
  auto grid = TableGrid::FromTable(table);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->num_rows(), 2u);
  EXPECT_EQ(grid->num_cols(), 2u);
  EXPECT_EQ(grid->At(0, 0).text, "Y");
  EXPECT_EQ(grid->At(1, 0).text, "Y");   // span-filled
  EXPECT_TRUE(grid->At(0, 0).origin);
  EXPECT_FALSE(grid->At(1, 0).origin);
  EXPECT_EQ(grid->At(1, 1).text, "b");
  EXPECT_TRUE(grid->RowIsAtomic(0));
  EXPECT_FALSE(grid->RowIsAtomic(1));
}

TEST(TableGridTest, ColspanFillsRight) {
  HtmlTable table;
  table.rows = {{{"wide", 1, 3, false}}, {{"a", 1, 1, false},
                                          {"b", 1, 1, false},
                                          {"c", 1, 1, false}}};
  auto grid = TableGrid::FromTable(table);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->num_cols(), 3u);
  EXPECT_EQ(grid->At(0, 2).text, "wide");
  EXPECT_EQ(grid->At(0, 2).origin_col, 0u);
}

TEST(TableGridTest, RaggedRowsPadded) {
  HtmlTable table;
  table.rows = {{{"a", 1, 1, false}},
                {{"b", 1, 1, false}, {"c", 1, 1, false}}};
  auto grid = TableGrid::FromTable(table);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->num_cols(), 2u);
  EXPECT_FALSE(grid->At(0, 1).occupied);
}

// Rows grow only where a cell lands; the final pass pads every row, the
// untouched ones and those a rowspan adds past the last <tr> included.
TEST(TableGridTest, SpansPadEveryRowToFinalWidth) {
  HtmlTable table;
  table.rows = {{{"a", 1, 1, false}},
                {{"wide", 1, 3, false}},
                {{"tall", 3, 1, false}, {"b", 1, 1, false}}};
  auto grid = TableGrid::FromTable(table);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->num_rows(), 5u);
  EXPECT_EQ(grid->num_cols(), 3u);
  EXPECT_FALSE(grid->At(0, 2).occupied);
  EXPECT_EQ(grid->At(1, 2).text, "wide");
  EXPECT_EQ(grid->At(4, 0).text, "tall");
  EXPECT_FALSE(grid->At(4, 2).occupied);
  EXPECT_EQ(grid->RowTexts(3), (std::vector<std::string>{"tall", "", ""}));
}

TEST(DomainCatalogTest, DefinitionAndLookup) {
  DomainCatalog catalog;
  ASSERT_TRUE(catalog.AddDomain("Section",
                                {"Receipts", "Disbursements", "Balance"})
                  .ok());
  EXPECT_TRUE(catalog.HasDomain("Section"));
  EXPECT_FALSE(catalog.HasDomain("Nope"));
  EXPECT_FALSE(catalog.AddDomain("Section", {"x"}).ok());  // redefinition
  EXPECT_FALSE(catalog.AddDomain("Empty", {}).ok());
  ASSERT_NE(catalog.ItemsOf("Section"), nullptr);
  EXPECT_EQ(catalog.ItemsOf("Section")->size(), 3u);
}

TEST(DomainCatalogTest, HierarchyTransitiveAndAcyclic) {
  DomainCatalog catalog;
  ASSERT_TRUE(catalog.AddDomain("L0", {"root"}).ok());
  ASSERT_TRUE(catalog.AddDomain("L1", {"mid"}).ok());
  ASSERT_TRUE(catalog.AddDomain("L2", {"leaf"}).ok());
  ASSERT_TRUE(catalog.AddSpecialization("mid", "root").ok());
  ASSERT_TRUE(catalog.AddSpecialization("leaf", "mid").ok());
  EXPECT_TRUE(catalog.IsSpecializationOf("leaf", "root"));  // transitive
  EXPECT_TRUE(catalog.IsSpecializationOf("leaf", "leaf"));  // reflexive
  EXPECT_FALSE(catalog.IsSpecializationOf("root", "leaf"));
  EXPECT_FALSE(catalog.AddSpecialization("root", "leaf").ok());  // cycle
  EXPECT_FALSE(catalog.AddSpecialization("ghost", "root").ok());
}

TEST(DomainCatalogTest, BestMatchWithGeneralizationFilter) {
  DomainCatalog catalog;
  ASSERT_TRUE(
      catalog.AddDomain("Section", {"Receipts", "Disbursements"}).ok());
  ASSERT_TRUE(
      catalog.AddDomain("Subsection", {"cash sales", "payment of accounts"})
          .ok());
  ASSERT_TRUE(catalog.AddSpecialization("cash sales", "Receipts").ok());
  ASSERT_TRUE(
      catalog.AddSpecialization("payment of accounts", "Disbursements").ok());
  // Without filter "cash  sales" matches cash sales.
  auto best = catalog.BestMatch("Subsection", "cash sales");
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->item, "cash sales");
  EXPECT_TRUE(best->exact);
  // Filtered to Disbursements specializations, cash sales is excluded.
  std::string parent = "Disbursements";
  best = catalog.BestMatch("Subsection", "cash sales", &parent);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->item, "payment of accounts");
  EXPECT_FALSE(best->exact);
}

TEST(DomainCatalogTest, ExactHitIgnoresCaseAndPadding) {
  DomainCatalog catalog;
  // Case-insensitive duplicates collapse onto the first spelling.
  ASSERT_TRUE(
      catalog.AddDomain("Subsection", {"Cash Sales", "cash sales", "cash"})
          .ok());
  EXPECT_EQ(*catalog.ItemsOf("Subsection"),
            (std::vector<std::string>{"Cash Sales", "cash"}));
  auto best = catalog.BestMatch("Subsection", " \tCASH sales \n");
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->item, "Cash Sales");
  EXPECT_EQ(best->similarity, 1.0);
  EXPECT_TRUE(best->exact);
  // Near misses still go through the similarity scan.
  best = catalog.BestMatch("Subsection", "cash sale");
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->item, "Cash Sales");
  EXPECT_LT(best->similarity, 1.0);
  EXPECT_FALSE(best->exact);
}

TEST(TNormTest, ClassicalProperties) {
  EXPECT_DOUBLE_EQ(CombineScores(TNorm::kMinimum, {0.9, 0.5, 0.7}), 0.5);
  EXPECT_NEAR(CombineScores(TNorm::kProduct, {0.9, 0.5}), 0.45, 1e-12);
  EXPECT_NEAR(CombineScores(TNorm::kLukasiewicz, {0.9, 0.5}), 0.4, 1e-12);
  EXPECT_DOUBLE_EQ(CombineScores(TNorm::kLukasiewicz, {0.3, 0.3}), 0.0);
  // Neutral element 1 and empty product.
  for (TNorm norm : {TNorm::kMinimum, TNorm::kProduct, TNorm::kLukasiewicz}) {
    EXPECT_DOUBLE_EQ(CombineScores(norm, {}), 1.0);
    EXPECT_DOUBLE_EQ(CombineScores(norm, {1.0, 1.0}), 1.0);
  }
}

// --- The Fig. 7 match (P6) -------------------------------------------------

class Figure7Test : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = ocr::CashBudgetFixture::PaperExample(false);
    ASSERT_TRUE(db.ok());
    auto catalog = ocr::CashBudgetFixture::BuildCatalog(*db);
    ASSERT_TRUE(catalog.ok());
    catalog_ = std::move(catalog).value();
    patterns_ = ocr::CashBudgetFixture::BuildPatterns();
  }

  DomainCatalog catalog_;
  std::vector<RowPattern> patterns_;
};

TEST_F(Figure7Test, MisspelledSubsectionBindsToMostSimilarItem) {
  RowMatcher matcher(&catalog_, patterns_);
  ASSERT_TRUE(matcher.status().ok()) << matcher.status().ToString();
  auto instance = matcher.MatchRow(patterns_[0],
                                   {"2003", "Receipts", "bgnning cesh", "20"});
  ASSERT_TRUE(instance.has_value());
  ASSERT_EQ(instance->cells.size(), 4u);
  // Integer cells and the exact Section match score 100%.
  EXPECT_DOUBLE_EQ(instance->cells[0].score, 1.0);
  EXPECT_EQ(instance->cells[0].item, "2003");
  EXPECT_DOUBLE_EQ(instance->cells[1].score, 1.0);
  EXPECT_EQ(instance->cells[1].item, "Receipts");
  // The third cell binds to "beginning cash" with a sub-100% score — the
  // "90%" of Fig. 7(b) — and is flagged as an msi repair.
  EXPECT_EQ(instance->cells[2].item, "beginning cash");
  EXPECT_LT(instance->cells[2].score, 1.0);
  EXPECT_GT(instance->cells[2].score, 0.7);
  EXPECT_TRUE(instance->cells[2].repaired);
  EXPECT_DOUBLE_EQ(instance->cells[3].score, 1.0);
  // Row score under the (default) minimum t-norm equals the weakest cell.
  EXPECT_DOUBLE_EQ(instance->score, instance->cells[2].score);
}

TEST_F(Figure7Test, HierarchyEdgeRestrictsSubsection) {
  RowMatcher matcher(&catalog_, patterns_);
  // Unfiltered, "total disbursments" would bind to "total disbursements"
  // (similarity ≈ 0.95); but the hierarchy edge restricts the Subsection to
  // specializations of the matched Section ("Receipts"), so the wrapper
  // must pick the best *Receipts* item instead.
  auto instance = matcher.MatchRow(
      patterns_[0], {"2003", "Receipts", "total disbursments", "160"});
  ASSERT_TRUE(instance.has_value());
  EXPECT_EQ(instance->cells[2].item, "total cash receipts");
}

TEST_F(Figure7Test, ArityMismatchRejected) {
  RowMatcher matcher(&catalog_, patterns_);
  EXPECT_FALSE(matcher.MatchRow(patterns_[0], {"2003", "Receipts", "20"})
                   .has_value());
}

TEST_F(Figure7Test, GarbageCellRejectedByFloor) {
  RowMatcher matcher(&catalog_, patterns_);
  EXPECT_FALSE(
      matcher.MatchRow(patterns_[0],
                       {"2003", "zzzzqqqq", "beginning cash", "20"})
          .has_value());
}

TEST_F(Figure7Test, NumericCellRepairsNoiseDigits) {
  RowMatcher matcher(&catalog_, patterns_);
  auto instance = matcher.MatchRow(
      patterns_[0], {"2003", "Receipts", "cash sales", "1O0"});
  ASSERT_TRUE(instance.has_value());
  EXPECT_EQ(instance->cells[3].item, "10");  // digits extracted
  EXPECT_LT(instance->cells[3].score, 1.0);
  EXPECT_TRUE(instance->cells[3].repaired);
}

TEST_F(Figure7Test, MultiRowYearPropagatesThroughGrid) {
  // Example 13: the multi-row Year cell is associated with every adjacent
  // document row.
  auto db = ocr::CashBudgetFixture::PaperExample(false);
  ASSERT_TRUE(db.ok());
  const std::string html = ocr::CashBudgetFixture::RenderHtml(*db);
  Wrapper wrapper(&catalog_, patterns_);
  auto result = wrapper.ExtractFromHtml(html);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.tables, 2u);      // one per year
  EXPECT_EQ(result->stats.rows, 20u);
  EXPECT_EQ(result->stats.matched_rows, 20u);
  EXPECT_EQ(result->stats.repaired_cells, 0u);
  // Every row of the first table is bound to year 2003.
  for (const ExtractedRow& row : result->rows) {
    if (row.table_index != 0) continue;
    ASSERT_TRUE(row.instance.has_value());
    EXPECT_EQ(row.instance->cells[0].item, "2003");
  }
}

TEST(RowPatternValidationTest, RejectsMalformedPatterns) {
  DomainCatalog catalog;
  ASSERT_TRUE(catalog.AddDomain("D", {"x"}).ok());
  RowPattern pattern;
  pattern.name = "p";
  EXPECT_FALSE(ValidateRowPattern(catalog, pattern).ok());  // no cells
  pattern.cells.push_back(DomainCell("Nope", "H"));
  EXPECT_FALSE(ValidateRowPattern(catalog, pattern).ok());  // unknown domain
  pattern.cells[0] = DomainCell("D", "H");
  EXPECT_TRUE(ValidateRowPattern(catalog, pattern).ok());
  pattern.cells.push_back(DomainCell("D", "H"));
  EXPECT_FALSE(ValidateRowPattern(catalog, pattern).ok());  // dup headline
  pattern.cells[1] = DomainCellSpecializing("D", "H2", 5);
  EXPECT_FALSE(ValidateRowPattern(catalog, pattern).ok());  // bad edge target
  pattern.cells[1] = DomainCellSpecializing("D", "H2", 0);
  EXPECT_TRUE(ValidateRowPattern(catalog, pattern).ok());
}

TEST(TablePositionsTest, OnlySelectedTablesWrapped) {
  // Two identical tables; the selector keeps only the second (index 1).
  DomainCatalog catalog;
  ASSERT_TRUE(catalog.AddDomain("Kind", {"alpha"}).ok());
  RowPattern pattern;
  pattern.name = "p";
  pattern.cells = {DomainCell("Kind", "K"), IntegerCell("N")};
  const std::string html =
      "<table><tr><td>alpha</td><td>1</td></tr></table>"
      "<table><tr><td>alpha</td><td>2</td></tr></table>";
  Wrapper all(&catalog, {pattern});
  Wrapper second_only(&catalog, {pattern}, {}, {1});
  auto everything = all.ExtractFromHtml(html);
  auto selected = second_only.ExtractFromHtml(html);
  ASSERT_TRUE(everything.ok() && selected.ok());
  EXPECT_EQ(everything->stats.matched_rows, 2u);
  EXPECT_EQ(selected->stats.matched_rows, 1u);
  ASSERT_EQ(selected->rows.size(), 1u);
  EXPECT_EQ(selected->rows[0].table_index, 1u);
  EXPECT_EQ(selected->rows[0].instance->cells[1].item, "2");
}

TEST(MatcherOptionsTest, BestPatternWins) {
  DomainCatalog catalog;
  ASSERT_TRUE(catalog.AddDomain("Kind", {"alpha", "beta"}).ok());
  RowPattern loose;
  loose.name = "loose";
  loose.cells = {StringCell("Any"), IntegerCell("N")};
  RowPattern strict;
  strict.name = "strict";
  strict.cells = {DomainCell("Kind", "K"), IntegerCell("N")};
  RowMatcher matcher(&catalog, {loose, strict});
  HtmlTable table;
  table.rows = {{{"alpha", 1, 1, false}, {"7", 1, 1, false}}};
  auto grid = TableGrid::FromTable(table);
  ASSERT_TRUE(grid.ok());
  auto matches = matcher.MatchGrid(*grid);
  ASSERT_TRUE(matches.ok());
  ASSERT_TRUE((*matches)[0].has_value());
  // Both match with score 1; ties keep the first pattern — but an exact
  // domain hit and a string cell both score 1.0 so "loose" (listed first)
  // wins. Scores being equal, determinism is what matters here.
  EXPECT_EQ((*matches)[0]->pattern_name, "loose");
}

}  // namespace
}  // namespace dart::wrap
