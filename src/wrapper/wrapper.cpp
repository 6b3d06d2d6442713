#include "wrapper/wrapper.h"

#include <utility>
#include <vector>

#include "obs/context.h"
#include "wrapper/html_parser.h"
#include "wrapper/table_grid.h"

namespace dart::wrap {

std::vector<const RowPatternInstance*> ExtractionResult::MatchedInstances()
    const {
  std::vector<const RowPatternInstance*> out;
  for (const ExtractedRow& row : rows) {
    if (row.instance) out.push_back(&*row.instance);
  }
  return out;
}

Result<ExtractionResult> Wrapper::ExtractFromHtml(
    const std::string& html) const {
  DART_RETURN_IF_ERROR(matcher_.status());
  obs::RunContext* const run = matcher_.options().run;
  obs::Span parse_span(run, "wrapper.parse");
  DART_ASSIGN_OR_RETURN(std::vector<HtmlTable> tables, ParseHtmlTables(html));
  parse_span.End();
  ExtractionResult result;
  result.stats.tables = tables.size();
  // All grids first, then all matches: one span each per document, so a
  // document's trace does not grow with its table count.
  obs::Span grid_span(run, "wrapper.grid");
  std::vector<std::pair<size_t, TableGrid>> grids;
  for (size_t t = 0; t < tables.size(); ++t) {
    if (!table_positions_.empty() && table_positions_.count(t) == 0) {
      continue;  // outside the extraction metadata's table localization
    }
    DART_ASSIGN_OR_RETURN(TableGrid grid, TableGrid::FromTable(tables[t]));
    grids.emplace_back(t, std::move(grid));
  }
  grid_span.End();
  obs::Span match_span(run, "wrapper.match_grid");
  for (const auto& [t, grid] : grids) {
    DART_ASSIGN_OR_RETURN(auto instances, matcher_.MatchGrid(grid));
    for (size_t r = 0; r < grid.num_rows(); ++r) {
      ExtractedRow row;
      row.table_index = t;
      row.row_index = r;
      row.texts = grid.RowTexts(r);
      row.instance = std::move(instances[r]);
      ++result.stats.rows;
      if (row.instance) {
        ++result.stats.matched_rows;
        for (const CellMatch& cell : row.instance->cells) {
          if (cell.repaired) ++result.stats.repaired_cells;
        }
      }
      result.rows.push_back(std::move(row));
    }
  }
  return result;
}

}  // namespace dart::wrap
