#include "wrapper/table_grid.h"

#include <algorithm>

#include "util/table_printer.h"

namespace dart::wrap {

Result<TableGrid> TableGrid::FromTable(const HtmlTable& table) {
  TableGrid grid;
  auto& cells = grid.cells_;
  cells.resize(table.rows.size());

  // Grows rows [first, last] to at least col + 1 columns. Only the rows a
  // cell touches grow here; the final padding below evens out the width.
  auto ensure_size = [&](size_t first, size_t last, size_t col) {
    if (last >= cells.size()) cells.resize(last + 1);
    for (size_t row = first; row <= last; ++row) {
      if (cells[row].size() <= col) cells[row].resize(col + 1);
    }
  };

  for (size_t r = 0; r < table.rows.size(); ++r) {
    size_t c = 0;
    for (const HtmlCell& cell : table.rows[r]) {
      // Find the first free column in this row.
      while (true) {
        ensure_size(r, r, c);
        if (!cells[r][c].occupied) break;
        ++c;
      }
      const size_t rowspan = static_cast<size_t>(std::max(cell.rowspan, 1));
      const size_t colspan = static_cast<size_t>(std::max(cell.colspan, 1));
      ensure_size(r, r + rowspan - 1, c + colspan - 1);
      for (size_t dr = 0; dr < rowspan; ++dr) {
        for (size_t dc = 0; dc < colspan; ++dc) {
          GridCell& target = cells[r + dr][c + dc];
          if (target.occupied) continue;  // overlap: first cell wins
          target.text = cell.text;
          target.origin = dr == 0 && dc == 0;
          target.origin_row = r;
          target.origin_col = c;
          target.header = cell.header;
          target.occupied = true;
        }
      }
      c += colspan;
    }
  }

  // Pad all rows to the final width.
  size_t width = 0;
  for (const auto& row : cells) width = std::max(width, row.size());
  for (auto& row : cells) row.resize(width);
  return grid;
}

const GridCell& TableGrid::At(size_t row, size_t col) const {
  DART_CHECK(row < num_rows() && col < num_cols());
  return cells_[row][col];
}

std::vector<std::string> TableGrid::RowTexts(size_t row) const {
  DART_CHECK(row < num_rows());
  std::vector<std::string> out;
  out.reserve(num_cols());
  for (const GridCell& cell : cells_[row]) out.push_back(cell.text);
  return out;
}

bool TableGrid::RowIsAtomic(size_t row) const {
  DART_CHECK(row < num_rows());
  for (const GridCell& cell : cells_[row]) {
    if (cell.occupied && cell.origin_row != row) return false;
  }
  return true;
}

std::string TableGrid::ToString() const {
  if (cells_.empty()) return "(empty grid)\n";
  std::vector<std::string> header;
  for (size_t c = 0; c < num_cols(); ++c) {
    header.push_back("c" + std::to_string(c));
  }
  TablePrinter printer(header);
  for (size_t r = 0; r < num_rows(); ++r) {
    printer.AddRow(RowTexts(r));
  }
  return printer.ToString();
}

}  // namespace dart::wrap
