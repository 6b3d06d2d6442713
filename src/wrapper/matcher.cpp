#include "wrapper/matcher.h"

#include <algorithm>
#include <cctype>

#include "textrepair/levenshtein.h"
#include "util/strings.h"

namespace dart::wrap {

const char* TNormName(TNorm norm) {
  switch (norm) {
    case TNorm::kMinimum: return "minimum";
    case TNorm::kProduct: return "product";
    case TNorm::kLukasiewicz: return "lukasiewicz";
  }
  return "unknown";
}

double CombineScores(TNorm norm, const std::vector<double>& scores) {
  double acc = 1.0;
  for (double s : scores) {
    switch (norm) {
      case TNorm::kMinimum: acc = std::min(acc, s); break;
      case TNorm::kProduct: acc *= s; break;
      case TNorm::kLukasiewicz: acc = std::max(0.0, acc + s - 1.0); break;
    }
  }
  return acc;
}

std::string RowPatternInstance::ToString() const {
  std::string out = pattern_name + " (score " + FormatDouble(score) + "): [";
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += " | ";
    out += cells[i].item + " @" + FormatDouble(cells[i].score * 100) + "%";
  }
  return out + "]";
}

namespace {

/// Extracts the best numeric reading from noisy text: sign, digits and (for
/// reals) at most one decimal point, everything else dropped.
std::string ExtractNumericCandidate(const std::string& text, bool allow_dot) {
  std::string out;
  bool seen_dot = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      out += c;
    } else if (c == '-' && out.empty()) {
      out += c;
    } else if (allow_dot && c == '.' && !seen_dot) {
      out += c;
      seen_dot = true;
    }
  }
  if (out == "-" || out == "." || out == "-.") return "";
  return out;
}

}  // namespace

RowMatcher::RowMatcher(const DomainCatalog* catalog,
                       std::vector<RowPattern> patterns, MatcherOptions options)
    : catalog_(catalog), patterns_(std::move(patterns)), options_(options) {
  DART_CHECK(catalog_ != nullptr);
  for (const RowPattern& pattern : patterns_) {
    status_ = ValidateRowPattern(*catalog_, pattern);
    if (!status_.ok()) break;
  }
  if (patterns_.empty()) {
    status_ = Status::InvalidArgument("matcher needs at least one row pattern");
  }
}

bool RowMatcher::MatchCell(const PatternCell& cell, const std::string& text,
                           const RowPatternInstance& partial,
                           CellMatch* match) const {
  const std::string trimmed = Trim(text);
  match->raw_text = trimmed;
  switch (cell.kind) {
    case CellContentKind::kInteger:
    case CellContentKind::kReal: {
      const bool allow_dot = cell.kind == CellContentKind::kReal;
      // Thousands separators are presentation, not noise.
      std::string compact;
      for (char c : trimmed) {
        if (c != ',' && c != ' ') compact += c;
      }
      const bool valid = allow_dot ? IsNumericLiteral(compact)
                                   : IsIntegerLiteral(compact);
      if (valid) {
        match->item = compact;
        match->score = 1.0;
        match->repaired = false;
        return true;
      }
      const std::string candidate = ExtractNumericCandidate(compact, allow_dot);
      if (candidate.empty()) return false;
      match->item = candidate;
      match->score = text::Similarity(compact, candidate);
      match->repaired = true;
      return match->score > 0;
    }
    case CellContentKind::kString: {
      match->item = trimmed;
      match->score = 1.0;
      match->repaired = false;
      return true;
    }
    case CellContentKind::kDomain: {
      const std::string* generalization = nullptr;
      std::string parent_item;
      if (cell.specialization_of) {
        DART_CHECK(*cell.specialization_of < partial.cells.size());
        parent_item = partial.cells[*cell.specialization_of].item;
        generalization = &parent_item;
      }
      auto best = catalog_->BestMatch(cell.domain, trimmed, generalization);
      if (!best) return false;
      match->item = best->item;
      match->score = best->exact ? 1.0 : best->similarity;
      match->repaired = !best->exact;
      return match->score > 0;
    }
  }
  return false;
}

std::optional<RowPatternInstance> RowMatcher::MatchRow(
    const RowPattern& pattern, const std::vector<std::string>& row_texts) const {
  // "A row pattern r matches a row r_t if r and r_t have the same number of
  // cells" (Sec. 6.2).
  if (row_texts.size() != pattern.cells.size()) return std::nullopt;
  obs::Count(options_.run, "wrapper.match_attempts");
  RowPatternInstance instance;
  instance.pattern_name = pattern.name;
  std::vector<double> scores;
  scores.reserve(pattern.cells.size());
  for (size_t i = 0; i < pattern.cells.size(); ++i) {
    CellMatch match;
    if (!MatchCell(pattern.cells[i], row_texts[i], instance, &match) ||
        match.score < options_.min_cell_score) {
      // Backtrack: the partial instance built so far is abandoned.
      obs::Count(options_.run, "wrapper.cell_rejections");
      return std::nullopt;
    }
    scores.push_back(match.score);
    instance.cells.push_back(std::move(match));
  }
  instance.score = CombineScores(options_.tnorm, scores);
  if (instance.score < options_.min_row_score) {
    obs::Count(options_.run, "wrapper.row_rejections");
    return std::nullopt;
  }
  return instance;
}

Result<std::vector<std::optional<RowPatternInstance>>> RowMatcher::MatchGrid(
    const TableGrid& grid) const {
  DART_RETURN_IF_ERROR(status_);
  std::vector<std::optional<RowPatternInstance>> out;
  out.reserve(grid.num_rows());
  for (size_t r = 0; r < grid.num_rows(); ++r) {
    // Multi-row cells contribute their text to every adjacent row
    // (Example 13): RowTexts already reads through to the span origin.
    const std::vector<std::string> texts = grid.RowTexts(r);
    std::optional<RowPatternInstance> best;
    for (const RowPattern& pattern : patterns_) {
      std::optional<RowPatternInstance> candidate = MatchRow(pattern, texts);
      if (candidate && (!best || candidate->score > best->score)) {
        best = std::move(candidate);
      }
    }
    if (best) {
      obs::Count(options_.run, "wrapper.rows_matched");
      for (const CellMatch& cell : best->cells) {
        if (cell.repaired) {
          obs::Count(options_.run, "wrapper.string_repairs");
        }
      }
    } else {
      obs::Count(options_.run, "wrapper.rows_unmatched");
    }
    out.push_back(std::move(best));
  }
  return out;
}

}  // namespace dart::wrap
