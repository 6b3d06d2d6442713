#pragma once

#include <optional>
#include <string>
#include <vector>

#include "obs/context.h"
#include "wrapper/domains.h"
#include "wrapper/row_pattern.h"
#include "wrapper/table_grid.h"
#include "util/status.h"

/// \file matcher.h
/// Row-pattern matching (Sec. 6.2): comparing a document row with a row
/// pattern yields per-cell matching scores combined by a t-norm into the row
/// score; for each document row the best-scoring pattern is selected and a
/// *row pattern instance* is built, binding each cell to the most similar
/// valid item msi(r(i), r_t(i)) — which is itself a first repair of the
/// non-numerical input data (Example 13).

namespace dart::wrap {

/// Triangular norms for combining cell scores into a row score (the paper
/// leaves the t-norm open: "a suitable t-norm"; bench_tnorm_ablation
/// compares the three classical choices).
enum class TNorm {
  kMinimum,      ///< T(a,b) = min(a,b)
  kProduct,      ///< T(a,b) = a·b
  kLukasiewicz,  ///< T(a,b) = max(0, a+b−1)
};

const char* TNormName(TNorm norm);

/// Folds `scores` with the t-norm (1 for an empty list).
double CombineScores(TNorm norm, const std::vector<double>& scores);

/// One matched cell of a row pattern instance.
struct CellMatch {
  double score = 0;      ///< matching score in [0, 1].
  std::string item;      ///< bound item (msi) / parsed value text.
  std::string raw_text;  ///< original document text.
  bool repaired = false; ///< true when item != raw text (string repair).
};

/// A row pattern instance (Fig. 7b).
struct RowPatternInstance {
  std::string pattern_name;
  double score = 0;  ///< t-norm of the cell scores.
  std::vector<CellMatch> cells;

  std::string ToString() const;
};

struct MatcherOptions {
  TNorm tnorm = TNorm::kMinimum;
  /// A row matches a pattern only if every cell score reaches this floor.
  double min_cell_score = 0.3;
  /// ...and the combined score reaches this one.
  double min_row_score = 0.5;
  /// Observability sink (nullptr = no-op): wrapper.match_attempts,
  /// wrapper.cell_rejections, wrapper.row_rejections, wrapper.rows_matched,
  /// wrapper.rows_unmatched, wrapper.string_repairs. The Wrapper that owns
  /// the matcher opens its wrapper.parse, wrapper.grid and
  /// wrapper.match_grid spans on the same run. See docs/observability.md.
  obs::RunContext* run = nullptr;
};

/// Matches document rows against a set of row patterns.
class RowMatcher {
 public:
  /// Patterns are validated eagerly; the catalog must outlive the matcher.
  RowMatcher(const DomainCatalog* catalog, std::vector<RowPattern> patterns,
             MatcherOptions options = {});

  /// Validation status of the supplied patterns (OK unless a pattern was
  /// malformed; a malformed set makes every Match call fail).
  const Status& status() const { return status_; }

  const std::vector<RowPattern>& patterns() const { return patterns_; }
  const MatcherOptions& options() const { return options_; }

  /// Scores `row_texts` against one pattern. nullopt when the row does not
  /// match (wrong arity or a score under the floor).
  std::optional<RowPatternInstance> MatchRow(
      const RowPattern& pattern, const std::vector<std::string>& row_texts) const;

  /// Best pattern per document row of `grid` (nullopt entries for rows that
  /// match no pattern — headers, separators, banners).
  Result<std::vector<std::optional<RowPatternInstance>>> MatchGrid(
      const TableGrid& grid) const;

 private:
  /// Scores one cell; fills `match` when the content is interpretable.
  bool MatchCell(const PatternCell& cell, const std::string& text,
                 const RowPatternInstance& partial, CellMatch* match) const;

  const DomainCatalog* catalog_;
  std::vector<RowPattern> patterns_;
  MatcherOptions options_;
  Status status_;
};

}  // namespace dart::wrap
