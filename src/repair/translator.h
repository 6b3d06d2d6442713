#pragma once

#include <map>
#include <string>
#include <vector>

#include "constraints/ast.h"
#include "constraints/ground.h"
#include "milp/model.h"
#include "relational/database.h"
#include "util/status.h"

/// \file translator.h
/// The paper's Section 5 construction: translating the card-minimal-repair
/// problem for a database D w.r.t. a set of *steady* aggregate constraints AC
/// into the MILP instance S*(AC):
///
///   min Σ δᵢ
///   s.t.  A·Z ⋈ B            (one row per ground constraint — S(AC))
///         yᵢ = zᵢ − vᵢ        (S'(AC))
///         yᵢ − Mᵢδᵢ ≤ 0
///        −yᵢ − Mᵢδᵢ ≤ 0       (S''(AC))
///         zᵢ, yᵢ ∈ Z or R,  δᵢ ∈ {0,1}
///
/// Steadiness is what makes step one possible: T_χ of every ground
/// aggregation function is computable from the current (non-measure) data and
/// is invariant under any repair, so Σ over T_χ is a fixed linear form in Z.

namespace dart::repair {

/// How the big-M constant is chosen. The theoretical bound of [22]
/// (n·(ma)^(2m+1)) astronomically overflows doubles for any real instance, so
/// DART solves with a practical data-driven M and *verifies* afterwards that
/// no |yᵢ| touched its Mᵢ (the repair core then enlarges that component's M
/// in place and re-solves it if one did). bench_bigm_ablation quantifies
/// the effect of the magnitude of M.
struct BigMPolicy {
  /// M = multiplier · (max(|vᵢ|, |K_j|, coefficient magnitudes, 1)).
  double multiplier = 4.0;
  /// Explicit override; > 0 wins over the data-driven formula.
  double fixed_value = 0;
};

/// Per-cell change weight for the confidence-weighted objective extension:
/// min Σ wᵢ·δᵢ instead of min Σ δᵢ. Weights naturally come from the
/// wrapper's cell matching scores — a value extracted at 60% confidence is
/// a more plausible acquisition error than one extracted at 100%, so
/// changing it should cost less. With no weights (all 1) this degenerates
/// to the paper's card-minimal semantics.
struct CellWeight {
  rel::CellRef cell;
  double weight = 1.0;  ///< must be > 0.
};

struct TranslatorOptions {
  BigMPolicy big_m;
  /// Create z/y/δ variables only for measure cells that occur in at least
  /// one ground constraint (cells outside every constraint can never be
  /// updated by a card-minimal repair). Off ⇒ one variable triple per
  /// measure cell, matching the paper's Example 10 where N = 20.
  bool restrict_to_involved = false;
  /// Optional extra lower bound 0 on every z (e.g. catalogs of prices).
  bool require_nonnegative = false;
  /// Confidence weights; cells not listed get weight 1. Non-empty weights
  /// change the semantics from card-minimal to weight-minimal repairs.
  std::vector<CellWeight> weights;
};

/// Operator-supplied value pin: "the actual source value of this cell is v"
/// (paper Sec. 6.3, Validation Interface). The translation never sees pins:
/// the repair core applies each as the bound change z ∈ [v, v] on the
/// pinned cell's component (repair/incremental.h). The cell must be one of
/// the translation's cells (under restrict_to_involved, a cell of some
/// ground row) and v must be finite.
struct FixedValue {
  rel::CellRef cell;
  double value = 0;
};

/// The product of the translation.
struct Translation {
  milp::Model model;

  /// Cell ↔ variable bookkeeping: cells[i] is the database item of zᵢ.
  std::vector<rel::CellRef> cells;
  std::vector<double> current_values;  ///< vᵢ.
  std::vector<int> z_vars;             ///< model index of zᵢ.
  std::vector<int> y_vars;             ///< model index of yᵢ.
  std::vector<int> delta_vars;         ///< model index of δᵢ.
  std::vector<double> big_m;           ///< Mᵢ per variable.

  /// Number of ground-constraint rows each cell occurs in — the Validation
  /// Interface's display-ordering key (Sec. 6.3).
  std::vector<int> occurrence_counts;

  /// Connected component of each cell in the cell–ground-row incidence
  /// graph (cells from different acquired documents never share a ground
  /// row, so this is a document-structure fingerprint of the instance).
  /// Cells outside every ground row form singleton components.
  std::vector<int> cell_component;
  int num_cell_components = 0;

  /// Ground constraint rows of S(AC) in human-readable form, for debugging
  /// and the paper-artifact bench (Fig. 4).
  std::vector<std::string> ground_rows;

  /// Constraint-matrix sparsity of the built model (rows × cols of A in
  /// S*(AC), structural nonzeros, and nnz / (rows·cols)). The matrix is
  /// extremely sparse — ground rows touch only their document's cells and
  /// the S'/S'' rows are 2–3-term stencils — which is what the solver's
  /// sparse revised simplex kernel exploits (see simplex.h).
  int matrix_rows = 0;
  int matrix_cols = 0;
  long long matrix_nnz = 0;
  double matrix_density = 0;

  /// The practical M the model was built with.
  double practical_m = 0;
  /// log10 of the theoretical bound n·(ma)^(2m+1) of [22] (the bound itself
  /// does not fit in a double).
  double theoretical_m_log10 = 0;

  /// Index of the z variable for `cell`, or -1.
  int CellIndex(const rel::CellRef& cell) const;
};

/// Builds S*(AC) for `db` and `constraints`.
///
/// Fails with InvalidArgument if any constraint is not steady, and with
/// Infeasible if a ground constraint involves no measure cell and is
/// violated (no update can ever fix a constant row).
Result<Translation> TranslateToMilp(const rel::Database& db,
                                    const cons::ConstraintSet& constraints,
                                    const TranslatorOptions& options = {});

/// Builds S*(AC) from an already-ground program, so one grounding serves
/// violation detection, translation and verification (the batch path
/// shares the pipeline's grounding). `program` must have been produced by
/// `GroundConstraintProgram(db, ...)` for this same `db`.
///
/// Same failure modes as TranslateToMilp minus the grounding ones: still
/// Infeasible on a violated constant ground row.
Result<Translation> TranslateGrounded(const rel::Database& db,
                                      const cons::GroundProgram& program,
                                      const TranslatorOptions& options = {});

}  // namespace dart::repair
