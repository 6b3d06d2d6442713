#pragma once

#include <string>
#include <utility>
#include <vector>

#include "constraints/ast.h"
#include "constraints/eval.h"
#include "relational/database.h"
#include "util/status.h"

/// \file ground.h
/// Shared grounding of an aggregate-constraint program against one database
/// instance: S(AC) as data, independent of what consumes it.
///
/// Grounding enumerates premise substitutions and folds every steady
/// (non-measure) attribute into constants. A `GroundProgram` is the one
/// shared artifact: the consistency check (`ConsistencyChecker`, detection,
/// the repair core's verifier) is a linear evaluation of its rows at a
/// vector of measure values (`EvaluateGroundRows`), and the MILP translation
/// replaces those values with z variables. By steadiness (Def. 6 of the
/// paper), T_χ and the folded constants are invariant under any repair, so
/// one `GroundProgram` stays valid for the original database, every repair
/// candidate, and the final verification.
///
/// Rows name measure cells by dense id (rel::Database::MeasureCellId, the
/// paper's z₁…z_N). A CellRef becomes an id once at the API boundary (pins,
/// weights, warm starts, queries) and again a CellRef only in extraction.
///
/// Grounding reads the database through tuple indexes (eval.h), one per
/// (relation, WHERE/join key attributes), so its cost grows near-linearly
/// with the database instead of with its square.

namespace dart::cons {

/// One ground constraint instance, reduced to measure cells:
///   Σ coefficient·value(cell id)  op  rhs
/// where `rhs` has the constraint's RHS shifted by every constant
/// contribution (aggregation constants and steady-attribute terms). A row
/// with no coefficients is a *constant* row — kept, because it still
/// detects violations (and proves irreparability to the translator).
struct GroundRow {
  std::string constraint;           ///< source constraint name.
  Binding binding;                  ///< premise substitution of this instance.
  std::string name;                 ///< "<constraint>#<k>", k per constraint.
  /// (measure-cell id, coefficient), each id once, in CellRef order
  /// (relation name, row, attribute); cancelled zeros dropped.
  std::vector<std::pair<int, double>> coefficients;
  CompareOp op = CompareOp::kLe;
  double rhs = 0;                   ///< shifted (measure-cell) space.
  double rhs_original = 0;          ///< the constraint's literal RHS.
};

struct GroundProgram {
  std::vector<GroundRow> rows;
  /// Max |coefficient| seen while accumulating measure factors (the `a` of
  /// the theoretical big-M bound), starting at 1. Accumulated before
  /// cancellation-dropping, exactly as the translator always did.
  double max_abs_factor = 1;
  /// Measure cells of the grounded database: ids run 0..num_cells−1.
  size_t num_cells = 0;
};

/// Grounds `constraints` against `db`, building each tuple index and each
/// function's `AggregationPlan` once for the call. Rows come out in
/// constraint order, then substitution first-occurrence order, with
/// coefficients accumulated in ascending row order. Fails on non-steady
/// constraint sets (grounding would not survive repairs), dangling
/// aggregation functions, missing relations, and non-numeric summed
/// attributes.
Result<GroundProgram> GroundConstraintProgram(
    const rel::Database& db, const ConstraintSet& constraints);

/// Evaluates the ground rows at `values` (indexed by cell id; fails unless
/// there are `program.num_cells`) and returns the violated instances, in row
/// (= constraint, then substitution) order. Violations carry the
/// constraint's original lhs/rhs space, not the shifted row space.
Result<std::vector<Violation>> EvaluateGroundRows(
    const GroundProgram& program, const std::vector<double>& values);

/// EvaluateGroundRows at `db`'s current measure values (`db` must have the
/// grounded database's shape). `ConsistencyChecker::Check` is this over a
/// fresh grounding.
Result<std::vector<Violation>> EvaluateGroundProgram(
    const rel::Database& db, const GroundProgram& program);

}  // namespace dart::cons
