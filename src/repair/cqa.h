#pragma once

#include <vector>

#include "constraints/ast.h"
#include "relational/database.h"
#include "repair/engine.h"
#include "util/status.h"

/// \file cqa.h
/// Consistent query answering under the card-minimal semantics — the
/// companion problem the paper inherits from [16] (Flesca, Furfaro, Parisi,
/// DBPL 2005) and explicitly leaves out of the tool ("we are more interested
/// in computing a repair … than evaluating whether a single acquired value
/// is reliable"). We implement it as an extension:
///
/// For a measure cell d, the *consistent value interval* of d is
/// [min, max] of the value of d across ALL card-minimal repairs ρ(D). A cell
/// whose interval is a single point is *reliable*: every minimum-change
/// explanation of the inconsistency agrees on its value, so the consistent
/// answer of the query "value of d" is that point.
///
/// Computation, on the repair core (repair/incremental.h): a one-document
/// session computes the repair, leaving every component c of S*(AC) at its
/// optimum k*_c; a cell (or linear query) then ranges per component, min and
/// max on the component's own model under the cap "objective ≤ k*_c"
/// (IncrementalRepairSession::RangeForms) — a direct reduction in the spirit
/// of Sec. 5. Components with k*_c = 0 need no solve.

namespace dart::repair {

/// Per-cell CQA verdict.
struct CellInterval {
  rel::CellRef cell;
  double current_value = 0;  ///< the acquired value vᵢ.
  double min_value = 0;      ///< min over all card-minimal repairs.
  double max_value = 0;      ///< max over all card-minimal repairs.

  /// True iff every card-minimal repair assigns the same value.
  bool reliable(double tol = 1e-6) const {
    return max_value - min_value <= tol;
  }
  /// True iff some card-minimal repair changes this cell.
  bool touched(double tol = 1e-6) const {
    return min_value < current_value - tol ||
           max_value > current_value + tol;
  }
};

struct CqaResult {
  /// The cardinality of the repair core's optimal repair.
  size_t min_repair_cardinality = 0;
  /// One interval per cell of some ground row, in cell order.
  std::vector<CellInterval> intervals;
  int64_t milp_solves = 0;
  int64_t total_nodes = 0;
};

/// CQA runs on the repair core, under its options.
using CqaOptions = RepairEngineOptions;

/// Computes consistent value intervals for every measure cell of `db` that
/// occurs in some ground constraint, under the card-minimal repair
/// semantics. Fails with Infeasible when no repair exists.
Result<CqaResult> ComputeConsistentIntervals(
    const rel::Database& db, const cons::ConstraintSet& constraints,
    const CqaOptions& options = {});

/// The consistent answer of one aggregate query.
struct QueryInterval {
  double value_on_acquired = 0;  ///< the query evaluated on D as acquired.
  double min_value = 0;          ///< min over all card-minimal repairs ρ(D).
  double max_value = 0;
  size_t min_repair_cardinality = 0;

  /// True iff the query has the same answer in every card-minimal repair —
  /// the consistent-query-answer condition of [2]/[16] specialized to the
  /// card-minimal semantics.
  bool certain(double tol = 1e-6) const {
    return max_value - min_value <= tol;
  }
};

/// Consistent answer of the aggregation query χ(params) — the [16] problem
/// the paper builds on: what does SELECT sum(e) FROM R WHERE α answer when
/// the database is inconsistent? Under the card-minimal semantics the
/// answer is the interval of the sum across all card-minimal repairs
/// (a point interval ⇔ a certain answer).
///
/// `function_name` names an aggregation function registered in
/// `constraints`; `params` are its concrete parameter values.
Result<QueryInterval> ConsistentAggregateAnswer(
    const rel::Database& db, const cons::ConstraintSet& constraints,
    const std::string& function_name, const std::vector<rel::Value>& params,
    const CqaOptions& options = {});

}  // namespace dart::repair
