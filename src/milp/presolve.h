#pragma once

#include <vector>

#include "milp/branch_and_bound.h"
#include "milp/model.h"

/// \file presolve.h
/// Lightweight MILP presolve: repeated fixed-variable elimination and
/// singleton-row bound tightening until fixpoint.
///
/// The repair core does not presolve: operator pins enter its component
/// models as bound changes (repair/incremental.h), not as singleton rows to
/// chase. Only perfbench's decompose replay (perfbench/stages.cpp) and the
/// presolve/warm-start tests use this module; it goes once that benchmark
/// replays the core's own decomposition instead.

namespace dart::milp {

struct PresolveOptions {
  /// Maximum elimination sweeps (each sweep is O(rows × terms)).
  int max_passes = 20;
  double tol = 1e-9;
};

/// The reduced model plus the bookkeeping to lift solutions back.
struct PresolveResult {
  /// True when presolve proved the model infeasible (contradictory bounds
  /// or a violated constant row); `reduced` is then meaningless.
  bool infeasible = false;

  Model reduced;
  /// original variable index → reduced index, or -1 when eliminated.
  std::vector<int> variable_map;
  /// value of each eliminated variable (indexed by original index).
  std::vector<double> fixed_values;

  int variables_eliminated = 0;
  int rows_removed = 0;

  /// Lifts a reduced-space point back to the original variable space.
  std::vector<double> RestorePoint(const std::vector<double>& reduced_point) const;

  /// Projects an original-space point into the reduced variable space (the
  /// inverse of RestorePoint, dropping eliminated variables). Used to carry
  /// warm-start incumbents across presolve.
  std::vector<double> ProjectPoint(const std::vector<double>& full_point) const;
};

/// Runs presolve on `model`.
PresolveResult Presolve(const Model& model, const PresolveOptions& options = {});

/// Convenience: presolve, solve the reduced model, lift the solution.
MilpResult SolveMilpWithPresolve(const Model& model,
                                 const MilpOptions& milp_options = {},
                                 const PresolveOptions& presolve_options = {});

}  // namespace dart::milp
