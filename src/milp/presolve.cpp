#include "milp/presolve.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dart::milp {

namespace {

/// Working copy of variable state during elimination.
struct WorkingVar {
  double lower = 0;
  double upper = 0;
  VarType type = VarType::kContinuous;
  bool fixed = false;
  double value = 0;
};

/// Working copy of one row with eliminated variables folded into rhs.
struct WorkingRow {
  std::vector<LinearTerm> terms;
  RowSense sense = RowSense::kLe;
  double rhs = 0;
  bool removed = false;
  std::string name;
};

/// Integer-aware bound tightening. Returns false on a contradiction.
bool TightenBounds(WorkingVar* var, double new_lower, double new_upper,
                   double tol) {
  double lower = std::max(var->lower, new_lower);
  double upper = std::min(var->upper, new_upper);
  if (var->type != VarType::kContinuous) {
    // Integral variables can round inward.
    lower = std::ceil(lower - tol);
    upper = std::floor(upper + tol);
  }
  if (lower > upper + tol) return false;
  var->lower = lower;
  var->upper = std::max(lower, upper);
  if (var->upper - var->lower <= tol) {
    var->fixed = true;
    var->value = var->type == VarType::kContinuous
                     ? (var->lower + var->upper) / 2
                     : std::round(var->lower);
  }
  return true;
}

}  // namespace

std::vector<double> PresolveResult::RestorePoint(
    const std::vector<double>& reduced_point) const {
  std::vector<double> out(variable_map.size(), 0.0);
  for (size_t i = 0; i < variable_map.size(); ++i) {
    if (variable_map[i] < 0) {
      out[i] = fixed_values[i];
    } else {
      out[i] = reduced_point[static_cast<size_t>(variable_map[i])];
    }
  }
  return out;
}

std::vector<double> PresolveResult::ProjectPoint(
    const std::vector<double>& full_point) const {
  std::vector<double> out(static_cast<size_t>(reduced.num_variables()), 0.0);
  for (size_t i = 0; i < variable_map.size(); ++i) {
    if (variable_map[i] >= 0) {
      out[static_cast<size_t>(variable_map[i])] = full_point[i];
    }
  }
  return out;
}

PresolveResult Presolve(const Model& model, const PresolveOptions& options) {
  const double tol = options.tol;
  PresolveResult result;
  const int n = model.num_variables();

  std::vector<WorkingVar> vars(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Variable& v = model.variable(i);
    vars[static_cast<size_t>(i)] = WorkingVar{v.lower, v.upper, v.type, false, 0};
    if (v.upper - v.lower <= tol) {
      vars[static_cast<size_t>(i)].fixed = true;
      vars[static_cast<size_t>(i)].value =
          v.type == VarType::kContinuous ? (v.lower + v.upper) / 2
                                         : std::round(v.lower);
    }
  }
  std::vector<WorkingRow> rows;
  rows.reserve(model.rows().size());
  for (const Row& row : model.rows()) {
    rows.push_back(WorkingRow{row.terms, row.sense, row.rhs, false, row.name});
  }

  for (int pass = 0; pass < options.max_passes; ++pass) {
    bool changed = false;
    for (WorkingRow& row : rows) {
      if (row.removed) continue;
      // Fold currently-fixed variables into the rhs.
      std::vector<LinearTerm> live;
      live.reserve(row.terms.size());
      for (const LinearTerm& term : row.terms) {
        const WorkingVar& var = vars[static_cast<size_t>(term.variable)];
        if (var.fixed) {
          row.rhs -= term.coefficient * var.value;
          changed = true;
        } else {
          live.push_back(term);
        }
      }
      row.terms = std::move(live);

      if (row.terms.empty()) {
        // Constant row: decide it now.
        const bool ok = row.sense == RowSense::kLe   ? 0 <= row.rhs + tol
                        : row.sense == RowSense::kGe ? 0 >= row.rhs - tol
                                                     : std::fabs(row.rhs) <= tol;
        if (!ok) {
          result.infeasible = true;
          return result;
        }
        row.removed = true;
        ++result.rows_removed;
        continue;
      }
      if (row.terms.size() == 1) {
        // Singleton row: a·x ⋈ b → bound on x.
        const LinearTerm term = row.terms[0];
        WorkingVar& var = vars[static_cast<size_t>(term.variable)];
        const double bound = row.rhs / term.coefficient;
        double new_lower = -std::numeric_limits<double>::infinity();
        double new_upper = std::numeric_limits<double>::infinity();
        RowSense sense = row.sense;
        if (term.coefficient < 0 && sense != RowSense::kEq) {
          sense = sense == RowSense::kLe ? RowSense::kGe : RowSense::kLe;
        }
        switch (sense) {
          case RowSense::kLe: new_upper = bound; break;
          case RowSense::kGe: new_lower = bound; break;
          case RowSense::kEq: new_lower = new_upper = bound; break;
        }
        if (!TightenBounds(&var, new_lower, new_upper, tol)) {
          result.infeasible = true;
          return result;
        }
        row.removed = true;
        ++result.rows_removed;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Assemble the reduced model.
  result.variable_map.assign(static_cast<size_t>(n), -1);
  result.fixed_values.assign(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    const WorkingVar& var = vars[static_cast<size_t>(i)];
    if (var.fixed) {
      result.fixed_values[static_cast<size_t>(i)] = var.value;
      ++result.variables_eliminated;
    } else {
      result.variable_map[static_cast<size_t>(i)] = result.reduced.AddVariable(
          model.variable(i).name, var.type, var.lower, var.upper);
    }
  }
  for (const WorkingRow& row : rows) {
    if (row.removed) continue;
    std::vector<LinearTerm> mapped;
    mapped.reserve(row.terms.size());
    for (const LinearTerm& term : row.terms) {
      const int reduced_index =
          result.variable_map[static_cast<size_t>(term.variable)];
      DART_CHECK(reduced_index >= 0);
      mapped.push_back(LinearTerm{reduced_index, term.coefficient});
    }
    result.reduced.AddRow(row.name, std::move(mapped), row.sense, row.rhs);
  }
  // Objective: fixed variables contribute a constant.
  double constant = model.objective_constant();
  std::vector<LinearTerm> objective;
  for (const LinearTerm& term : model.objective_terms()) {
    const WorkingVar& var = vars[static_cast<size_t>(term.variable)];
    if (var.fixed) {
      constant += term.coefficient * var.value;
    } else {
      objective.push_back(LinearTerm{
          result.variable_map[static_cast<size_t>(term.variable)],
          term.coefficient});
    }
  }
  result.reduced.SetObjective(std::move(objective), constant,
                              model.objective_sense());
  return result;
}

MilpResult SolveMilpWithPresolve(const Model& model,
                                 const MilpOptions& milp_options,
                                 const PresolveOptions& presolve_options) {
  PresolveResult presolved = Presolve(model, presolve_options);
  if (presolved.infeasible) {
    MilpResult result;
    result.status = MilpResult::SolveStatus::kInfeasible;
    return result;
  }
  MilpOptions reduced_options = milp_options;
  // Project a warm-start point into the reduced variable space (the
  // feasibility check in the solver will reject it if the eliminated
  // variables' fixed values contradict it).
  if (milp_options.initial_point.size() ==
      static_cast<size_t>(model.num_variables())) {
    reduced_options.initial_point =
        presolved.ProjectPoint(milp_options.initial_point);
  } else {
    reduced_options.initial_point.clear();
  }
  MilpResult reduced = SolveMilp(presolved.reduced, reduced_options);
  if (reduced.has_incumbent) {
    reduced.point = presolved.RestorePoint(reduced.point);
  }
  return reduced;
}

}  // namespace dart::milp
