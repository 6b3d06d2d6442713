#include "repair/translator.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "constraints/eval.h"
#include "constraints/steady.h"
#include "util/strings.h"

namespace dart::repair {

namespace {

/// One ground constraint row over measure cells, before variables exist.
struct PendingRow {
  std::string name;
  std::map<rel::CellRef, double> coefficients;
  cons::CompareOp op = cons::CompareOp::kLe;
  double rhs = 0;
};

milp::RowSense ToRowSense(cons::CompareOp op) {
  switch (op) {
    case cons::CompareOp::kLe: return milp::RowSense::kLe;
    case cons::CompareOp::kGe: return milp::RowSense::kGe;
    case cons::CompareOp::kEq: return milp::RowSense::kEq;
    default: break;
  }
  DART_CHECK_MSG(false, "constraint op must be <=, >= or = here");
  return milp::RowSense::kLe;
}

}  // namespace

int Translation::CellIndex(const rel::CellRef& cell) const {
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i] == cell) return static_cast<int>(i);
  }
  return -1;
}

Result<Translation> TranslateToMilp(const rel::Database& db,
                                    const cons::ConstraintSet& constraints,
                                    const TranslatorOptions& options) {
  DART_ASSIGN_OR_RETURN(cons::GroundProgram program,
                        cons::GroundConstraintProgram(db, constraints));
  return TranslateGrounded(db, program, options);
}

Result<Translation> TranslateGrounded(const rel::Database& db,
                                      const cons::GroundProgram& program,
                                      const TranslatorOptions& options) {
  // ---------------------------------------------------------------------
  // Step 1 — S(AC): one linear row per ground constraint instance. The
  // grounding itself (substitution enumeration, steady-attribute folding)
  // already happened in GroundConstraintProgram; here the ground rows are
  // vetted for constant (coefficient-free) instances.
  // ---------------------------------------------------------------------
  std::vector<PendingRow> pending;
  double max_abs_coeff = program.max_abs_factor;  // `a` of the theoretical bound
  for (const cons::GroundRow& ground : program.rows) {
    if (ground.coefficients.empty()) {
      // Constant row: either trivially true (drop) or impossible to repair.
      if (!cons::SatisfiesCompare(0, ground.op, ground.rhs)) {
        return Status::Infeasible(
            "ground constraint " + ground.name +
            " involves no measure value and is violated; no repair exists");
      }
      continue;
    }
    PendingRow row;
    row.name = ground.name;
    row.op = ground.op;
    row.rhs = ground.rhs;
    row.coefficients = ground.coefficients;
    max_abs_coeff = std::max(max_abs_coeff, std::fabs(row.rhs));
    pending.push_back(std::move(row));
  }

  // ---------------------------------------------------------------------
  // Step 2 — choose the cell set: all measure cells (paper Example 10) or
  // only cells occurring in some ground row.
  // ---------------------------------------------------------------------
  std::set<rel::CellRef> involved;
  for (const PendingRow& row : pending) {
    for (const auto& [cell, coeff] : row.coefficients) involved.insert(cell);
  }

  std::vector<rel::CellRef> cells;
  if (options.restrict_to_involved) {
    cells.assign(involved.begin(), involved.end());
    // Keep database order (relation, row, attribute) — set order already is.
  } else {
    cells = db.MeasureCells();
  }

  Translation out;
  out.cells = cells;
  const size_t n_cells = cells.size();
  std::map<rel::CellRef, size_t> cell_index;
  for (size_t i = 0; i < n_cells; ++i) cell_index[cells[i]] = i;

  if (options.restrict_to_involved) {
    for (const PendingRow& row : pending) {
      for (const auto& [cell, coeff] : row.coefficients) {
        DART_CHECK(cell_index.count(cell) > 0);
      }
    }
  } else {
    for (const PendingRow& row : pending) {
      for (const auto& [cell, coeff] : row.coefficients) {
        if (cell_index.count(cell) == 0) {
          return Status::Internal(
              "ground row references cell outside the measure set: " +
              cell.ToString());
        }
      }
    }
  }

  // Current values vᵢ and per-cell integrality.
  out.current_values.resize(n_cells);
  std::vector<bool> is_integer(n_cells, false);
  double max_abs_value = 0;
  for (size_t i = 0; i < n_cells; ++i) {
    DART_ASSIGN_OR_RETURN(rel::Value v, db.ValueAt(cells[i]));
    if (!v.is_numeric()) {
      return Status::InvalidArgument("measure cell " + cells[i].ToString() +
                                     " holds a non-numeric value");
    }
    out.current_values[i] = v.AsReal();
    max_abs_value = std::max(max_abs_value, std::fabs(out.current_values[i]));
    const rel::Relation* relation = db.FindRelation(cells[i].relation);
    is_integer[i] = relation->schema().attribute(cells[i].attribute).domain ==
                    rel::Domain::kInt;
  }

  // ---------------------------------------------------------------------
  // Step 3 — big-M. Practical value for solving; theoretical bound of [22]
  // reported in log10 (it does not fit in any machine float).
  // ---------------------------------------------------------------------
  double max_abs_rhs = 0;
  for (const PendingRow& row : pending) {
    max_abs_rhs = std::max(max_abs_rhs, std::fabs(row.rhs));
  }
  double practical_m =
      options.big_m.fixed_value > 0
          ? options.big_m.fixed_value
          : options.big_m.multiplier * (1.0 + max_abs_value + max_abs_rhs);
  // The z box must at least contain every current value vᵢ, or the model
  // could not even represent "change nothing"; clamp a user-fixed M up to
  // that floor.
  practical_m = std::max(practical_m, 1.0 + max_abs_value);
  out.practical_m = practical_m;
  {
    // S'(AC) in augmented form: m = N + r equalities, n = 2N + r variables,
    // a = max |coefficient| (paper footnote 3).
    const double m = static_cast<double>(n_cells + pending.size());
    const double n = static_cast<double>(2 * n_cells + pending.size());
    const double a = std::max({max_abs_coeff, max_abs_value, max_abs_rhs, 1.0});
    out.theoretical_m_log10 =
        m > 0 ? std::log10(n) + (2 * m + 1) * std::log10(m * a) : 0;
  }

  // ---------------------------------------------------------------------
  // Step 4 — assemble S*(AC).
  // ---------------------------------------------------------------------
  milp::Model& model = out.model;
  out.z_vars.resize(n_cells);
  out.y_vars.resize(n_cells);
  out.delta_vars.resize(n_cells);
  out.big_m.resize(n_cells);
  for (size_t i = 0; i < n_cells; ++i) {
    const std::string suffix = std::to_string(i + 1);
    const milp::VarType numeric_type =
        is_integer[i] ? milp::VarType::kInteger : milp::VarType::kContinuous;
    // Note the z box constrains *repaired* values only; an acquired value
    // outside it (e.g. a negative value under require_nonnegative) is
    // legal — it just forces that cell to be updated. The practical-M clamp
    // above guarantees |vᵢ| <= M, so the default box always contains vᵢ.
    const double z_lo = options.require_nonnegative ? 0.0 : -practical_m;
    out.z_vars[i] =
        model.AddVariable("z" + suffix, numeric_type, z_lo, practical_m);
    const double m_i = practical_m + std::fabs(out.current_values[i]);
    out.big_m[i] = m_i;
    out.y_vars[i] = model.AddVariable("y" + suffix, numeric_type, -m_i, m_i);
    out.delta_vars[i] =
        model.AddVariable("d" + suffix, milp::VarType::kBinary, 0, 1);
    // yᵢ − zᵢ = −vᵢ  (S'(AC))
    model.AddRow("def_y" + suffix,
                 {{out.y_vars[i], 1.0}, {out.z_vars[i], -1.0}},
                 milp::RowSense::kEq, -out.current_values[i]);
    // yᵢ − Mᵢδᵢ ≤ 0, −yᵢ − Mᵢδᵢ ≤ 0  (S''(AC))
    model.AddRow("bigM_pos" + suffix,
                 {{out.y_vars[i], 1.0}, {out.delta_vars[i], -m_i}},
                 milp::RowSense::kLe, 0);
    model.AddRow("bigM_neg" + suffix,
                 {{out.y_vars[i], -1.0}, {out.delta_vars[i], -m_i}},
                 milp::RowSense::kLe, 0);
  }

  // Ground constraint rows A·Z ⋈ B.
  out.occurrence_counts.assign(n_cells, 0);
  for (const PendingRow& row : pending) {
    std::vector<milp::LinearTerm> terms;
    std::string description;
    terms.reserve(row.coefficients.size());
    for (const auto& [cell, coeff] : row.coefficients) {
      const size_t index = cell_index.at(cell);
      terms.push_back({out.z_vars[index], coeff});
      ++out.occurrence_counts[index];
      if (!description.empty()) description += coeff >= 0 ? " + " : " ";
      if (coeff != 1) description += FormatDouble(coeff) + "*";
      description += "z" + std::to_string(index + 1);
    }
    description += std::string(" ") + cons::CompareOpName(row.op) + " " +
                   FormatDouble(row.rhs);
    out.ground_rows.push_back(std::move(description));
    model.AddRow(row.name, std::move(terms), ToRowSense(row.op), row.rhs);
  }

  // Connected components of the cell–ground-row incidence graph (union-find
  // with path halving): the document structure of the instance. Cells in no
  // ground row stay singletons.
  {
    std::vector<int> parent(n_cells);
    for (size_t i = 0; i < n_cells; ++i) parent[i] = static_cast<int>(i);
    auto find = [&](int x) {
      while (parent[static_cast<size_t>(x)] != x) {
        parent[static_cast<size_t>(x)] =
            parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
        x = parent[static_cast<size_t>(x)];
      }
      return x;
    };
    for (const PendingRow& row : pending) {
      int first = -1;
      for (const auto& [cell, coeff] : row.coefficients) {
        const int index = static_cast<int>(cell_index.at(cell));
        if (first < 0) {
          first = find(index);
        } else {
          const int root = find(index);
          if (root != first) parent[static_cast<size_t>(root)] = first;
        }
      }
    }
    out.cell_component.assign(n_cells, -1);
    std::vector<int> component_of_root(n_cells, -1);
    for (size_t i = 0; i < n_cells; ++i) {
      const int root = find(static_cast<int>(i));
      if (component_of_root[static_cast<size_t>(root)] < 0) {
        component_of_root[static_cast<size_t>(root)] =
            out.num_cell_components++;
      }
      out.cell_component[i] = component_of_root[static_cast<size_t>(root)];
    }
  }

  // Objective: min Σ wᵢ·δᵢ (wᵢ = 1 everywhere in the paper's card-minimal
  // semantics; confidence weights are the weight-minimal extension).
  std::vector<double> weights(n_cells, 1.0);
  for (const CellWeight& weight : options.weights) {
    if (weight.weight <= 0) {
      return Status::InvalidArgument("cell weight must be positive for " +
                                     weight.cell.ToString());
    }
    auto it = cell_index.find(weight.cell);
    if (it != cell_index.end()) weights[it->second] = weight.weight;
  }
  std::vector<milp::LinearTerm> objective;
  objective.reserve(n_cells);
  for (size_t i = 0; i < n_cells; ++i) {
    objective.push_back({out.delta_vars[i], weights[i]});
  }
  model.SetObjective(std::move(objective), 0, milp::ObjectiveSense::kMinimize);

  DART_RETURN_IF_ERROR(model.Validate());

  out.matrix_rows = model.num_rows();
  out.matrix_cols = model.num_variables();
  for (const milp::Row& row : model.rows()) {
    out.matrix_nnz += static_cast<long long>(row.terms.size());
  }
  const double area = static_cast<double>(out.matrix_rows) *
                      static_cast<double>(out.matrix_cols);
  out.matrix_density = area > 0 ? static_cast<double>(out.matrix_nnz) / area
                                : 0.0;
  return out;
}

}  // namespace dart::repair
