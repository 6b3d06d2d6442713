#include "repair/translator.h"

#include <algorithm>
#include <cmath>

#include "constraints/eval.h"
#include "constraints/steady.h"
#include "util/strings.h"

namespace dart::repair {

namespace {

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

std::vector<std::string> FormatGroundRows(const Translation& translation) {
  // Cell i owns variables 3i..3i+2 (z, y, δ) and rows 3i..3i+2 (S'/S''); the
  // ground rows follow.
  const std::vector<milp::Row>& rows = translation.model.rows();
  std::vector<std::string> out;
  for (size_t r = 3 * translation.cells.size(); r < rows.size(); ++r) {
    std::string description;
    for (const milp::LinearTerm& term : rows[r].terms) {
      if (!description.empty()) {
        description += term.coefficient >= 0 ? " + " : " ";
      }
      if (term.coefficient != 1) {
        description += FormatDouble(term.coefficient) + "*";
      }
      description += "z" + std::to_string(term.variable / 3 + 1);
    }
    out.push_back(description + " " + milp::RowSenseName(rows[r].sense) +
                  " " + FormatDouble(rows[r].rhs));
  }
  return out;
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
  std::vector<const cons::GroundRow*> pending;
  double max_abs_rhs = 0;
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
    max_abs_rhs = std::max(max_abs_rhs, std::fabs(ground.rhs));
    pending.push_back(&ground);
  }

  // ---------------------------------------------------------------------
  // Step 2 — the cell set: one variable triple per measure cell (paper
  // Example 10), zᵢ for the cell of id i.
  // ---------------------------------------------------------------------
  Translation out;
  out.cells = db.MeasureCells();
  const size_t n_cells = out.cells.size();
  if (program.num_cells != n_cells) {
    return Status::InvalidArgument("ground program of another database");
  }
  // Current values vᵢ and per-cell integrality.
  DART_ASSIGN_OR_RETURN(out.current_values, db.MeasureValues());
  std::vector<bool> is_integer;
  is_integer.reserve(n_cells);
  for (const rel::Relation& relation : db.relations()) {
    for (size_t row = 0; row < relation.size(); ++row) {
      for (size_t attr : relation.schema().measure_indexes()) {
        is_integer.push_back(relation.schema().attribute(attr).domain ==
                             rel::Domain::kInt);
      }
    }
  }
  double max_abs_value = 0;
  for (double v : out.current_values) {
    max_abs_value = std::max(max_abs_value, std::fabs(v));
  }

  // ---------------------------------------------------------------------
  // Step 3 — big-M. Practical value for solving; theoretical bound of [22]
  // reported in log10 (it does not fit in any machine float).
  // ---------------------------------------------------------------------
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
    const double a = std::max(
        {program.max_abs_factor, max_abs_value, max_abs_rhs, 1.0});
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
  for (const cons::GroundRow* row : pending) {
    std::vector<milp::LinearTerm> terms;
    terms.reserve(row->coefficients.size());
    for (const auto& [id, coeff] : row->coefficients) {
      terms.push_back({out.z_vars[static_cast<size_t>(id)], coeff});
      ++out.occurrence_counts[static_cast<size_t>(id)];
    }
    model.AddRow(row->name, std::move(terms), ToRowSense(row->op), row->rhs);
  }
  out.num_ground_rows = pending.size();

  // Objective: min Σ wᵢ·δᵢ (wᵢ = 1 everywhere in the paper's card-minimal
  // semantics; confidence weights are the weight-minimal extension).
  std::vector<double> weights(n_cells, 1.0);
  for (const CellWeight& weight : options.weights) {
    if (weight.weight <= 0) {
      return Status::InvalidArgument("cell weight must be positive for " +
                                     weight.cell.ToString());
    }
    const int id = db.MeasureCellId(weight.cell);
    if (id >= 0) weights[static_cast<size_t>(id)] = weight.weight;
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
