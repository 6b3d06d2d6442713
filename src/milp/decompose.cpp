#include "milp/decompose.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <utility>

namespace dart::milp {

namespace {

constexpr double kTol = 1e-9;

/// Union-find with path halving (the model is read once, so rank tracking
/// would not pay for itself).
int Find(std::vector<int>& parent, int x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

void Unite(std::vector<int>& parent, int a, int b) {
  a = Find(parent, a);
  b = Find(parent, b);
  if (a != b) parent[b] = a;
}

/// A constant row (no live terms) is satisfiable iff 0 ⋈ rhs.
bool ConstantRowHolds(RowSense sense, double rhs) {
  switch (sense) {
    case RowSense::kLe: return 0 <= rhs + kTol;
    case RowSense::kGe: return 0 >= rhs - kTol;
    case RowSense::kEq: return std::fabs(rhs) <= kTol;
  }
  return false;
}

}  // namespace

Decomposition DecomposeModel(const Model& model) {
  Decomposition out;
  const int n = model.num_variables();
  out.component_of_var.assign(static_cast<size_t>(n), -1);
  out.local_of_var.assign(static_cast<size_t>(n), -1);

  // Union-find over the rows. Zero coefficients do not couple variables (the
  // translator never emits them, but merged duplicate terms can cancel).
  std::vector<int> parent(static_cast<size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  std::vector<char> in_row(static_cast<size_t>(n), 0);
  for (const Row& row : model.rows()) {
    int first = -1;
    for (const LinearTerm& term : row.terms) {
      if (term.coefficient == 0) continue;
      in_row[static_cast<size_t>(term.variable)] = 1;
      if (first < 0) {
        first = term.variable;
      } else {
        Unite(parent, first, term.variable);
      }
    }
    if (first < 0 && !ConstantRowHolds(row.sense, row.rhs)) {
      out.constant_row_infeasible = true;
    }
  }

  // Objective coefficient per variable (duplicate terms merged).
  std::vector<double> obj(static_cast<size_t>(n), 0.0);
  for (const LinearTerm& term : model.objective_terms()) {
    obj[static_cast<size_t>(term.variable)] += term.coefficient;
  }
  const double sense_factor =
      model.objective_sense() == ObjectiveSense::kMinimize ? 1.0 : -1.0;

  // Rowless variables: the optimal value is determined by the objective sign
  // alone — the bound that helps, or anything in the box on a zero
  // coefficient (0 clamped into the box keeps repair variables at "no
  // change" when that is allowed).
  for (int i = 0; i < n; ++i) {
    if (in_row[static_cast<size_t>(i)]) continue;
    const Variable& v = model.variable(i);
    double lower = v.lower;
    double upper = v.upper;
    if (v.type != VarType::kContinuous) {
      lower = std::ceil(lower - kTol);
      upper = std::floor(upper + kTol);
      if (lower > upper) {
        out.rowless_infeasible = true;
        lower = upper = std::round(v.lower);
      }
    }
    const double cost = sense_factor * obj[static_cast<size_t>(i)];
    double value;
    if (cost > kTol) {
      value = lower;
    } else if (cost < -kTol) {
      value = upper;
    } else {
      value = std::min(std::max(0.0, lower), upper);
    }
    out.local_of_var[static_cast<size_t>(i)] =
        static_cast<int>(out.rowless_vars.size());
    out.rowless_vars.push_back(i);
    out.rowless_values.push_back(value);
    out.rowless_objective += obj[static_cast<size_t>(i)] * value;
  }

  // Group the remaining variables by union-find root. Scanning variables in
  // ascending order makes each group's var list ascending and the group
  // order "by smallest contained variable" for free.
  std::vector<int> group_of_root(static_cast<size_t>(n), -1);
  std::vector<std::vector<int>> groups;
  for (int i = 0; i < n; ++i) {
    if (!in_row[static_cast<size_t>(i)]) continue;
    const int root = Find(parent, i);
    int g = group_of_root[static_cast<size_t>(root)];
    if (g < 0) {
      g = static_cast<int>(groups.size());
      group_of_root[static_cast<size_t>(root)] = g;
      groups.emplace_back();
    }
    groups[static_cast<size_t>(g)].push_back(i);
  }

  // Largest component first (ties by smallest contained variable index) so
  // a concurrent batch starts the longest solve immediately.
  std::vector<int> order(groups.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto& ga = groups[static_cast<size_t>(a)];
    const auto& gb = groups[static_cast<size_t>(b)];
    if (ga.size() != gb.size()) return ga.size() > gb.size();
    return ga.front() < gb.front();
  });

  out.components.resize(groups.size());
  for (size_t c = 0; c < order.size(); ++c) {
    Component& comp = out.components[c];
    comp.vars = std::move(groups[static_cast<size_t>(order[c])]);
    for (size_t l = 0; l < comp.vars.size(); ++l) {
      const int v = comp.vars[l];
      out.component_of_var[static_cast<size_t>(v)] = static_cast<int>(c);
      out.local_of_var[static_cast<size_t>(v)] = static_cast<int>(l);
      const Variable& var = model.variable(v);
      comp.model.AddVariable(var.name, var.type, var.lower, var.upper);
    }
  }
  out.largest_component_vars =
      out.components.empty()
          ? 0
          : static_cast<int>(out.components.front().vars.size());

  // Deal the rows out to their components, remapping variable indices.
  std::vector<std::vector<LinearTerm>> comp_objective(out.components.size());
  for (int r = 0; r < model.num_rows(); ++r) {
    const Row& row = model.rows()[static_cast<size_t>(r)];
    int comp_index = -1;
    std::vector<LinearTerm> mapped;
    mapped.reserve(row.terms.size());
    for (const LinearTerm& term : row.terms) {
      if (term.coefficient == 0) continue;
      if (comp_index < 0) {
        comp_index = out.component_of_var[static_cast<size_t>(term.variable)];
      }
      mapped.push_back(LinearTerm{
          out.local_of_var[static_cast<size_t>(term.variable)],
          term.coefficient});
    }
    if (comp_index < 0) continue;  // constant row, decided above
    Component& comp = out.components[static_cast<size_t>(comp_index)];
    comp.rows.push_back(r);
    comp.model.AddRow(row.name, std::move(mapped), row.sense, row.rhs);
  }
  for (const LinearTerm& term : model.objective_terms()) {
    const int c = out.component_of_var[static_cast<size_t>(term.variable)];
    if (c < 0) continue;  // rowless: folded into rowless_objective
    comp_objective[static_cast<size_t>(c)].push_back(LinearTerm{
        out.local_of_var[static_cast<size_t>(term.variable)],
        term.coefficient});
  }
  for (size_t c = 0; c < out.components.size(); ++c) {
    out.components[c].model.SetObjective(std::move(comp_objective[c]), 0.0,
                                         model.objective_sense());
  }
  return out;
}

std::vector<BatchModel> ComponentBatch(
    const Decomposition& decomposition,
    const std::vector<double>& initial_point) {
  std::vector<BatchModel> batch(decomposition.components.size());
  const bool have_initial =
      !initial_point.empty() &&
      initial_point.size() == decomposition.component_of_var.size();
  for (size_t c = 0; c < batch.size(); ++c) {
    const Component& comp = decomposition.components[c];
    batch[c].model = &comp.model;
    if (have_initial) {
      batch[c].initial_point.reserve(comp.vars.size());
      for (int v : comp.vars) {
        batch[c].initial_point.push_back(initial_point[static_cast<size_t>(v)]);
      }
    }
  }
  return batch;
}

MilpResult StitchDecomposition(const Decomposition& decomposition,
                               const Model& model,
                               const std::vector<MilpResult>& solved) {
  MilpResult result;
  result.num_components = decomposition.num_components();
  result.largest_component_vars = decomposition.largest_component_vars;
  if (decomposition.constant_row_infeasible) {
    result.status = MilpResult::SolveStatus::kLpRelaxationInfeasible;
    return result;
  }

  // Statuses combine with the monolithic solver's precedence, objectives add
  // (disjoint variable sets). Search counters already reached the registry
  // via each component's publish — nothing to sum here.
  bool any_unbounded = false;
  bool any_lp_infeasible = false;
  bool any_int_infeasible = decomposition.rowless_infeasible;
  bool any_node_limit = false;
  bool all_incumbent = !decomposition.rowless_infeasible;
  double objective_sum = decomposition.rowless_objective;
  double bound_sum = decomposition.rowless_objective;
  for (const MilpResult& r : solved) {
    switch (r.status) {
      case MilpResult::SolveStatus::kOptimal: break;
      case MilpResult::SolveStatus::kUnbounded: any_unbounded = true; break;
      case MilpResult::SolveStatus::kLpRelaxationInfeasible:
        any_lp_infeasible = true;
        break;
      case MilpResult::SolveStatus::kInfeasible:
        any_int_infeasible = true;
        break;
      case MilpResult::SolveStatus::kNodeLimit: any_node_limit = true; break;
    }
    if (r.has_incumbent) {
      objective_sum += r.objective;
    } else {
      all_incumbent = false;
    }
    bound_sum += r.best_bound;
  }

  if (any_unbounded) {
    result.status = MilpResult::SolveStatus::kUnbounded;
  } else if (any_lp_infeasible) {
    result.status = MilpResult::SolveStatus::kLpRelaxationInfeasible;
  } else if (any_int_infeasible) {
    result.status = MilpResult::SolveStatus::kInfeasible;
  } else if (any_node_limit) {
    result.status = MilpResult::SolveStatus::kNodeLimit;
  } else {
    result.status = MilpResult::SolveStatus::kOptimal;
  }

  if (all_incumbent) {
    result.has_incumbent = true;
    result.objective = model.objective_constant() + objective_sum;
    result.point.assign(static_cast<size_t>(model.num_variables()), 0.0);
    for (size_t k = 0; k < decomposition.rowless_vars.size(); ++k) {
      result.point[static_cast<size_t>(decomposition.rowless_vars[k])] =
          decomposition.rowless_values[k];
    }
    for (size_t c = 0; c < solved.size(); ++c) {
      const Component& comp = decomposition.components[c];
      for (size_t l = 0; l < comp.vars.size(); ++l) {
        result.point[static_cast<size_t>(comp.vars[l])] = solved[c].point[l];
      }
    }
  }
  if (result.status == MilpResult::SolveStatus::kOptimal) {
    result.best_bound = result.objective;
  } else if (result.status == MilpResult::SolveStatus::kNodeLimit) {
    // Component bounds add: each is a valid bound on its block's optimum
    // and the blocks are disjoint.
    result.best_bound = model.objective_constant() + bound_sum;
  }
  return result;
}

MilpResult SolveDecomposition(const Decomposition& decomposition,
                              const Model& model, const MilpOptions& options,
                              std::vector<MilpResult>* component_results) {
  const auto t_begin = std::chrono::steady_clock::now();
  if (component_results) component_results->clear();
  const int n = model.num_variables();

  // Single component covering every variable: the sub-model would be a
  // reindexed copy of the input — solve the input directly.
  if (decomposition.components.size() == 1 &&
      static_cast<int>(decomposition.components[0].vars.size()) == n &&
      !decomposition.constant_row_infeasible) {
    MilpResult result = SolveMilp(model, options);
    result.num_components = 1;
    result.largest_component_vars = n;
    obs::SetGauge(options.run, "milp.components", 1);
    obs::SetGauge(options.run, "milp.largest_component_vars", n);
    if (component_results) component_results->push_back(result);
    return result;
  }

  // Gauges, not counters: a re-solve of the same instance overwrites rather
  // than accumulates, matching the legacy MilpResult field semantics.
  obs::SetGauge(options.run, "milp.components",
                decomposition.num_components());
  obs::SetGauge(options.run, "milp.largest_component_vars",
                decomposition.largest_component_vars);

  // Solve every component (one serial search each), then stitch. A
  // violated constant row skips the solve outright.
  std::vector<MilpResult> solved;
  if (!decomposition.constant_row_infeasible) {
    const std::vector<BatchModel> batch =
        ComponentBatch(decomposition, options.initial_point);
    MilpOptions batch_options = options;
    batch_options.initial_point.clear();
    solved = SolveMilpBatch(batch, batch_options);
  }
  MilpResult result = StitchDecomposition(decomposition, model, solved);
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t_begin)
                            .count();
  if (component_results) *component_results = std::move(solved);
  return result;
}

MilpResult SolveMilpDecomposed(const Model& model, const MilpOptions& options) {
  const Decomposition decomposition = DecomposeModel(model);
  return SolveDecomposition(decomposition, model, options);
}

}  // namespace dart::milp
