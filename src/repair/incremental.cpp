#include "repair/incremental.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "constraints/eval.h"
#include "obs/context.h"

namespace dart::repair {

namespace {

double Seconds(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

}  // namespace

IncrementalRepairSession::IncrementalRepairSession(
    const rel::Database& db, const cons::ConstraintSet& constraints,
    RepairEngineOptions options)
    : db_(&db), constraints_(&constraints), options_(std::move(options)) {}

int IncrementalRepairSession::num_components() const {
  return initialized_ ? decomposition_.num_components() : 0;
}

Status IncrementalRepairSession::Ground(obs::RunContext* run) {
  if (ground_) return Status::Ok();
  obs::Span ground_span(run, "repair.ground");
  DART_ASSIGN_OR_RETURN(cons::GroundProgram ground,
                        cons::GroundConstraintProgram(*db_, *constraints_));
  obs::Count(run, "repair.groundings");
  ground_ = std::move(ground);
  return Status::Ok();
}

Status IncrementalRepairSession::Initialize(obs::RunContext* run) {
  DART_RETURN_IF_ERROR(Ground(run));
  obs::Span translate_span(run, "repair.translate");
  DART_ASSIGN_OR_RETURN(
      translation_, TranslateGrounded(*db_, *ground_, options_.translator));
  translate_span.End();

  decomposition_ = milp::DecomposeModel(translation_.model);
  components_.assign(decomposition_.components.size(), ComponentState{});

  const size_t n_cells = translation_.cells.size();
  cell_index_.clear();
  cell_of_zvar_.assign(
      static_cast<size_t>(translation_.model.num_variables()), -1);
  for (size_t i = 0; i < n_cells; ++i) {
    cell_of_zvar_[static_cast<size_t>(translation_.z_vars[i])] =
        static_cast<int>(i);
  }
  component_of_cell_.assign(n_cells, -1);
  cells_of_component_.assign(decomposition_.components.size(), {});
  cell_big_m_ = translation_.big_m;
  cell_z_box_.assign(n_cells, translation_.practical_m);
  for (size_t i = 0; i < n_cells; ++i) {
    cell_index_[translation_.cells[i]] = static_cast<int>(i);
    // z, y and δ of one cell always share a component: the def_y row couples
    // z with y and the big-M rows couple y with δ.
    const int comp =
        decomposition_.component_of_var[translation_.z_vars[i]];
    component_of_cell_[i] = comp;
    if (comp >= 0) cells_of_component_[comp].push_back(static_cast<int>(i));
  }
  applied_pins_.clear();

  obs::SetGauge(run, "repair.num_cells", static_cast<double>(n_cells));
  obs::SetGauge(run, "repair.num_ground_rows",
                static_cast<double>(translation_.ground_rows.size()));
  obs::SetGauge(run, "repair.matrix_rows",
                static_cast<double>(translation_.matrix_rows));
  obs::SetGauge(run, "repair.matrix_cols",
                static_cast<double>(translation_.matrix_cols));
  obs::SetGauge(run, "repair.matrix_nnz",
                static_cast<double>(translation_.matrix_nnz));
  obs::SetGauge(run, "repair.matrix_density", translation_.matrix_density);
  initialized_ = true;
  return Status::Ok();
}

Status IncrementalRepairSession::ApplyPinDiff(
    const std::vector<FixedValue>& fixed_values) {
  // Resolve the new pin set to cell indices first, so errors surface before
  // any sub-model is touched.
  std::map<int, double> next;
  for (const FixedValue& pin : fixed_values) {
    auto it = cell_index_.find(pin.cell);
    if (it == cell_index_.end()) {
      return Status::InvalidArgument("fixed value targets unknown cell " +
                                     pin.cell.ToString());
    }
    // No box check here: the bound change z ∈ [v, v] is legal for any v
    // (unlike a from-scratch translation, whose practical M is floored at
    // 1 + |pin| to keep the pin inside the z box). A pin far outside the
    // component's current boxes surfaces as component infeasibility or y
    // saturation, and the ×100 grow-retry below then widens the boxes —
    // the same adaptive-M behavior the engine shows, shifted one round.
    auto [pos, inserted] = next.emplace(it->second, pin.value);
    if (!inserted && pos->second != pin.value) {
      // Two pin rows z = a and z = b with a ≠ b are infeasible.
      return Status::Infeasible("contradictory operator pins for cell " +
                                pin.cell.ToString());
    }
  }

  auto set_z_bounds = [&](int cell, double lower, double upper) {
    const int comp = component_of_cell_[cell];
    if (comp < 0) {
      return Status::Internal("pinned cell maps to no component");
    }
    const int local =
        decomposition_.local_of_var[translation_.z_vars[cell]];
    decomposition_.components[comp].model.SetVariableBounds(local, lower,
                                                            upper);
    components_[comp].dirty = true;
    return Status::Ok();
  };

  // Removed pins: restore the cell's current (possibly grown) z box.
  for (auto it = applied_pins_.begin(); it != applied_pins_.end();) {
    if (next.count(it->first) == 0) {
      const int cell = it->first;
      const double box = cell_z_box_[cell];
      DART_RETURN_IF_ERROR(set_z_bounds(
          cell, options_.translator.require_nonnegative ? 0.0 : -box, box));
      it = applied_pins_.erase(it);
    } else {
      ++it;
    }
  }
  // Added / changed pins: the bound change z ∈ [v, v].
  for (const auto& [cell, value] : next) {
    auto it = applied_pins_.find(cell);
    if (it != applied_pins_.end() && it->second == value) continue;
    DART_RETURN_IF_ERROR(set_z_bounds(cell, value, value));
    applied_pins_[cell] = value;
  }
  return Status::Ok();
}

void IncrementalRepairSession::GrowComponentBigM(int component) {
  milp::Model& model = decomposition_.components[component].model;
  const auto& local = decomposition_.local_of_var;
  for (int cell : cells_of_component_[component]) {
    const double new_m = cell_big_m_[cell] * 100.0;
    model.SetVariableBounds(local[translation_.y_vars[cell]], -new_m, new_m);
    // δ occurs exactly in the cell's two big-M rows with coefficient −Mᵢ;
    // scaling by 100 is the model the translator would rebuild with M ×100.
    model.ScaleVarRowCoefficients(local[translation_.delta_vars[cell]], 100.0);
    cell_big_m_[cell] = new_m;
    cell_z_box_[cell] *= 100.0;
    if (applied_pins_.count(cell) == 0) {
      const double box = cell_z_box_[cell];
      model.SetVariableBounds(
          local[translation_.z_vars[cell]],
          options_.translator.require_nonnegative ? 0.0 : -box, box);
    }
  }
}

Result<RepairOutcome> IncrementalRepairSession::ComputeRepair(
    const std::vector<FixedValue>& fixed_values, const Repair* warm_start) {
  RepairOutcome outcome;
  obs::RunContext* const run =
      options_.run != nullptr ? options_.run : options_.milp.run;
  obs::Span incremental_span(run, "repair.incremental");

  // Fast path shared with the engine: already consistent and nothing pinned.
  if (fixed_values.empty()) {
    DART_RETURN_IF_ERROR(Ground(run));
    DART_ASSIGN_OR_RETURN(std::vector<cons::Violation> violations,
                          cons::EvaluateGroundProgram(*db_, *ground_));
    if (violations.empty()) {
      outcome.already_consistent = true;
      return outcome;
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  if (!initialized_) {
    DART_RETURN_IF_ERROR(Initialize(run));
    outcome.stats.translate_seconds = Seconds(t0, std::chrono::steady_clock::now());
    obs::Observe(run, "repair.translate_seconds",
                 outcome.stats.translate_seconds);
  } else {
    obs::Count(run, "repair.incremental.translate_skipped");
  }
  DART_RETURN_IF_ERROR(ApplyPinDiff(fixed_values));
  if (decomposition_.constant_row_infeasible ||
      decomposition_.rowless_infeasible) {
    return Status::Infeasible(
        "no repair exists for the database w.r.t. the given constraints" +
        std::string(fixed_values.empty() ? "" : " and operator pins"));
  }

  const size_t num_comps = components_.size();
  last_dirty_components_ = 0;
  for (const ComponentState& cs : components_) {
    if (cs.dirty) ++last_dirty_components_;
  }
  last_clean_reused_ =
      static_cast<int>(num_comps) - last_dirty_components_;
  obs::Count(run, "repair.incremental.dirty_components",
             last_dirty_components_);
  obs::Count(run, "repair.incremental.clean_reused", last_clean_reused_);

  milp::MilpOptions milp_options = options_.milp;
  milp_options.run = run;
  milp_options.initial_point.clear();
  bool integral_objective = true;
  for (const CellWeight& weight : options_.translator.weights) {
    if (weight.weight != std::floor(weight.weight)) integral_objective = false;
  }
  milp_options.objective_is_integral = integral_objective;

  // Candidate assignment shared by the zero-change fast path and the warm
  // incumbent hint: pinned z at the pin, every other z at its hinted (or
  // current) value, y and δ derived. A component whose slice has objective 0
  // *and* is feasible is provably optimal without a solve — Σ wᵢδᵢ ≥ 0.
  const int n = translation_.model.num_variables();
  std::vector<double> candidate(static_cast<size_t>(n), 0.0);
  std::vector<double> hint;
  std::map<rel::CellRef, double> hinted;
  if (warm_start != nullptr) {
    for (const AtomicUpdate& update : warm_start->updates()) {
      if (update.new_value.is_numeric()) {
        hinted[update.cell] = update.new_value.AsReal();
      }
    }
    hint.assign(static_cast<size_t>(n), 0.0);
  }
  for (size_t i = 0; i < translation_.cells.size(); ++i) {
    auto pin = applied_pins_.find(static_cast<int>(i));
    const double v = translation_.current_values[i];
    const double z = pin != applied_pins_.end() ? pin->second : v;
    const double y = z - v;
    candidate[static_cast<size_t>(translation_.z_vars[i])] = z;
    candidate[static_cast<size_t>(translation_.y_vars[i])] = y;
    candidate[static_cast<size_t>(translation_.delta_vars[i])] =
        std::fabs(y) > 1e-9 ? 1.0 : 0.0;
    if (warm_start != nullptr) {
      auto it = hinted.find(translation_.cells[i]);
      const double hz = it != hinted.end() ? it->second : v;
      const double hy = hz - v;
      hint[static_cast<size_t>(translation_.z_vars[i])] = hz;
      hint[static_cast<size_t>(translation_.y_vars[i])] = hy;
      hint[static_cast<size_t>(translation_.delta_vars[i])] =
          std::fabs(hy) > 1e-9 ? 1.0 : 0.0;
    }
  }
  auto slice = [&](const std::vector<double>& full, int comp) {
    const milp::Component& component = decomposition_.components[comp];
    std::vector<double> local;
    local.reserve(component.vars.size());
    for (int v : component.vars) {
      local.push_back(full[static_cast<size_t>(v)]);
    }
    return local;
  };

  int retries = 0;
  for (;;) {
    std::vector<int> dirty;
    for (size_t c = 0; c < num_comps; ++c) {
      if (components_[c].dirty) dirty.push_back(static_cast<int>(c));
    }
    if (dirty.empty()) break;

    obs::Span attempt_span(run, "repair.attempt");
    obs::Count(run, "repair.attempts");
    std::vector<int> to_solve;
    for (int c : dirty) {
      const milp::Component& component = decomposition_.components[c];
      std::vector<double> local = slice(candidate, c);
      if (milp::EvalTerms(component.model.objective_terms(), local) < 0.5 &&
          milp::IsFeasiblePoint(component.model, local)) {
        milp::MilpResult zero;
        zero.status = milp::MilpResult::SolveStatus::kOptimal;
        zero.objective = 0;
        zero.point = std::move(local);
        zero.has_incumbent = true;
        zero.best_bound = 0;
        // Keep whatever root basis the last real solve captured — it stays a
        // valid warm start for a future re-solve of this component.
        zero.root_basis = std::move(components_[c].result.root_basis);
        components_[c].result = std::move(zero);
      } else {
        to_solve.push_back(c);
      }
    }
    if (!to_solve.empty()) {
      const auto s0 = std::chrono::steady_clock::now();
      obs::Span solve_span(run, "repair.solve");
      std::vector<milp::BatchModel> batch(to_solve.size());
      for (size_t k = 0; k < to_solve.size(); ++k) {
        const int c = to_solve[k];
        batch[k].model = &decomposition_.components[c].model;
        if (warm_start != nullptr) batch[k].initial_point = slice(hint, c);
        batch[k].root_basis = components_[c].result.root_basis;
      }
      std::vector<milp::MilpResult> solved =
          milp::SolveMilpBatch(batch, milp_options);
      solve_span.End();
      for (size_t k = 0; k < to_solve.size(); ++k) {
        const int c = to_solve[k];
        if (solved[k].root_basis == nullptr) {
          solved[k].root_basis = std::move(components_[c].result.root_basis);
        }
        components_[c].result = std::move(solved[k]);
        outcome.stats.milp_wall_seconds += components_[c].result.wall_seconds;
      }
      outcome.stats.solve_seconds += Seconds(s0, std::chrono::steady_clock::now());
    }

    // Big-M analysis per previously-dirty component: infeasibility and a
    // |yᵢ| pressing against its Mᵢ box are both symptoms of a too-small M
    // (engine semantics). Clean components were accepted by this same test
    // when they were last solved.
    std::vector<int> grow;
    for (int c : dirty) {
      components_[c].dirty = false;
      const milp::MilpResult& r = components_[c].result;
      bool needs_grow = milp::IsInfeasibleStatus(r.status);
      if (!needs_grow &&
          r.status == milp::MilpResult::SolveStatus::kOptimal &&
          r.has_incumbent) {
        for (int cell : cells_of_component_[c]) {
          const int local =
              decomposition_.local_of_var[translation_.y_vars[cell]];
          if (std::fabs(r.point[static_cast<size_t>(local)]) >=
              0.999 * cell_big_m_[cell]) {
            needs_grow = true;
            break;
          }
        }
      }
      if (needs_grow) grow.push_back(c);
    }
    if (grow.empty() || retries >= options_.max_bigm_retries) break;
    ++retries;
    obs::Count(run, "repair.bigm_retries");
    for (int c : grow) {
      GrowComponentBigM(c);
      components_[c].dirty = true;
    }
  }

  // Stitch the cached optima exactly like SolveDecomposition: statuses
  // combine with the monolithic precedence, objectives add over disjoint
  // variable sets.
  bool any_unbounded = false;
  bool any_infeasible = false;
  bool any_node_limit = false;
  double objective_sum = decomposition_.rowless_objective;
  for (const ComponentState& cs : components_) {
    switch (cs.result.status) {
      case milp::MilpResult::SolveStatus::kOptimal:
        objective_sum += cs.result.objective;
        break;
      case milp::MilpResult::SolveStatus::kUnbounded:
        any_unbounded = true;
        break;
      case milp::MilpResult::SolveStatus::kInfeasible:
      case milp::MilpResult::SolveStatus::kLpRelaxationInfeasible:
        any_infeasible = true;
        break;
      case milp::MilpResult::SolveStatus::kNodeLimit:
        any_node_limit = true;
        break;
    }
  }

  outcome.stats.num_cells = translation_.cells.size();
  outcome.stats.num_ground_rows = translation_.ground_rows.size();
  outcome.stats.matrix_rows = translation_.matrix_rows;
  outcome.stats.matrix_cols = translation_.matrix_cols;
  outcome.stats.matrix_nnz = translation_.matrix_nnz;
  outcome.stats.matrix_density = translation_.matrix_density;
  outcome.stats.practical_m = translation_.practical_m;
  outcome.stats.theoretical_m_log10 = translation_.theoretical_m_log10;
  outcome.stats.bigm_retries = retries;
  outcome.stats.num_components = decomposition_.num_components();
  outcome.stats.largest_component_vars =
      decomposition_.largest_component_vars;
  obs::Observe(run, "repair.solve_seconds", outcome.stats.solve_seconds);

  if (any_unbounded) {
    return Status::Internal("repair MILP reported unbounded");
  }
  if (any_infeasible) {
    return Status::Infeasible(
        "no repair exists for the database w.r.t. the given constraints" +
        std::string(fixed_values.empty() ? "" : " and operator pins"));
  }
  if (any_node_limit) {
    return Status::FailedPrecondition(
        "MILP node limit reached before proving optimality");
  }

  std::vector<double> point(static_cast<size_t>(n), 0.0);
  for (size_t k = 0; k < decomposition_.rowless_vars.size(); ++k) {
    point[static_cast<size_t>(decomposition_.rowless_vars[k])] =
        decomposition_.rowless_values[k];
  }
  for (size_t c = 0; c < num_comps; ++c) {
    const milp::Component& component = decomposition_.components[c];
    const milp::MilpResult& r = components_[c].result;
    for (size_t l = 0; l < component.vars.size(); ++l) {
      point[static_cast<size_t>(component.vars[l])] = r.point[l];
    }
  }

  DART_ASSIGN_OR_RETURN(Repair repair,
                        internal::ExtractRepair(*db_, translation_, point));
  if (options_.translator.weights.empty() &&
      static_cast<double>(repair.cardinality()) > objective_sum + 0.5) {
    return Status::Internal(
        "extracted repair cardinality exceeds the MILP optimum");
  }
  if (options_.verify_result) {
    obs::Span verify_span(run, "repair.verify");
    // Verify in translated space. The ground rows of S(AC) are exactly the
    // instantiated constraints over the z variables (same 1e-6 absolute
    // tolerance as cons::SatisfiesCompare), so evaluating them at the
    // extracted repaired values decides AC satisfaction without cloning the
    // database and re-running the ConsistencyChecker — the from-scratch
    // engine's verify is O(database) per iteration and dominated incremental
    // iteration time before this.
    std::vector<double> repaired_values = translation_.current_values;
    for (const AtomicUpdate& update : repair.updates()) {
      const auto it = cell_index_.find(update.cell);
      if (it == cell_index_.end()) {
        return Status::Internal("extracted update targets unknown cell " +
                                update.cell.ToString());
      }
      repaired_values[static_cast<size_t>(it->second)] =
          update.new_value.AsReal();
    }
    // Translated without pins, the model's rows are the 3 structural rows
    // per cell followed by exactly the ground rows.
    const size_t ground_begin = 3 * translation_.cells.size();
    const std::vector<milp::Row>& rows = translation_.model.rows();
    if (rows.size() != ground_begin + translation_.ground_rows.size()) {
      return Status::Internal(
          "persisted translation has unexpected row layout");
    }
    for (size_t r = ground_begin; r < rows.size(); ++r) {
      double lhs = 0;
      for (const milp::LinearTerm& term : rows[r].terms) {
        const int cell = cell_of_zvar_[static_cast<size_t>(term.variable)];
        lhs += term.coefficient * repaired_values[static_cast<size_t>(cell)];
      }
      const bool satisfied =
          rows[r].sense == milp::RowSense::kLe   ? lhs <= rows[r].rhs + 1e-6
          : rows[r].sense == milp::RowSense::kGe ? lhs >= rows[r].rhs - 1e-6
                                                 : std::fabs(lhs - rows[r].rhs) <= 1e-6;
      if (!satisfied) {
        return Status::Internal(
            "solver returned a repair that does not satisfy AC — numerical "
            "failure in the MILP layer");
      }
    }
    for (const FixedValue& pin : fixed_values) {
      // ApplyPinDiff already rejected pins on unknown cells.
      const int cell = cell_index_.at(pin.cell);
      if (std::fabs(repaired_values[static_cast<size_t>(cell)] - pin.value) >
          1e-6) {
        return Status::Internal("operator pin not honored by the repair");
      }
    }
  }
  OrderUpdatesForDisplay(translation_, &repair);
  outcome.repair = std::move(repair);
  return outcome;
}

}  // namespace dart::repair
