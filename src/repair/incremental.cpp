#include "repair/incremental.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "constraints/eval.h"
#include "milp/decompose.h"
#include "milp/exhaustive.h"
#include "obs/context.h"
#include "util/task_pool.h"

namespace dart::repair {

namespace {

double Seconds(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// The repair encoded by a MILP solution: every zᵢ whose value differs from
/// vᵢ (beyond a relative 1e-6 tolerance) becomes an atomic update;
/// integer-domain values snap to the nearest integer, continuous ones to a
/// 6-decimal grid.
Result<Repair> ExtractRepair(const rel::Database& db,
                             const Translation& translation,
                             const std::vector<double>& point) {
  std::vector<AtomicUpdate> updates;
  for (size_t i = 0; i < translation.cells.size(); ++i) {
    const double z = point[translation.z_vars[i]];
    const double v = translation.current_values[i];
    if (std::fabs(z - v) <= 1e-6 * std::max(1.0, std::fabs(v))) continue;
    DART_ASSIGN_OR_RETURN(rel::Value old_value,
                          db.ValueAt(translation.cells[i]));
    // Continuous values carry simplex roundoff (…999997); snap to a
    // 6-decimal grid — acquired documents hold finite-precision decimals,
    // and the post-solve consistency check (1e-6 tolerance) still guards
    // the result.
    const bool integer = translation.model.variable(translation.z_vars[i])
                             .type == milp::VarType::kInteger;
    updates.push_back(AtomicUpdate{
        translation.cells[i], old_value,
        integer ? rel::Value(static_cast<int64_t>(std::llround(z)))
                : rel::Value(std::round(z * 1e6) / 1e6)});
  }
  return Repair(std::move(updates));
}

/// Sorts updates for display per the Validation Interface heuristic
/// (Sec. 6.3): updates whose cell occurs in more ground constraints first;
/// ties broken by cell order for determinism.
void OrderUpdatesForDisplay(const rel::Database& db,
                            const Translation& translation, Repair* repair) {
  auto occurrences = [&](const rel::CellRef& cell) {
    const int id = db.MeasureCellId(cell);
    return id >= 0 ? translation.occurrence_counts[static_cast<size_t>(id)]
                   : 0;
  };
  std::stable_sort(repair->updates().begin(), repair->updates().end(),
                   [&](const AtomicUpdate& a, const AtomicUpdate& b) {
                     const int oa = occurrences(a.cell);
                     const int ob = occurrences(b.cell);
                     if (oa != ob) return oa > ob;
                     return a.cell < b.cell;
                   });
}

/// use_components = false: one component holding every variable and row.
milp::Decomposition SingleComponent(const milp::Model& model) {
  milp::Decomposition out;
  const int n = model.num_variables();
  if (n == 0) return out;
  milp::Component component;
  component.model = model;
  component.vars.resize(static_cast<size_t>(n));
  std::iota(component.vars.begin(), component.vars.end(), 0);
  component.rows.resize(model.rows().size());
  std::iota(component.rows.begin(), component.rows.end(), 0);
  out.component_of_var.assign(static_cast<size_t>(n), 0);
  out.local_of_var = component.vars;
  out.largest_component_vars = n;
  out.components.push_back(std::move(component));
  return out;
}

std::string NoRepairMessage(bool pinned) {
  return "no repair exists for the database w.r.t. the given constraints" +
         std::string(pinned ? " and operator pins" : "");
}

}  // namespace

/// One document's persisted state plus the scratch of the current call.
struct IncrementalRepairSession::Document {
  const rel::Database* db = nullptr;
  /// The caller's ground program, or `own_ground` once grounded.
  const cons::GroundProgram* ground = nullptr;
  std::optional<cons::GroundProgram> own_ground;
  TranslatorOptions translator;  ///< session options + document weights.

  bool initialized = false;
  Translation translation;
  milp::Decomposition decomposition;
  /// Last solve of each component: `point` in component-local space,
  /// `root_basis` warm-starts the next re-solve.
  std::vector<milp::MilpResult> results;
  std::vector<char> dirty;  ///< per component.

  /// Per measure-cell id.
  std::vector<int> component_of_cell;
  std::vector<std::vector<int>> cells_of_component;
  /// Current per-cell big-M (grows ×100 on component retries) and current
  /// z-box half-width (same growth), both seeded from the translation.
  std::vector<double> cell_big_m;
  std::vector<double> cell_z_box;
  /// Pins currently folded into the component models, cell id → value.
  std::map<int, double> applied_pins;

  /// How the last call ended for this document: the consistency fast path,
  /// or a repair whose component optima `results` holds.
  bool consistent = false;
  bool repaired = false;

  // Scratch of the current call.
  std::optional<Result<RepairOutcome>> result;
  RepairOutcome outcome;
  std::vector<double> candidate;  ///< current values + pins, full space.
  std::vector<double> hint;       ///< warm start, full space (or empty).
  int retries = 0;

  bool active() const { return !result.has_value(); }

  std::vector<double> Slice(const std::vector<double>& full, int c) const {
    const milp::Component& component = decomposition.components[c];
    std::vector<double> local;
    local.reserve(component.vars.size());
    for (int v : component.vars) local.push_back(full[static_cast<size_t>(v)]);
    return local;
  }

  /// Translates once and seeds the per-cell big-M and z boxes.
  Status Translate() {
    const auto t0 = std::chrono::steady_clock::now();
    DART_ASSIGN_OR_RETURN(translation,
                          TranslateGrounded(*db, *ground, translator));
    cell_big_m = translation.big_m;
    cell_z_box.assign(translation.cells.size(), translation.practical_m);
    outcome.stats.translate_seconds =
        Seconds(t0, std::chrono::steady_clock::now());
    return Status::Ok();
  }

  /// Splits the translated model into components; every one starts dirty.
  void Decompose(bool use_components) {
    decomposition = use_components ? milp::DecomposeModel(translation.model)
                                   : SingleComponent(translation.model);
    const size_t num_comps = decomposition.components.size();
    results.assign(num_comps, milp::MilpResult{});
    dirty.assign(num_comps, 1);
    component_of_cell.assign(translation.cells.size(), -1);
    cells_of_component.assign(num_comps, {});
    for (size_t i = 0; i < translation.cells.size(); ++i) {
      // z, y and δ of one cell always share a component: the def_y row
      // couples z with y and the big-M rows couple y with δ.
      const int comp =
          decomposition.component_of_var[translation.z_vars[i]];
      component_of_cell[i] = comp;
      if (comp >= 0) cells_of_component[comp].push_back(static_cast<int>(i));
    }
    initialized = true;
  }

  /// Folds the pin set into the component models as bound changes,
  /// dirtying only the components whose pins changed.
  Status ApplyPins(const std::vector<FixedValue>& fixed_values,
                   bool require_nonnegative) {
    // Resolve the new pin set first, so errors surface before any component
    // model is touched.
    std::map<int, double> next;
    for (const FixedValue& pin : fixed_values) {
      const int id = db->MeasureCellId(pin.cell);
      if (id < 0) {
        return Status::InvalidArgument("fixed value targets unknown cell " +
                                       pin.cell.ToString());
      }
      if (component_of_cell[id] < 0) {
        return Status::Internal("pinned cell maps to no component");
      }
      // No box check: the bound z ∈ [v, v] is legal for any finite v. A pin
      // outside the component's current boxes surfaces as infeasibility or
      // y saturation, and the in-place ×100 grow then widens the boxes.
      auto [pos, inserted] = next.emplace(id, pin.value);
      if (!inserted && pos->second != pin.value) {
        return Status::Infeasible("contradictory operator pins for cell " +
                                  pin.cell.ToString());
      }
    }

    // Removed pins: restore the cell's current (possibly grown) boxes.
    for (auto it = applied_pins.begin(); it != applied_pins.end();) {
      if (next.count(it->first) == 0) {
        const int cell = it->first;
        it = applied_pins.erase(it);
        SetCellBounds(cell, require_nonnegative);
      } else {
        ++it;
      }
    }
    // Added / changed pins.
    for (const auto& [cell, value] : next) {
      auto it = applied_pins.find(cell);
      if (it != applied_pins.end() && it->second == value) continue;
      applied_pins[cell] = value;
      SetCellBounds(cell, require_nonnegative);
    }
    return Status::Ok();
  }

  /// Writes `cell`'s bounds into its component model and dirties the
  /// component: z ∈ [v, v] for a pin v, else the current z box; y within
  /// the current ±Mᵢ.
  void SetCellBounds(int cell, bool require_nonnegative) {
    const int comp = component_of_cell[cell];
    milp::Model& model = decomposition.components[comp].model;
    const auto& local = decomposition.local_of_var;
    const auto pin = applied_pins.find(cell);
    const double box = cell_z_box[cell];
    if (pin != applied_pins.end()) {
      model.SetVariableBounds(local[translation.z_vars[cell]], pin->second,
                              pin->second);
    } else {
      model.SetVariableBounds(local[translation.z_vars[cell]],
                              require_nonnegative ? 0.0 : -box, box);
    }
    model.SetVariableBounds(local[translation.y_vars[cell]], -cell_big_m[cell],
                            cell_big_m[cell]);
    dirty[comp] = 1;
  }

  /// Candidate assignment for the zero-change test (pinned z at the pin,
  /// every other z at its current value) and the warm-start hint (z at the
  /// hinted value, else current); y and δ derived.
  void BuildPoints(const Repair* warm_start) {
    const size_t n = static_cast<size_t>(translation.model.num_variables());
    candidate.assign(n, 0.0);
    hint.clear();
    if (warm_start != nullptr) hint.assign(n, 0.0);
    auto set = [&](std::vector<double>& point, size_t i, double z) {
      const double y = z - translation.current_values[i];
      point[static_cast<size_t>(translation.z_vars[i])] = z;
      point[static_cast<size_t>(translation.y_vars[i])] = y;
      point[static_cast<size_t>(translation.delta_vars[i])] =
          std::fabs(y) > 1e-9 ? 1.0 : 0.0;
    };
    for (size_t i = 0; i < translation.cells.size(); ++i) {
      const double v = translation.current_values[i];
      auto pin = applied_pins.find(static_cast<int>(i));
      set(candidate, i, pin != applied_pins.end() ? pin->second : v);
      if (warm_start != nullptr) set(hint, i, v);
    }
    if (warm_start == nullptr) return;
    for (const AtomicUpdate& update : warm_start->updates()) {
      const int id = db->MeasureCellId(update.cell);
      if (id >= 0 && update.new_value.is_numeric()) {
        set(hint, static_cast<size_t>(id), update.new_value.AsReal());
      }
    }
  }

  /// A component whose candidate slice has objective 0 *and* is feasible is
  /// provably optimal without a solve (Σ wᵢδᵢ ≥ 0).
  bool TryZeroChange(int c) {
    const milp::Model& model = decomposition.components[c].model;
    std::vector<double> local = Slice(candidate, c);
    if (milp::EvalTerms(model.objective_terms(), local) >= 0.5 ||
        !milp::IsFeasiblePoint(model, local)) {
      return false;
    }
    milp::MilpResult zero;
    zero.status = milp::MilpResult::SolveStatus::kOptimal;
    zero.point = std::move(local);
    zero.has_incumbent = true;
    // Keep whatever root basis the last real solve captured — it stays a
    // valid warm start for a future re-solve of this component.
    zero.root_basis = std::move(results[c].root_basis);
    results[c] = std::move(zero);
    return true;
  }

  /// Infeasibility and a |yᵢ| pressing against its Mᵢ box are both symptoms
  /// of a too-small M.
  bool NeedsBigMGrowth(int c) const {
    const milp::MilpResult& r = results[c];
    if (milp::IsInfeasibleStatus(r.status)) return true;
    if (r.status != milp::MilpResult::SolveStatus::kOptimal ||
        !r.has_incumbent) {
      return false;
    }
    for (int cell : cells_of_component[c]) {
      const int local = decomposition.local_of_var[translation.y_vars[cell]];
      if (std::fabs(r.point[static_cast<size_t>(local)]) >=
          0.999 * cell_big_m[cell]) {
        return true;
      }
    }
    return false;
  }

  /// Enlarges component `c`'s big-M ×100 in place: the δ coefficients of
  /// the big-M rows, the y boxes, and the z boxes of unpinned cells.
  void GrowBigM(int c, bool require_nonnegative) {
    milp::Model& model = decomposition.components[c].model;
    for (int cell : cells_of_component[c]) {
      // δ occurs exactly in the cell's two big-M rows with coefficient −Mᵢ;
      // scaling by 100 is the model the translator would rebuild with M ×100.
      model.ScaleVarRowCoefficients(
          decomposition.local_of_var[translation.delta_vars[cell]], 100.0);
      cell_big_m[cell] *= 100.0;
      cell_z_box[cell] *= 100.0;
      SetCellBounds(cell, require_nonnegative);
    }
    dirty[c] = 1;
  }

  /// The one verifier: the repaired cell values must satisfy every ground
  /// row (the full ρ(D) ⊨ AC check by steadiness, by the row evaluator
  /// detection uses, without cloning the database) and every pin.
  Status Verify(const Repair& repair,
                const std::vector<FixedValue>& fixed_values) const {
    std::vector<double> values = translation.current_values;
    for (const AtomicUpdate& update : repair.updates()) {
      values[static_cast<size_t>(db->MeasureCellId(update.cell))] =
          update.new_value.AsReal();
    }
    DART_ASSIGN_OR_RETURN(std::vector<cons::Violation> violations,
                          cons::EvaluateGroundRows(*ground, values));
    if (!violations.empty()) {
      return Status::Internal(
          "solver returned a repair that does not satisfy AC — numerical "
          "failure in the MILP layer");
    }
    for (const FixedValue& pin : fixed_values) {
      const double value =
          values[static_cast<size_t>(db->MeasureCellId(pin.cell))];
      if (std::fabs(value - pin.value) > 1e-6) {
        return Status::Internal("operator pin not honored by the repair");
      }
    }
    return Status::Ok();
  }

  /// Stitches the component optima, extracts, checks and orders the repair.
  Result<Repair> Finish(const std::vector<FixedValue>& fixed_values,
                        bool verify_result, obs::RunContext* run) const {
    const milp::MilpResult stitched = milp::StitchDecomposition(
        decomposition, translation.model, results);
    switch (stitched.status) {
      case milp::MilpResult::SolveStatus::kInfeasible:
      case milp::MilpResult::SolveStatus::kLpRelaxationInfeasible:
        return Status::Infeasible(NoRepairMessage(!fixed_values.empty()));
      case milp::MilpResult::SolveStatus::kNodeLimit:
        return Status::FailedPrecondition(
            "MILP node limit reached before proving optimality");
      case milp::MilpResult::SolveStatus::kUnbounded:
        return Status::Internal("repair MILP reported unbounded");
      case milp::MilpResult::SolveStatus::kOptimal:
        break;
    }
    DART_ASSIGN_OR_RETURN(Repair repair,
                          ExtractRepair(*db, translation, stitched.point));
    // Under the card-minimal objective (no weights), the cardinality must
    // equal the MILP optimum (Sec. 5: the objective value is the number of
    // atomic updates of a card-minimal repair).
    if (translator.weights.empty() &&
        static_cast<double>(repair.cardinality()) > stitched.objective + 0.5) {
      return Status::Internal(
          "extracted repair cardinality exceeds the MILP optimum");
    }
    if (verify_result) {
      obs::Span verify_span(run, "repair.verify");
      DART_RETURN_IF_ERROR(Verify(repair, fixed_values));
    }
    OrderUpdatesForDisplay(*db, translation, &repair);
    return repair;
  }

  void FillStats(RepairStats* stats) const {
    stats->num_cells = translation.cells.size();
    stats->num_ground_rows = translation.num_ground_rows;
    stats->matrix_rows = translation.matrix_rows;
    stats->matrix_cols = translation.matrix_cols;
    stats->matrix_nnz = translation.matrix_nnz;
    stats->matrix_density = translation.matrix_density;
    stats->practical_m = translation.practical_m;
    stats->theoretical_m_log10 = translation.theoretical_m_log10;
    stats->bigm_retries = retries;
    stats->num_components = decomposition.num_components();
    stats->largest_component_vars = decomposition.largest_component_vars;
  }
};

IncrementalRepairSession::IncrementalRepairSession(
    const rel::Database& db, const cons::ConstraintSet& constraints,
    RepairEngineOptions options)
    : IncrementalRepairSession({SessionDocument{&db, nullptr, {}}},
                               constraints, std::move(options)) {}

IncrementalRepairSession::IncrementalRepairSession(
    std::vector<SessionDocument> documents,
    const cons::ConstraintSet& constraints, RepairEngineOptions options)
    : constraints_(&constraints), options_(std::move(options)) {
  for (SessionDocument& source : documents) {
    auto doc = std::make_unique<Document>();
    doc->db = source.db;
    doc->ground = source.ground;
    doc->translator = options_.translator;
    doc->translator.weights.insert(doc->translator.weights.end(),
                                   source.weights.begin(),
                                   source.weights.end());
    for (const CellWeight& weight : doc->translator.weights) {
      if (weight.weight != std::floor(weight.weight)) {
        integral_objective_ = false;
      }
    }
    documents_.push_back(std::move(doc));
  }
}

IncrementalRepairSession::~IncrementalRepairSession() = default;

bool IncrementalRepairSession::initialized() const {
  return std::all_of(documents_.begin(), documents_.end(),
                     [](const auto& doc) { return doc->initialized; });
}

int IncrementalRepairSession::num_components() const {
  int total = 0;
  for (const auto& doc : documents_) {
    if (doc->initialized) total += doc->decomposition.num_components();
  }
  return total;
}

Result<RepairOutcome> IncrementalRepairSession::ComputeRepair(
    const std::vector<FixedValue>& fixed_values, const Repair* warm_start) {
  DART_CHECK_MSG(documents_.size() == 1,
                 "ComputeRepair needs a one-document session");
  return std::move(ComputeRepairs({fixed_values}, {warm_start})[0]);
}

std::vector<Result<RepairOutcome>> IncrementalRepairSession::ComputeRepairs(
    const std::vector<std::vector<FixedValue>>& fixed_values,
    const std::vector<const Repair*>& warm_starts, std::string_view span) {
  const size_t num_docs = documents_.size();
  DART_CHECK(fixed_values.empty() || fixed_values.size() == num_docs);
  DART_CHECK(warm_starts.empty() || warm_starts.size() == num_docs);
  static const std::vector<FixedValue> kNoPins;
  auto pins_of = [&](size_t d) -> const std::vector<FixedValue>& {
    return fixed_values.empty() ? kNoPins : fixed_values[d];
  };
  obs::RunContext* const run =
      options_.run != nullptr ? options_.run : options_.milp.run;
  obs::Span root_span(span.empty() ? nullptr : run, span);
  const bool require_nonnegative = options_.translator.require_nonnegative;

  // Pin vetting, grounding and the consistency fast path, per document.
  std::vector<size_t> fresh;
  for (size_t d = 0; d < num_docs; ++d) {
    Document& doc = *documents_[d];
    doc.result.reset();
    doc.consistent = doc.repaired = false;
    doc.outcome = RepairOutcome{};
    doc.retries = 0;
    for (const FixedValue& pin : pins_of(d)) {
      if (!std::isfinite(pin.value)) {
        doc.result = Status::InvalidArgument(
            "fixed value for cell " + pin.cell.ToString() + " is not finite");
        break;
      }
    }
    if (!doc.active()) continue;
    if (doc.ground == nullptr) {
      obs::Span ground_span(run, "repair.ground");
      Result<cons::GroundProgram> ground =
          cons::GroundConstraintProgram(*doc.db, *constraints_);
      if (!ground.ok()) {
        doc.result = ground.status();
        continue;
      }
      obs::Count(run, "repair.groundings");
      doc.own_ground = std::move(ground).value();
      doc.ground = &*doc.own_ground;
    }
    if (pins_of(d).empty()) {
      Result<std::vector<cons::Violation>> violations =
          cons::EvaluateGroundProgram(*doc.db, *doc.ground);
      if (!violations.ok()) {
        doc.result = violations.status();
        continue;
      }
      if (violations->empty()) {
        doc.consistent = true;
        doc.outcome.already_consistent = true;
        doc.result = std::move(doc.outcome);
        continue;
      }
    }
    if (doc.initialized) {
      obs::Count(run, "repair.incremental.translate_skipped");
    } else {
      fresh.push_back(d);
    }
  }

  // Translate and decompose each document once, fanned out by ParallelFor
  // (each task writes only its own document).
  const int num_threads = std::max(1, options_.milp.search.num_threads);
  if (!fresh.empty()) {
    {
      obs::Span translate_span(run, "repair.translate");
      util::ParallelFor(num_threads, fresh, [&](size_t d) {
        Document& doc = *documents_[d];
        Status translated = doc.Translate();
        if (!translated.ok()) doc.result = std::move(translated);
      });
    }
    {
      obs::Span decompose_span(run, "repair.decompose");
      const bool use_components =
          options_.milp.decomposition.use_components;
      util::ParallelFor(num_threads, fresh, [&](size_t d) {
        Document& doc = *documents_[d];
        if (doc.active()) doc.Decompose(use_components);
      });
    }
    for (size_t d : fresh) {
      const Document& doc = *documents_[d];
      if (!doc.active()) continue;
      const Translation& t = doc.translation;
      obs::Observe(run, "repair.translate_seconds",
                   doc.outcome.stats.translate_seconds);
      obs::SetGauge(run, "repair.num_cells",
                    static_cast<double>(t.cells.size()));
      obs::SetGauge(run, "repair.num_ground_rows",
                    static_cast<double>(t.num_ground_rows));
      obs::SetGauge(run, "repair.matrix_rows", t.matrix_rows);
      obs::SetGauge(run, "repair.matrix_cols", t.matrix_cols);
      obs::SetGauge(run, "repair.matrix_nnz",
                    static_cast<double>(t.matrix_nnz));
      obs::SetGauge(run, "repair.matrix_density", t.matrix_density);
      obs::SetGauge(run, "milp.components",
                    doc.decomposition.num_components());
      obs::SetGauge(run, "milp.largest_component_vars",
                    doc.decomposition.largest_component_vars);
    }
  }

  // Pins as bounds; dirty/clean accounting; candidate and hint points.
  std::vector<Document*> active;
  last_dirty_components_ = 0;
  last_clean_reused_ = 0;
  for (size_t d = 0; d < num_docs; ++d) {
    Document& doc = *documents_[d];
    if (!doc.active()) continue;
    Status pinned = doc.ApplyPins(pins_of(d), require_nonnegative);
    if (!pinned.ok()) {
      doc.result = std::move(pinned);
      continue;
    }
    const int dirty = static_cast<int>(
        std::count(doc.dirty.begin(), doc.dirty.end(), 1));
    last_dirty_components_ += dirty;
    last_clean_reused_ += static_cast<int>(doc.dirty.size()) - dirty;
    doc.BuildPoints(warm_starts.empty() ? nullptr : warm_starts[d]);
    active.push_back(&doc);
  }
  obs::Count(run, "repair.incremental.dirty_components",
             last_dirty_components_);
  obs::Count(run, "repair.incremental.clean_reused", last_clean_reused_);

  milp::MilpOptions milp_options = options_.milp;
  milp_options.run = run;
  milp_options.initial_point.clear();
  milp_options.objective_is_integral = integral_objective_;

  // Solve rounds: every dirty component of every document in one batch,
  // then grow M in place where a component shows big-M symptoms.
  struct Slot {
    Document* doc;
    int comp;
  };
  for (;;) {
    std::vector<Slot> dirty;
    for (Document* doc : active) {
      for (size_t c = 0; c < doc->dirty.size(); ++c) {
        if (doc->dirty[c]) dirty.push_back(Slot{doc, static_cast<int>(c)});
      }
    }
    if (dirty.empty()) break;

    obs::Span attempt_span(run, "repair.attempt");
    obs::Count(run, "repair.attempts");
    std::vector<Slot> to_solve;
    for (const Slot& slot : dirty) {
      if (!slot.doc->TryZeroChange(slot.comp)) to_solve.push_back(slot);
    }
    if (!to_solve.empty()) {
      const auto s0 = std::chrono::steady_clock::now();
      obs::Span solve_span(run, "repair.solve");
      std::vector<milp::MilpResult> solved;
      if (options_.use_exhaustive_solver) {
        for (const Slot& slot : to_solve) {
          solved.push_back(milp::SolveByBinaryEnumeration(
              slot.doc->decomposition.components[slot.comp].model,
              milp::ExhaustiveOptions{22, milp_options}));
        }
      } else {
        std::vector<milp::BatchModel> batch(to_solve.size());
        for (size_t k = 0; k < to_solve.size(); ++k) {
          const Slot& slot = to_solve[k];
          batch[k].model = &slot.doc->decomposition.components[slot.comp].model;
          if (!slot.doc->hint.empty()) {
            batch[k].initial_point = slot.doc->Slice(slot.doc->hint, slot.comp);
          }
          batch[k].root_basis = slot.doc->results[slot.comp].root_basis;
        }
        solved = milp::SolveMilpBatch(batch, milp_options);
      }
      solve_span.End();
      const double wall = Seconds(s0, std::chrono::steady_clock::now());
      for (size_t k = 0; k < to_solve.size(); ++k) {
        Document& doc = *to_solve[k].doc;
        milp::MilpResult& result = doc.results[to_solve[k].comp];
        if (solved[k].root_basis == nullptr) {
          solved[k].root_basis = std::move(result.root_basis);
        }
        result = std::move(solved[k]);
        doc.outcome.stats.milp_wall_seconds += result.wall_seconds;
      }
      // Every document in the round records the round's shared wall.
      for (Document* doc : active) {
        if (std::any_of(to_solve.begin(), to_solve.end(),
                        [&](const Slot& s) { return s.doc == doc; })) {
          doc->outcome.stats.solve_seconds += wall;
        }
      }
    }

    // Big-M analysis of this round's components; clean components were
    // accepted by the same test when they were last solved.
    std::vector<Slot> grow;
    for (const Slot& slot : dirty) {
      slot.doc->dirty[slot.comp] = 0;
      if (slot.doc->NeedsBigMGrowth(slot.comp)) grow.push_back(slot);
    }
    for (Document* doc : active) {
      if (doc->retries >= options_.max_bigm_retries) continue;
      bool grew = false;
      for (const Slot& slot : grow) {
        if (slot.doc != doc) continue;
        doc->GrowBigM(slot.comp, require_nonnegative);
        grew = true;
      }
      if (grew) {
        ++doc->retries;
        obs::Count(run, "repair.bigm_retries");
      }
    }
  }

  std::vector<Result<RepairOutcome>> out;
  out.reserve(num_docs);
  for (size_t d = 0; d < num_docs; ++d) {
    Document& doc = *documents_[d];
    if (doc.active()) {
      doc.FillStats(&doc.outcome.stats);
      obs::Observe(run, "repair.solve_seconds",
                   doc.outcome.stats.solve_seconds);
      Result<Repair> repair =
          doc.Finish(pins_of(d), options_.verify_result, run);
      if (repair.ok()) {
        doc.repaired = true;
        doc.outcome.repair = std::move(repair).value();
        doc.result = std::move(doc.outcome);
      } else {
        doc.result = repair.status();
      }
    }
    out.push_back(std::move(*doc.result));
  }
  return out;
}

Result<std::vector<FormRange>> IncrementalRepairSession::RangeForms(
    const std::vector<CellForm>& forms, size_t document) {
  DART_CHECK(document < documents_.size());
  const Document& doc = *documents_[document];
  if (!doc.consistent && !doc.repaired) {
    return Status::FailedPrecondition(
        "RangeForms needs the last call to have repaired the document");
  }
  // Split each form by component. On a consistent document, and on a
  // component with k*_c = 0 (no δ set at its optimum), the only optimal
  // assignment is the one at hand, so that part of the form is a point;
  // every other part becomes a probe.
  struct Probe {
    size_t form;
    int comp;
    std::vector<milp::LinearTerm> terms;  ///< component-local.
  };
  std::vector<Probe> probes;
  std::vector<FormRange> ranges;
  const auto& local_of_var = doc.decomposition.local_of_var;
  DART_ASSIGN_OR_RETURN(const std::vector<double> values,
                        doc.db->MeasureValues());
  for (size_t f = 0; f < forms.size(); ++f) {
    double point_part = forms[f].constant;
    std::map<int, std::vector<milp::LinearTerm>> by_component;
    for (const auto& [id, coeff] : forms[f].terms) {
      if (id < 0 || static_cast<size_t>(id) >= values.size()) {
        return Status::InvalidArgument("form references unknown cell id " +
                                       std::to_string(id));
      }
      if (doc.consistent) {
        point_part += coeff * values[id];
        continue;
      }
      by_component[doc.component_of_cell[id]].push_back(
          {local_of_var[doc.translation.z_vars[id]], coeff});
    }
    for (auto& [comp, terms] : by_component) {
      const std::vector<double>& point = doc.results[comp].point;
      if (std::any_of(doc.cells_of_component[comp].begin(),
                      doc.cells_of_component[comp].end(), [&](int cell) {
                        return point[static_cast<size_t>(local_of_var
                                   [doc.translation.delta_vars[cell]])] > 0.5;
                      })) {
        probes.push_back(Probe{f, comp, std::move(terms)});
      } else {
        point_part += milp::EvalTerms(terms, point);
      }
    }
    ranges.push_back({point_part, point_part});
  }
  if (probes.empty()) return ranges;

  // A min and a max clone of each probed component, capped at k*_c and
  // seeded with the repair optimum (feasible under the cap).
  std::vector<milp::Model> models;
  models.reserve(2 * probes.size());
  std::vector<milp::BatchModel> batch;
  for (const Probe& probe : probes) {
    const milp::Model& base = doc.decomposition.components[probe.comp].model;
    const milp::MilpResult& optimum = doc.results[probe.comp];
    for (const milp::ObjectiveSense sense :
         {milp::ObjectiveSense::kMinimize, milp::ObjectiveSense::kMaximize}) {
      milp::Model& model = models.emplace_back(base);
      model.AddRow("opt_cap", base.objective_terms(), milp::RowSense::kLe,
                   integral_objective_ ? std::round(optimum.objective)
                                       : optimum.objective);
      model.SetObjective(probe.terms, 0, sense);
      batch.push_back(milp::BatchModel{&model, optimum.point, nullptr});
    }
  }
  obs::RunContext* const run =
      options_.run != nullptr ? options_.run : options_.milp.run;
  milp::MilpOptions milp_options = options_.milp;
  milp_options.run = run;
  milp_options.objective_is_integral = false;
  // Branch on the δs first: once the changed cells are fixed, the rest of
  // a capped component is nearly an LP.
  milp_options.search.branch_rule = milp::BranchRule::kBinaryFirst;
  obs::Span probe_span(run, "repair.probe");
  const std::vector<milp::MilpResult> solved =
      milp::SolveMilpBatch(batch, milp_options);
  probe_span.End();
  for (size_t p = 0; p < probes.size(); ++p) {
    const milp::MilpResult& lo = solved[2 * p];
    const milp::MilpResult& hi = solved[2 * p + 1];
    if (lo.status != milp::MilpResult::SolveStatus::kOptimal ||
        hi.status != milp::MilpResult::SolveStatus::kOptimal) {
      return Status::FailedPrecondition(
          "a probe of a capped component did not reach optimality");
    }
    ranges[probes[p].form].min += lo.objective;
    ranges[probes[p].form].max += hi.objective;
  }
  return ranges;
}

}  // namespace dart::repair
