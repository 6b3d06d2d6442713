#include "repair/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <set>
#include <string>

#include "constraints/eval.h"
#include "constraints/ground.h"
#include "milp/decompose.h"
#include "milp/exhaustive.h"
#include "milp/presolve.h"
#include "obs/context.h"

namespace dart::repair {

namespace {

double Seconds(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

}  // namespace

namespace internal {

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
    const rel::Relation* relation =
        db.FindRelation(translation.cells[i].relation);
    const rel::Domain domain =
        relation->schema().attribute(translation.cells[i].attribute).domain;
    if (domain == rel::Domain::kInt) {
      updates.push_back(AtomicUpdate{
          translation.cells[i], old_value,
          rel::Value(static_cast<int64_t>(std::llround(z)))});
    } else {
      // Continuous values carry simplex roundoff (…999997); snap to a
      // 6-decimal grid — acquired documents hold finite-precision decimals,
      // and the post-solve consistency check (1e-6 tolerance) still guards
      // the result.
      const double snapped = std::round(z * 1e6) / 1e6;
      updates.push_back(
          AtomicUpdate{translation.cells[i], old_value, rel::Value(snapped)});
    }
  }
  return Repair(std::move(updates));
}

double SnapCellValue(const rel::Database& db, const rel::CellRef& cell,
                     double z) {
  const rel::Relation* relation = db.FindRelation(cell.relation);
  const rel::Domain domain =
      relation->schema().attribute(cell.attribute).domain;
  if (domain == rel::Domain::kInt) {
    return static_cast<double>(std::llround(z));
  }
  return std::round(z * 1e6) / 1e6;
}

RetryDecision DecideBigMRetry(const Translation& translation,
                              const AttemptContext& ctx,
                              const milp::MilpResult& solved) {
  RetryDecision out;
  if (ctx.decomposed) {
    const milp::Decomposition& dec = ctx.decomposition;
    out.component_dirty.assign(dec.components.size(), 0);
    bool whole_dirty = dec.constant_row_infeasible || dec.rowless_infeasible;
    for (size_t c = 0; c < ctx.component_results.size(); ++c) {
      if (milp::IsInfeasibleStatus(ctx.component_results[c].status)) {
        out.component_dirty[c] = 1;
        out.grow_m_and_retry = true;
      }
    }
    for (size_t i = 0; i < translation.cells.size(); ++i) {
      int y_var = translation.y_vars[i];
      int comp = -2;  // -2: eliminated by presolve
      double y = 0;
      if (ctx.used_presolve) {
        const int reduced = ctx.presolved.variable_map[y_var];
        if (reduced < 0) {
          y = ctx.presolved.fixed_values[y_var];
        } else {
          y_var = reduced;
          comp = dec.component_of_var[y_var];
        }
      } else {
        comp = dec.component_of_var[y_var];
      }
      if (comp >= 0) {
        const milp::MilpResult& cr = ctx.component_results[comp];
        if (!cr.has_incumbent) continue;
        y = cr.point[dec.local_of_var[y_var]];
      } else if (comp == -1) {
        y = dec.rowless_values[dec.local_of_var[y_var]];
      }
      if (std::fabs(y) >= 0.999 * translation.big_m[i]) {
        out.grow_m_and_retry = true;
        if (comp >= 0) {
          out.component_dirty[comp] = 1;
        } else if (comp == -1) {
          whole_dirty = true;
        }
        // comp == -2: a pin forces this y exactly; retrying with a larger
        // Mᵢ merely re-verifies it, no component needs to re-solve.
      }
    }
    if (whole_dirty) out.grow_m_and_retry = true;
    if (solved.status == milp::MilpResult::SolveStatus::kNodeLimit ||
        solved.status == milp::MilpResult::SolveStatus::kUnbounded) {
      out.grow_m_and_retry = false;  // not big-M symptoms; reported as-is
    }
    out.pin_clean_components = out.grow_m_and_retry && !whole_dirty;
  } else {
    if (milp::IsInfeasibleStatus(solved.status)) {
      out.grow_m_and_retry = true;
    } else if (solved.status == milp::MilpResult::SolveStatus::kOptimal) {
      for (size_t i = 0; i < translation.cells.size(); ++i) {
        const double y = solved.point[translation.y_vars[i]];
        if (std::fabs(y) >= 0.999 * translation.big_m[i]) {
          out.grow_m_and_retry = true;
          break;
        }
      }
    }
  }
  return out;
}

void AppendCleanComponentPins(const rel::Database& db,
                              const Translation& translation,
                              const AttemptContext& ctx,
                              const std::vector<char>& component_dirty,
                              std::set<rel::CellRef>* pinned_cells,
                              std::vector<FixedValue>* retry_pins) {
  for (size_t i = 0; i < translation.cells.size(); ++i) {
    if (pinned_cells->count(translation.cells[i]) > 0) continue;
    int z_var = translation.z_vars[i];
    if (ctx.used_presolve) {
      z_var = ctx.presolved.variable_map[z_var];
      if (z_var < 0) continue;  // already fixed through existing pins
    }
    const int comp = ctx.decomposition.component_of_var[z_var];
    if (comp < 0 || component_dirty[comp]) continue;
    const milp::MilpResult& cr = ctx.component_results[comp];
    if (!cr.has_incumbent) continue;
    const double z = SnapCellValue(
        db, translation.cells[i],
        cr.point[ctx.decomposition.local_of_var[z_var]]);
    retry_pins->push_back(FixedValue{translation.cells[i], z});
    pinned_cells->insert(translation.cells[i]);
  }
}

void RecordAttemptStats(const Translation& translation,
                        const milp::MilpResult& solved,
                        double translate_seconds, double solve_seconds,
                        int attempt, RepairStats* stats,
                        obs::RunContext* run) {
  stats->num_cells = translation.cells.size();
  stats->num_ground_rows = translation.ground_rows.size();
  stats->matrix_rows = translation.matrix_rows;
  stats->matrix_cols = translation.matrix_cols;
  stats->matrix_nnz = translation.matrix_nnz;
  stats->matrix_density = translation.matrix_density;
  stats->practical_m = translation.practical_m;
  stats->theoretical_m_log10 = translation.theoretical_m_log10;
  stats->bigm_retries = attempt;
  stats->translate_seconds += translate_seconds;
  stats->solve_seconds += solve_seconds;
  stats->milp_wall_seconds += solved.wall_seconds;
  stats->num_components = solved.num_components;
  stats->largest_component_vars = solved.largest_component_vars;
  stats->presolve_variables_eliminated = solved.presolve_variables_eliminated;
  stats->presolve_rows_removed = solved.presolve_rows_removed;
  obs::Observe(run, "repair.translate_seconds", translate_seconds);
  obs::Observe(run, "repair.solve_seconds", solve_seconds);
  obs::SetGauge(run, "repair.num_cells",
                static_cast<double>(translation.cells.size()));
  obs::SetGauge(run, "repair.num_ground_rows",
                static_cast<double>(translation.ground_rows.size()));
  obs::SetGauge(run, "repair.matrix_rows",
                static_cast<double>(translation.matrix_rows));
  obs::SetGauge(run, "repair.matrix_cols",
                static_cast<double>(translation.matrix_cols));
  obs::SetGauge(run, "repair.matrix_nnz",
                static_cast<double>(translation.matrix_nnz));
  obs::SetGauge(run, "repair.matrix_density", translation.matrix_density);
  obs::SetGauge(run, "repair.presolve_variables_eliminated",
                solved.presolve_variables_eliminated);
  obs::SetGauge(run, "repair.presolve_rows_removed",
                solved.presolve_rows_removed);
}

Result<Repair> FinalizeAttempt(const rel::Database& db,
                               const cons::GroundProgram& ground,
                               const Translation& translation,
                               const milp::MilpResult& solved,
                               bool weights_empty, bool verify_result,
                               const std::vector<FixedValue>& fixed_values,
                               obs::RunContext* run) {
  switch (solved.status) {
    case milp::MilpResult::SolveStatus::kInfeasible:
    case milp::MilpResult::SolveStatus::kLpRelaxationInfeasible:
      return Status::Infeasible(
          "no repair exists for the database w.r.t. the given constraints" +
          std::string(fixed_values.empty() ? "" : " and operator pins"));
    case milp::MilpResult::SolveStatus::kNodeLimit:
      return Status::FailedPrecondition(
          "MILP node limit reached before proving optimality");
    case milp::MilpResult::SolveStatus::kUnbounded:
      return Status::Internal("repair MILP reported unbounded");
    case milp::MilpResult::SolveStatus::kOptimal:
      break;
  }

  DART_ASSIGN_OR_RETURN(Repair repair,
                        ExtractRepair(db, translation, solved.point));
  // Under the card-minimal objective (no weights), the cardinality must
  // equal the MILP optimum (Sec. 5: the objective value is the number of
  // atomic updates of a card-minimal repair).
  if (weights_empty &&
      static_cast<double>(repair.cardinality()) > solved.objective + 0.5) {
    return Status::Internal(
        "extracted repair cardinality exceeds the MILP optimum");
  }
  if (verify_result) {
    obs::Span verify_span(run, "repair.verify");
    DART_ASSIGN_OR_RETURN(rel::Database repaired, repair.Applied(db));
    // The ground program is repair-invariant (steadiness), so re-evaluating
    // it on ρ(D) is the full consistency check without re-grounding.
    DART_ASSIGN_OR_RETURN(std::vector<cons::Violation> violations,
                          cons::EvaluateGroundProgram(repaired, ground));
    if (!violations.empty()) {
      return Status::Internal(
          "solver returned a repair that does not satisfy AC — numerical "
          "failure in the MILP layer");
    }
    for (const FixedValue& pin : fixed_values) {
      DART_ASSIGN_OR_RETURN(rel::Value v, repaired.ValueAt(pin.cell));
      if (std::fabs(v.AsReal() - pin.value) > 1e-6) {
        return Status::Internal("operator pin not honored by the repair");
      }
    }
  }
  OrderUpdatesForDisplay(translation, &repair);
  return repair;
}

}  // namespace internal

namespace {

/// Presolve (optional), decompose, and solve `model` on one shared pool;
/// lifts the solution back to the full variable space and carries the
/// presolve statistics onto the result.
milp::MilpResult SolveDecomposed(const milp::Model& model,
                                 const milp::MilpOptions& options,
                                 bool use_presolve,
                                 const milp::PresolveOptions& presolve_options,
                                 internal::AttemptContext* ctx) {
  const milp::Model* target = &model;
  milp::MilpOptions opts = options;
  if (use_presolve) {
    ctx->presolved = milp::Presolve(model, presolve_options);
    ctx->used_presolve = true;
    if (ctx->presolved.infeasible) {
      milp::MilpResult result;
      result.status = milp::MilpResult::SolveStatus::kInfeasible;
      result.presolve_variables_eliminated =
          ctx->presolved.variables_eliminated;
      result.presolve_rows_removed = ctx->presolved.rows_removed;
      return result;
    }
    target = &ctx->presolved.reduced;
    if (opts.initial_point.size() ==
        static_cast<size_t>(model.num_variables())) {
      opts.initial_point = ctx->presolved.ProjectPoint(opts.initial_point);
    } else {
      opts.initial_point.clear();
    }
  }
  ctx->decomposition = milp::DecomposeModel(*target);
  ctx->decomposed = true;
  milp::MilpResult result = milp::SolveDecomposition(
      ctx->decomposition, *target, opts, &ctx->component_results);
  if (ctx->used_presolve) {
    if (result.has_incumbent) {
      result.point = ctx->presolved.RestorePoint(result.point);
    }
    result.presolve_variables_eliminated = ctx->presolved.variables_eliminated;
    result.presolve_rows_removed = ctx->presolved.rows_removed;
  }
  return result;
}

}  // namespace

Result<RepairOutcome> RepairEngine::ComputeRepair(
    const rel::Database& db, const cons::ConstraintSet& constraints,
    const std::vector<FixedValue>& fixed_values, const Repair* warm_start,
    const cons::GroundProgram* ground) const {
  RepairOutcome outcome;

  // Observability: search counters are published only into the caller's
  // RunContext (every obs:: call below is null-safe, so no context means no
  // bookkeeping at all). Callers wanting per-computation totals snapshot the
  // registry around this call and read the delta's milp.* counters.
  obs::RunContext* const run =
      options_.run != nullptr ? options_.run : options_.milp.run;
  obs::Span compute_span(run, "repair.compute");

  // Ground once per call (or zero times, when the caller shares one): the
  // consistency fast path, every big-M translation attempt, and the final
  // verification all evaluate the same ground program.
  cons::GroundProgram own_ground;
  if (ground == nullptr) {
    obs::Span ground_span(run, "repair.ground");
    DART_ASSIGN_OR_RETURN(own_ground,
                          cons::GroundConstraintProgram(db, constraints));
    obs::Count(run, "repair.groundings");
    ground = &own_ground;
  }

  // Fast path: already consistent and nothing pinned.
  if (fixed_values.empty()) {
    DART_ASSIGN_OR_RETURN(std::vector<cons::Violation> violations,
                          cons::EvaluateGroundProgram(db, *ground));
    if (violations.empty()) {
      outcome.already_consistent = true;
      return outcome;
    }
  }

  TranslatorOptions translator_options = options_.translator;
  milp::MilpOptions milp_options = options_.milp;
  milp_options.run = run;
  // The card-minimal objective Σδᵢ is integral on every integral point; let
  // the solver round its bounds for pruning. Confidence weights break that
  // property unless they all happen to be integers.
  bool integral_objective = true;
  for (const CellWeight& weight : translator_options.weights) {
    if (weight.weight != std::floor(weight.weight)) integral_objective = false;
  }
  milp_options.objective_is_integral = integral_objective;

  // Pins added by per-component big-M retries: cells of components accepted
  // as optimal-and-unsaturated get pinned to their solved values, so a
  // retry re-solves only the saturated / infeasible blocks (presolve
  // eliminates the pinned ones).
  std::vector<FixedValue> retry_pins;
  std::set<rel::CellRef> pinned_cells;
  for (const FixedValue& pin : fixed_values) pinned_cells.insert(pin.cell);

  for (int attempt = 0; attempt <= options_.max_bigm_retries; ++attempt) {
    obs::Span attempt_span(run, "repair.attempt");
    obs::Count(run, "repair.attempts");
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<FixedValue> pins = fixed_values;
    pins.insert(pins.end(), retry_pins.begin(), retry_pins.end());
    obs::Span translate_span(run, "repair.translate");
    DART_ASSIGN_OR_RETURN(
        Translation translation,
        TranslateGrounded(db, *ground, translator_options, pins));
    translate_span.End();
    const auto t1 = std::chrono::steady_clock::now();

    // Seed the incumbent from a previous iteration's repair, if any: the
    // solver snaps and feasibility-checks the point, so a hint contradicted
    // by new pins is simply discarded.
    milp_options.initial_point.clear();
    if (warm_start != nullptr) {
      std::vector<double> point(
          static_cast<size_t>(translation.model.num_variables()), 0.0);
      std::map<rel::CellRef, double> hinted;
      for (const AtomicUpdate& update : warm_start->updates()) {
        if (update.new_value.is_numeric()) {
          hinted[update.cell] = update.new_value.AsReal();
        }
      }
      for (size_t i = 0; i < translation.cells.size(); ++i) {
        auto it = hinted.find(translation.cells[i]);
        const double z =
            it != hinted.end() ? it->second : translation.current_values[i];
        const double y = z - translation.current_values[i];
        point[static_cast<size_t>(translation.z_vars[i])] = z;
        point[static_cast<size_t>(translation.y_vars[i])] = y;
        point[static_cast<size_t>(translation.delta_vars[i])] =
            std::fabs(y) > 1e-9 ? 1.0 : 0.0;
      }
      milp_options.initial_point = std::move(point);
    }

    // Retry pins hold 6-decimal snapped continuous values (SnapCellValue);
    // folding them through presolve can leave constant-row residuals up to
    // the consistency tolerance (1e-6, SatisfiesCompare) — far above the
    // default presolve tolerance. Relax it to match once pins exist.
    milp::PresolveOptions presolve_options;
    if (!retry_pins.empty()) presolve_options.tol = 1e-6;

    const milp::DecompositionOptions& stages = milp_options.decomposition;
    internal::AttemptContext ctx;
    milp::MilpResult solved;
    {
      obs::Span solve_span(run, "repair.solve");
      if (options_.use_exhaustive_solver) {
        solved = milp::SolveByBinaryEnumeration(
            translation.model, milp::ExhaustiveOptions{22, milp_options});
      } else if (stages.use_components) {
        solved = SolveDecomposed(translation.model, milp_options,
                                 stages.use_presolve, presolve_options, &ctx);
      } else if (stages.use_presolve) {
        solved = milp::SolveMilpWithPresolve(translation.model, milp_options,
                                             presolve_options);
      } else {
        solved = milp::SolveMilp(translation.model, milp_options);
      }
    }
    const auto t2 = std::chrono::steady_clock::now();

    internal::RecordAttemptStats(translation, solved, Seconds(t0, t1),
                                 Seconds(t1, t2), attempt, &outcome.stats,
                                 run);

    // Decide whether (and where) M must grow; accepted components'
    // repaired values can be pinned on the retry (blocks are independent).
    const internal::RetryDecision decision =
        internal::DecideBigMRetry(translation, ctx, solved);

    if (decision.grow_m_and_retry && attempt < options_.max_bigm_retries) {
      obs::Count(run, "repair.bigm_retries");
      if (decision.pin_clean_components) {
        internal::AppendCleanComponentPins(db, translation, ctx,
                                           decision.component_dirty,
                                           &pinned_cells, &retry_pins);
      }
      const double base = translator_options.big_m.fixed_value > 0
                              ? translator_options.big_m.fixed_value
                              : translation.practical_m;
      translator_options.big_m.fixed_value = base * 100.0;
      continue;
    }

    DART_ASSIGN_OR_RETURN(
        Repair repair,
        internal::FinalizeAttempt(db, *ground, translation, solved,
                                  translator_options.weights.empty(),
                                  options_.verify_result, fixed_values, run));
    outcome.repair = std::move(repair);
    return outcome;
  }
  return Status::Internal("unreachable: big-M retry loop exhausted");
}

void OrderUpdatesForDisplay(const Translation& translation, Repair* repair) {
  auto occurrences = [&](const rel::CellRef& cell) {
    const int index = translation.CellIndex(cell);
    return index >= 0 ? translation.occurrence_counts[index] : 0;
  };
  std::stable_sort(repair->updates().begin(), repair->updates().end(),
                   [&](const AtomicUpdate& a, const AtomicUpdate& b) {
                     const int oa = occurrences(a.cell);
                     const int ob = occurrences(b.cell);
                     if (oa != ob) return oa > ob;
                     return a.cell < b.cell;
                   });
}

}  // namespace dart::repair
