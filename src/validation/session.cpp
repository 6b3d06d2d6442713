#include "validation/session.h"

#include <cmath>
#include <map>

#include "repair/incremental.h"
#include "validation/display.h"

namespace dart::validation {

namespace {

/// Fills the progress timings from the trace: the elapsed time of the open
/// `validation.iteration` span and the duration of the latest closed
/// `repair.attempt`. Snapshot() is sorted by id, so the most recent match of
/// each name is found first when scanning from the back — the scan stops as
/// soon as both are resolved instead of walking every span of the session so
/// far (long sessions accumulate thousands).
void FillProgressTimings(const obs::TraceCollector& trace,
                         SessionProgressView* view) {
  const int64_t now_ns = trace.NowNs();
  const std::vector<obs::SpanRecord> spans = trace.Snapshot();
  bool have_iteration = false;
  bool have_attempt = false;
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (!have_iteration && it->name == "validation.iteration" &&
        it->duration_ns < 0) {
      view->iteration_seconds =
          static_cast<double>(now_ns - it->start_ns) * 1e-9;
      have_iteration = true;
    } else if (!have_attempt && it->name == "repair.attempt" &&
               it->duration_ns >= 0) {
      view->attempt_seconds = static_cast<double>(it->duration_ns) * 1e-9;
      have_attempt = true;
    }
    if (have_iteration && have_attempt) break;
  }
}

/// Writes every operator-validated value into `db`. The repair the loop
/// converged on can silently omit a validated cell: ExtractRepair drops
/// |z − v| below a *relative* 1e-6 tolerance, so a rejection whose actual
/// source value differs from the acquired value by less than 1e-6·|v| (a few
/// units at millions-scale magnitudes) yields an empty update for that cell
/// — and the `already_consistent` / empty-repair convergence path used to
/// return the acquired database verbatim. The operator's word is ground
/// truth regardless of solver tolerances; overlay it on every exit path.
Status OverlayValidatedValues(const std::map<rel::CellRef, double>& validated,
                              rel::Database* db) {
  for (const auto& [cell, value] : validated) {
    const rel::Relation* relation = db->FindRelation(cell.relation);
    if (relation == nullptr) {
      return Status::Internal("validated cell references unknown relation " +
                              cell.relation);
    }
    const rel::Domain domain =
        relation->schema().attribute(cell.attribute).domain;
    const rel::Value next =
        domain == rel::Domain::kInt
            ? rel::Value(static_cast<int64_t>(std::llround(value)))
            : rel::Value(value);
    DART_ASSIGN_OR_RETURN(rel::Value current, db->ValueAt(cell));
    if (current != next) {
      DART_RETURN_IF_ERROR(db->UpdateCell(cell, next));
    }
  }
  return Status::Ok();
}

}  // namespace

Result<SessionResult> RunValidationSession(
    const rel::Database& acquired, const cons::ConstraintSet& constraints,
    const SimulatedOperator& op, const SessionOptions& options) {
  // Solver totals (and the progress view's timings) are read back from a
  // RunContext, so the session always has one: the caller's when given,
  // otherwise a private context scoped to this call.
  obs::RunContext local_run;
  obs::RunContext* const run = options.run != nullptr ? options.run
                               : options.engine.run != nullptr
                                   ? options.engine.run
                                   : &local_run;
  obs::Span session_span(run, "validation.session");
  repair::RepairEngineOptions engine_options = options.engine;
  if (engine_options.run == nullptr) engine_options.run = run;
  // The session persists the translation, the component decomposition and
  // per-component optima/bases across iterations, so each re-solve costs
  // only the components the newest pins touched.
  repair::IncrementalRepairSession session(acquired, constraints,
                                           engine_options);
  SessionResult result;
  const obs::MetricsSnapshot session_base = run->metrics().Snapshot();
  // SessionResult's aggregate solver effort is the registry delta over the
  // whole session (every iteration, every big-M retry).
  auto fill_totals = [&result, run, &session_base] {
    const obs::MetricsSnapshot delta =
        run->metrics().Snapshot().DeltaSince(session_base);
    result.total_nodes = delta.Counter("milp.nodes");
    result.total_lp_iterations = delta.Counter("milp.lp_iterations");
  };
  // Cell → validated value. Covers both accepted suggestions and the actual
  // source values supplied on rejection; the operator is never asked about
  // these cells again ("the operator is not requested to validate values
  // which had been already validated in a previous iteration").
  std::map<rel::CellRef, double> validated;
  // The previous iteration's repair warm-starts the next solve (a rejected
  // update makes the hint infeasible against the new pin, and it is then
  // simply discarded by the solver).
  repair::Repair previous_repair;

  for (size_t iteration = 0; iteration < options.max_iterations; ++iteration) {
    obs::Span iteration_span(run, "validation.iteration");
    ++result.iterations;
    obs::Count(run, "validation.iterations");
    const obs::MetricsSnapshot iteration_base = run->metrics().Snapshot();
    std::vector<repair::FixedValue> pins;
    pins.reserve(validated.size());
    for (const auto& [cell, value] : validated) {
      pins.push_back(repair::FixedValue{cell, value});
    }
    const repair::Repair* warm =
        iteration == 0 ? nullptr : &previous_repair;
    DART_ASSIGN_OR_RETURN(repair::RepairOutcome outcome,
                          session.ComputeRepair(pins, warm));

    if (outcome.already_consistent || outcome.repair.empty()) {
      rel::Database repaired = acquired.Clone();
      DART_RETURN_IF_ERROR(OverlayValidatedValues(validated, &repaired));
      result.repaired = std::move(repaired);
      result.converged = true;
      fill_totals();
      return result;
    }
    previous_repair = outcome.repair;

    bool rejection_seen = false;
    bool ran_out_of_batch = false;
    size_t examined_this_round = 0;
    for (const repair::AtomicUpdate& update : outcome.repair.updates()) {
      if (validated.count(update.cell) > 0) continue;  // validated earlier
      if (options.examine_batch > 0 &&
          examined_this_round >= options.examine_batch) {
        ran_out_of_batch = true;
        break;
      }
      DART_ASSIGN_OR_RETURN(Verdict verdict, op.Examine(update));
      ++result.examined_updates;
      ++examined_this_round;
      obs::Count(run, "validation.examined");
      if (verdict.accepted) {
        ++result.accepted_updates;
        obs::Count(run, "validation.accepted");
        validated[update.cell] = update.new_value.AsReal();
      } else {
        ++result.rejected_updates;
        rejection_seen = true;
        obs::Count(run, "validation.rejected");
        validated[update.cell] = verdict.actual_value;
      }
    }

    if (options.progress != nullptr) {
      const obs::MetricsSnapshot delta =
          run->metrics().Snapshot().DeltaSince(iteration_base);
      SessionProgressView view;
      view.iteration = result.iterations;
      view.suggested_updates = outcome.repair.updates().size();
      view.examined = delta.Counter("validation.examined");
      view.accepted = delta.Counter("validation.accepted");
      view.rejected = delta.Counter("validation.rejected");
      FillProgressTimings(run->trace(), &view);
      options.progress->OnSessionProgress(view);
    }

    if (!rejection_seen && !ran_out_of_batch) {
      // Every update is validated (now or earlier): the repair is accepted.
      DART_ASSIGN_OR_RETURN(rel::Database repaired,
                            outcome.repair.Applied(acquired));
      DART_RETURN_IF_ERROR(OverlayValidatedValues(validated, &repaired));
      result.repaired = std::move(repaired);
      result.converged = true;
      fill_totals();
      return result;
    }
  }
  return Status::FailedPrecondition(
      "validation session did not converge within " +
      std::to_string(options.max_iterations) + " iterations");
}

}  // namespace dart::validation
