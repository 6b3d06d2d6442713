#include "stages.h"

#include <algorithm>
#include <cstdio>

#include "inputs.h"
#include "milp/decompose.h"
#include "milp/presolve.h"
#include "obs/context.h"
#include "repair/engine.h"
#include "repair/translator.h"
#include "validation/operator.h"
#include "validation/session.h"

namespace perfbench {

using dart::cons::GroundProgram;
using dart::rel::Database;

bool SatisfiesGround(const Database& repaired, const GroundProgram& ground) {
  auto violations = dart::cons::EvaluateGroundProgram(repaired, ground);
  return violations.ok() && violations->empty();
}

bool CheckProcessOutcome(const dart::core::ProcessOutcome& outcome,
                         const GroundProgram& ground, size_t errors) {
  return outcome.repair.repair.cardinality() <= errors &&
         SatisfiesGround(outcome.repaired, ground);
}

namespace {

bool SameDatabase(const Database& a, const Database& b) {
  auto differences = a.CountDifferences(b);
  return differences.ok() && *differences == 0;
}

}  // namespace

bool SameOutcome(const dart::core::ProcessOutcome& a,
                 const dart::core::ProcessOutcome& b) {
  return SameDatabase(a.repaired, b.repaired) &&
         a.repair.repair.cardinality() == b.repair.repair.cardinality() &&
         a.violations.size() == b.violations.size();
}

bool EndsOnTruth(const dart::validation::SessionResult& session,
                 const BudgetDoc& doc, const GroundProgram& ground) {
  if (!session.converged || !SatisfiesGround(session.repaired, ground)) {
    return false;
  }
  Database kept_errors = doc.truth.Clone();
  bool any_kept = false;
  for (const dart::rel::CellRef& cell : doc.truth.MeasureCells()) {
    auto final_value = session.repaired.ValueAt(cell);
    auto true_value = doc.truth.ValueAt(cell);
    auto acquired_value = doc.acquired.ValueAt(cell);
    if (!final_value.ok() || !true_value.ok() || !acquired_value.ok()) {
      return false;
    }
    if (*final_value == *true_value) continue;
    if (!(*final_value == *acquired_value)) return false;
    if (!kept_errors.UpdateCell(cell, *acquired_value).ok()) return false;
    any_kept = true;
  }
  return !any_kept || SatisfiesGround(kept_errors, ground);
}

double OperatorEffort(const dart::core::DartPipeline& pipeline,
                      const std::vector<BudgetDoc>& pool,
                      const std::vector<GroundProgram>& grounds,
                      WorkloadResult* result) {
  const Clock::time_point start = Clock::now();
  size_t examined = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    const dart::validation::SimulatedOperator op(&pool[i].truth);
    auto session = pipeline.ProcessSupervised(pool[i].html, op);
    ++result->attempted;
    if (!session.ok() || !EndsOnTruth(*session, pool[i], grounds[i])) {
      ++result->failed;
      continue;
    }
    examined += session->examined_updates;
  }
  const double mean =
      pool.empty() ? 0.0
                   : static_cast<double>(examined) /
                         static_cast<double>(pool.size());
  char line[128];
  std::snprintf(line, sizeof(line),
                "operator effort: %zu sessions, %.3f examined per session, "
                "%.2f s (untimed)",
                pool.size(), mean, SecondsSince(start));
  Log(line);
  return mean;
}

GroundProgram MustGround(const Database& db,
                         const dart::cons::ConstraintSet& set) {
  auto ground = dart::cons::GroundConstraintProgram(db, set);
  DART_CHECK_MSG(ground.ok(), ground.status().ToString());
  return std::move(ground).value();
}

bool ReplayRepair(const Database& db,
                  const dart::cons::ConstraintSet& constraints,
                  const GroundProgram& ground, Tracer* tracer, int64_t parent,
                  int64_t request, LayerCounts* counts) {
  // The engine publishes its stage spans and the solver's search counters
  // only into an attached RunContext; they are read back below.
  dart::obs::RunContext run;
  dart::repair::RepairEngineOptions engine_options =
      SerialPipelineOptions().engine;
  engine_options.run = &run;
  Tracer::Span repair_span(tracer, "repair", parent, request);
  const dart::repair::RepairEngine engine(engine_options);
  auto outcome = engine.ComputeRepair(db, constraints, {}, nullptr, &ground);
  repair_span.End();
  if (!outcome.ok()) return false;
  ++counts->repairs;
  counts->bigm_retries += outcome->stats.bigm_retries;
  if (outcome->already_consistent) return true;

  // One repair.translate and one repair.solve span per big-M attempt. The
  // library's trace epoch is `run`'s creation, just before the call.
  int64_t first_solve = 0;
  for (const dart::obs::SpanRecord& span : run.trace().Snapshot()) {
    if (span.duration_ns < 0) continue;
    const char* name = span.name == "repair.translate" ? "translate"
                       : span.name == "repair.solve"   ? "solve"
                                                       : nullptr;
    if (name == nullptr) continue;
    const int64_t id = tracer->Record(
        name, repair_span.id(), request,
        repair_span.start_s() + static_cast<double>(span.start_ns) * 1e-9,
        static_cast<double>(span.duration_ns) * 1e-9);
    if (first_solve == 0 && span.name == "repair.solve") first_solve = id;
  }
  const dart::obs::MetricsSnapshot metrics = run.metrics().Snapshot();
  ++counts->solves;
  counts->milp_nodes += metrics.Counter("milp.nodes");
  counts->milp_lp_iterations += metrics.Counter("milp.lp_iterations");
  counts->components += outcome->stats.num_components;
  counts->largest_component_vars += outcome->stats.largest_component_vars;

  // The library has no span for presolve and decomposition, which run
  // inside repair.solve. Replay them as the first attempt runs them, on its
  // translation, under "decompose" with the first solve as parent.
  const dart::milp::DecompositionOptions& stages =
      engine_options.milp.decomposition;
  if (first_solve == 0 || engine_options.use_exhaustive_solver ||
      !stages.use_components) {
    return true;
  }
  auto translation =
      dart::repair::TranslateGrounded(db, ground, engine_options.translator);
  if (!translation.ok()) return false;
  Tracer::Span decompose_span(tracer, "decompose", first_solve, request);
  if (stages.use_presolve) {
    const dart::milp::PresolveResult presolved =
        dart::milp::Presolve(translation->model);
    if (!presolved.infeasible) dart::milp::DecomposeModel(presolved.reduced);
  } else {
    dart::milp::DecomposeModel(translation->model);
  }
  decompose_span.End();
  return true;
}

bool ReplaySubmit(const dart::core::DartPipeline& pipeline,
                  const std::string& html, Tracer* tracer, int64_t parent,
                  int64_t request, LayerCounts* counts) {
  Tracer::Span acquire_span(tracer, "acquire", parent, request);
  auto acquired = pipeline.Acquire(html);
  acquire_span.End();
  if (!acquired.ok()) return false;
  const Database& db = acquired->database;

  Tracer::Span ground_span(tracer, "ground", parent, request);
  auto ground = dart::cons::GroundConstraintProgram(db, pipeline.constraints());
  ground_span.End();
  if (!ground.ok()) return false;
  ++counts->ground_docs;
  counts->ground_rows += static_cast<int64_t>(ground->rows.size());

  Tracer::Span detect_span(tracer, "detect", parent, request);
  auto violations = dart::cons::EvaluateGroundProgram(db, *ground);
  detect_span.End();
  return violations.ok() &&
         ReplayRepair(db, pipeline.constraints(), *ground, tracer, parent,
                      request, counts);
}

bool ReplaySession(const dart::core::DartPipeline& pipeline,
                   const Database& acquired, const Database& truth,
                   Tracer* tracer, int64_t parent, int64_t request,
                   LayerCounts* counts) {
  const dart::validation::SimulatedOperator op(&truth);
  dart::obs::RunContext run;
  dart::validation::SessionOptions session_options;
  session_options.engine = SerialPipelineOptions().engine;
  session_options.run = &run;
  Tracer::Span session_span(tracer, "session", parent, request);
  auto session = dart::validation::RunValidationSession(
      acquired, pipeline.constraints(), op, session_options);
  session_span.End();
  if (!session.ok() || !session->converged) return false;

  ++counts->sessions;
  counts->session_iterations += static_cast<int64_t>(session->iterations);
  counts->session_nodes += session->total_nodes;
  counts->session_lp_iterations += session->total_lp_iterations;
  const dart::obs::MetricsSnapshot metrics = run.metrics().Snapshot();
  counts->dirty_components +=
      metrics.Counter("repair.incremental.dirty_components");
  counts->clean_reused += metrics.Counter("repair.incremental.clean_reused");
  for (const dart::obs::SpanRecord& span : run.trace().Snapshot()) {
    if (span.name != "repair.incremental" || span.duration_ns < 0) continue;
    // The library's trace epoch is `run`'s creation, just before the session.
    tracer->Record("incremental", session_span.id(), request,
                   session_span.start_s() +
                       static_cast<double>(span.start_ns) * 1e-9,
                   static_cast<double>(span.duration_ns) * 1e-9);
  }
  return true;
}

dart::repair::CqaOptions SerialCqaOptions() {
  dart::repair::CqaOptions options;
  options.milp.search.num_threads = 1;
  return options;
}

bool TraceCqa(const Database& db, const dart::cons::ConstraintSet& constraints,
              size_t expected_cardinality, Tracer* tracer, int64_t request,
              LayerCounts* counts) {
  Tracer::Span span(tracer, "cqa", 0, request);
  auto cqa = dart::repair::ComputeConsistentIntervals(db, constraints,
                                                      SerialCqaOptions());
  span.End();
  if (!cqa.ok()) return false;
  ++counts->cqa_docs;
  counts->cqa_solves += cqa->milp_solves;
  counts->cqa_nodes += cqa->total_nodes;
  return cqa->min_repair_cardinality == expected_cardinality &&
         !cqa->intervals.empty();
}

namespace {

double PerSpanMs(const Tracer& tracer, const std::string& name, bool self) {
  for (const LayerTotals& layer : tracer.Totals()) {
    if (layer.name != name || layer.spans == 0) continue;
    return (self ? layer.self_s : layer.total_s) * 1e3 /
           static_cast<double>(layer.spans);
  }
  return 0;
}

double Ratio(int64_t numerator, int64_t denominator) {
  return denominator == 0 ? 0.0
                          : static_cast<double>(numerator) /
                                static_cast<double>(denominator);
}

}  // namespace

std::vector<Metric> PerLayerMetrics(const Tracer& tracer,
                                    const LayerCounts& counts,
                                    const LayerExtras& extras) {
  // Solver work per request that ran the solver: a whole session for a
  // supervised request, one replayed ComputeRepair otherwise.
  const int64_t nodes = counts.milp_nodes + counts.session_nodes;
  const int64_t lp_iterations =
      counts.milp_lp_iterations + counts.session_lp_iterations;
  const int64_t solver_docs = counts.solves + counts.sessions;
  double batch_ms = 0;
  for (const LayerTotals& layer : tracer.Totals()) {
    if (layer.name == "batch" && counts.batch_docs > 0) {
      batch_ms = layer.total_s * 1e3 / static_cast<double>(counts.batch_docs);
    }
  }
  return {
      {"acquire.ms_per_doc", PerSpanMs(tracer, "acquire", false), "ms"},
      {"reconstruct.ms_per_doc", PerSpanMs(tracer, "reconstruct", false), "ms"},
      {"ground.ms_per_doc", PerSpanMs(tracer, "ground", false), "ms"},
      {"ground.rows_per_doc", Ratio(counts.ground_rows, counts.ground_docs),
       "rows"},
      {"detect.ms_per_doc", PerSpanMs(tracer, "detect", false), "ms"},
      {"translate.ms_per_doc", PerSpanMs(tracer, "translate", false), "ms"},
      {"repair.ms_per_doc", PerSpanMs(tracer, "repair", false), "ms"},
      {"repair.self_ms_per_doc", PerSpanMs(tracer, "repair", true), "ms"},
      {"repair.bigm_retries_per_doc",
       Ratio(counts.bigm_retries, counts.repairs), "count"},
      {"incremental.ms_per_iter", PerSpanMs(tracer, "incremental", false),
       "ms"},
      {"incremental.dirty_frac",
       Ratio(counts.dirty_components,
             counts.dirty_components + counts.clean_reused),
       "fraction"},
      {"batch.ms_per_doc", batch_ms, "ms"},
      {"cqa.ms_per_doc", PerSpanMs(tracer, "cqa", false), "ms"},
      {"cqa.solves_per_doc", Ratio(counts.cqa_solves, counts.cqa_docs),
       "count"},
      {"cqa.nodes_per_doc", Ratio(counts.cqa_nodes, counts.cqa_docs), "count"},
      {"decompose.ms_per_doc", PerSpanMs(tracer, "decompose", false), "ms"},
      {"solve.ms_per_doc", PerSpanMs(tracer, "solve", false), "ms"},
      {"milp.nodes_per_doc", Ratio(nodes, solver_docs), "count"},
      {"milp.lp_iterations_per_doc", Ratio(lp_iterations, solver_docs),
       "count"},
      {"milp.components_per_doc", Ratio(counts.components, counts.solves),
       "count"},
      {"milp.largest_component_vars",
       Ratio(counts.largest_component_vars, counts.solves), "vars"},
      {"session.ms_per_session", PerSpanMs(tracer, "session", false), "ms"},
      {"session.iterations_per_session",
       Ratio(counts.session_iterations, counts.sessions), "count"},
      {"pipeline.self_ms_per_doc", PerSpanMs(tracer, "submit", true), "ms"},
      {"serve.dispatch_ms", extras.dispatch_ms, "ms"},
      {"serve.scaling_eff", extras.scaling_eff, "ratio"},
      {"serve.queue_wait_ms_p50", extras.queue_wait_ms_p50, "ms"},
      {"obs.shared_ctx_scaling", extras.shared_ctx_scaling, "ratio"},
      {"obs.ring_full_slowdown", extras.ring_full_slowdown, "ratio"},
      {"obs.trace_overhead_frac", extras.trace_overhead_frac, "fraction"},
  };
}

}  // namespace perfbench
