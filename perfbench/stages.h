#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "constraints/ground.h"
#include "core/pipeline.h"
#include "inputs.h"
#include "repair/cqa.h"
#include "tracer.h"
#include "validation/session.h"

/// \file stages.h
/// Output checks shared by the workloads, and the traced run's stage replays:
/// the public calls a request runs internally, each timed under its own
/// span as a child of the request's span.

namespace perfbench {

/// True iff `repaired` satisfies every row of `ground` (the ground program
/// of the same document: grounding is repair-invariant by steadiness).
bool SatisfiesGround(const dart::rel::Database& repaired,
                     const dart::cons::GroundProgram& ground);

/// The unsupervised check: the repaired database has no violations and the
/// repair changes at most `errors` cells.
bool CheckProcessOutcome(const dart::core::ProcessOutcome& outcome,
                         const dart::cons::GroundProgram& ground,
                         size_t errors);

/// True iff two outcomes of the same document agree: same repaired
/// database, same repair cardinality, same violation count.
bool SameOutcome(const dart::core::ProcessOutcome& a,
                 const dart::core::ProcessOutcome& b);

/// The supervised check: a session on `doc` converged on the truth. Errors
/// that cancel inside one aggregate (two details of one sum moved by +d and
/// −d) are invisible to the constraints, so no repair can find them: the
/// final database may keep exactly such a set of injected errors at their
/// acquired values, provided the truth with only those errors is still
/// consistent. Any other difference from the truth fails. `ground` is the
/// document's ground program.
bool EndsOnTruth(const dart::validation::SessionResult& session,
                 const BudgetDoc& doc, const dart::cons::GroundProgram& ground);

/// A supervised session on every document of `pool` (ground programs in
/// `grounds`), outside timing: the operator effort the workload's inputs
/// cost. Returns the mean examined updates per session; a session failing
/// EndsOnTruth counts as a failed request of `result`.
double OperatorEffort(const dart::core::DartPipeline& pipeline,
                      const std::vector<BudgetDoc>& pool,
                      const std::vector<dart::cons::GroundProgram>& grounds,
                      WorkloadResult* result);

/// Grounds `db`, aborting on failure (inputs are generated, never invalid).
dart::cons::GroundProgram MustGround(const dart::rel::Database& db,
                                     const dart::cons::ConstraintSet& set);

/// Sums of the per-layer counts of a traced run; each is divided by its own
/// denominator when reported.
struct LayerCounts {
  int64_t ground_docs = 0;
  int64_t ground_rows = 0;
  int64_t repairs = 0;
  int64_t bigm_retries = 0;
  int64_t solves = 0;  ///< replayed repairs that ran the solver.
  int64_t milp_nodes = 0;
  int64_t milp_lp_iterations = 0;
  int64_t components = 0;
  int64_t largest_component_vars = 0;
  int64_t sessions = 0;
  int64_t session_iterations = 0;
  int64_t session_nodes = 0;
  int64_t session_lp_iterations = 0;
  int64_t dirty_components = 0;
  int64_t clean_reused = 0;
  int64_t batch_docs = 0;
  int64_t cqa_docs = 0;
  int64_t cqa_solves = 0;
  int64_t cqa_nodes = 0;
};

/// Runs RepairEngine::ComputeRepair (span "repair", ground passed) on `db`
/// with a RunContext attached, and records the engine's own per-attempt
/// spans as its children: repair.translate ("translate") and repair.solve
/// ("solve": presolve, decomposition and search). Presolve plus
/// DecomposeModel of the first attempt are replayed under "decompose", a
/// child of the first solve. Solver counters are the call's own milp.*
/// counters, big-M retries included. The replays below return false,
/// without aborting, when a replayed call fails; callers count that as a
/// failed request.
bool ReplayRepair(const dart::rel::Database& db,
                  const dart::cons::ConstraintSet& constraints,
                  const dart::cons::GroundProgram& ground, Tracer* tracer,
                  int64_t parent, int64_t request, LayerCounts* counts);

/// Replays the stages DartPipeline::Submit runs on `html`: Acquire
/// ("acquire"), GroundConstraintProgram ("ground"), EvaluateGroundProgram
/// ("detect"), then ReplayRepair.
bool ReplaySubmit(const dart::core::DartPipeline& pipeline,
                  const std::string& html, Tracer* tracer, int64_t parent,
                  int64_t request, LayerCounts* counts);

/// Replays validation::RunValidationSession ("session") on an acquired
/// database with a RunContext attached, and records the library's own
/// repair.incremental spans as its "incremental" children.
bool ReplaySession(const dart::core::DartPipeline& pipeline,
                   const dart::rel::Database& acquired,
                   const dart::rel::Database& truth, Tracer* tracer,
                   int64_t parent, int64_t request, LayerCounts* counts);

/// Runs repair::ComputeConsistentIntervals on `db` under a root "cqa" span
/// and records its solves and nodes. Returns whether its k* equals
/// `expected_cardinality`, the engine's repair cardinality.
bool TraceCqa(const dart::rel::Database& db,
              const dart::cons::ConstraintSet& constraints,
              size_t expected_cardinality, Tracer* tracer, int64_t request,
              LayerCounts* counts);

/// CQA options every caller uses: single-threaded MILP search.
dart::repair::CqaOptions SerialCqaOptions();

/// Extra per-layer figures a workload measures outside the span tree.
struct LayerExtras {
  double trace_overhead_frac = 0;
  double dispatch_ms = 0;
  double scaling_eff = 0;
  double queue_wait_ms_p50 = 0;
  double shared_ctx_scaling = 0;
  double ring_full_slowdown = 0;
};

/// Every per-layer metric, in a fixed order; a metric the workload does not
/// exercise reads 0.
std::vector<Metric> PerLayerMetrics(const Tracer& tracer,
                                    const LayerCounts& counts,
                                    const LayerExtras& extras);

}  // namespace perfbench
