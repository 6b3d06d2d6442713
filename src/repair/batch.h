#pragma once

#include <vector>

#include "constraints/ground.h"
#include "repair/engine.h"

/// \file batch.h
/// Fused multi-database repair: N acquired databases translated together and
/// solved as ONE `SolveMilpBatch` call over the union of their
/// constraint-graph components.
///
/// `RepairEngine::ComputeRepair` solves one document's components at a
/// time, so a batch of N documents leaves threads idle whenever one
/// document's components drain before the next call starts.
/// `ComputeRepairBatch` instead runs the engine's per-attempt pipeline —
/// translate, presolve, decompose — per document, pools every component of
/// every document into a single batch (dealt largest-first across
/// documents), solves once, and stitches each document's slice back through
/// `StitchDecomposition`. Big-M retries stay per document: a saturated
/// document re-enters the next round's batch with grown M and
/// clean-component pins while finished documents drop out.
///
/// Per-document results are bit-identical to `ComputeRepair` at every
/// thread count: each component is one serial `SolveMilp` search, exactly
/// what the per-document path bottoms out in, and the thread count only
/// decides how many of them run at once.

namespace dart::repair {

/// One document's repair work. `db` and `ground` must outlive the call;
/// `ground` must come from `GroundConstraintProgram(*db, constraints)` for
/// the same constraint set passed to ComputeRepairBatch.
struct BatchRepairRequest {
  const rel::Database* db = nullptr;
  const cons::GroundProgram* ground = nullptr;
  /// Per-document confidence weights (appended to options.translator.weights
  /// semantics: cells not listed cost 1).
  std::vector<CellWeight> weights;
};

/// Repairs every request against `constraints` under `options`, fusing all
/// MILP components into shared `SolveMilpBatch` calls (one per big-M
/// attempt round). Returns one Result per request, in request order; a
/// failing document (malformed instance, no repair exists, ...) fails only
/// its own slot.
///
/// Stats caveat: `solve_seconds` / `milp_wall_seconds` of each outcome
/// record the *shared* batch solve wall of the rounds the document took
/// part in, not an attributed per-document share. With
/// `options.use_exhaustive_solver` or decomposition disabled the fused path
/// degenerates to a serial per-document `ComputeRepair` loop.
std::vector<Result<RepairOutcome>> ComputeRepairBatch(
    const std::vector<BatchRepairRequest>& requests,
    const cons::ConstraintSet& constraints,
    const RepairEngineOptions& options);

}  // namespace dart::repair
