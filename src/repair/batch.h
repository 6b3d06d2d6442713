#pragma once

#include <vector>

#include "constraints/ground.h"
#include "repair/engine.h"
#include "repair/incremental.h"

/// \file batch.h
/// Fused multi-database repair: N acquired databases repaired by ONE
/// component session (repair/incremental.h). Each document is translated and
/// decomposed once (fanned out by ParallelFor), and every round solves the
/// dirty components of every document in a single `SolveMilpBatch` call
/// (dealt largest-first across documents). Big-M grows in place per
/// component, so a saturated component re-enters the next round alone while
/// finished documents drop out.
///
/// Per-document results are bit-identical to `ComputeRepair` at every
/// thread count: each component is one serial `SolveMilp` search, exactly
/// what the per-document path runs, and the thread count only decides how
/// many of them run at once.

namespace dart::repair {

/// One document's repair work: a session document whose `db` and `ground`
/// must both be set and outlive the call, `ground` coming from
/// `GroundConstraintProgram(*db, constraints)` for the constraint set passed
/// to ComputeRepairBatch.
using BatchRepairRequest = SessionDocument;

/// Repairs every request against `constraints` under `options`, fusing all
/// MILP components into shared `SolveMilpBatch` calls (one per big-M
/// round). Returns one Result per request, in request order; a failing
/// document (malformed instance, no repair exists, ...) fails only its own
/// slot.
///
/// Stats caveat: `solve_seconds` of each outcome records the *shared* batch
/// solve wall of the rounds the document took part in, not an attributed
/// per-document share.
std::vector<Result<RepairOutcome>> ComputeRepairBatch(
    const std::vector<BatchRepairRequest>& requests,
    const cons::ConstraintSet& constraints,
    const RepairEngineOptions& options);

}  // namespace dart::repair
