#include "repair/engine.h"

#include "repair/incremental.h"

namespace dart::repair {

Result<RepairOutcome> RepairEngine::ComputeRepair(
    const rel::Database& db, const cons::ConstraintSet& constraints,
    const std::vector<FixedValue>& fixed_values, const Repair* warm_start,
    const cons::GroundProgram* ground) const {
  IncrementalRepairSession session({SessionDocument{&db, ground, {}}},
                                   constraints, options_);
  return std::move(session.ComputeRepairs({fixed_values}, {warm_start},
                                          "repair.compute")[0]);
}

}  // namespace dart::repair
