#include "repair/batch.h"

#include <utility>

namespace dart::repair {

std::vector<Result<RepairOutcome>> ComputeRepairBatch(
    const std::vector<BatchRepairRequest>& requests,
    const cons::ConstraintSet& constraints,
    const RepairEngineOptions& options) {
  std::vector<Result<RepairOutcome>> out(
      requests.size(),
      Status::InvalidArgument(
          "BatchRepairRequest requires non-null db and ground program"));
  std::vector<size_t> slots;
  std::vector<SessionDocument> documents;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].db == nullptr || requests[i].ground == nullptr) continue;
    slots.push_back(i);
    documents.push_back(requests[i]);
  }
  if (documents.empty()) return out;
  IncrementalRepairSession session(std::move(documents), constraints, options);
  std::vector<Result<RepairOutcome>> repaired =
      session.ComputeRepairs({}, {}, "repair.batch");
  for (size_t k = 0; k < slots.size(); ++k) {
    out[slots[k]] = std::move(repaired[k]);
  }
  return out;
}

}  // namespace dart::repair
