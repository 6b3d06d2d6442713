#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "acquire/positional.h"
#include "core/pipeline.h"
#include "relational/database.h"

/// \file inputs.h
/// Seeded input pools. Every pool is built before any timing starts, and its
/// shape and digest are printed so two runs can be shown to use the same
/// inputs.

namespace perfbench {

/// Shape of a pool of cash-budget documents (ocr::CashBudgetFixture).
struct BudgetShape {
  int years = 2;
  int receipt_details = 2;
  int disbursement_details = 3;
  /// Injected digit errors per document: every `max_every`-th document of a
  /// pool (i mod max_every = max_every − 1) gets max_errors, the others
  /// min_errors, so every pool holds the same mix whatever the seed.
  int min_errors = 1;
  int max_errors = 1;
  int max_every = 1;
};

/// One document with its ground truth.
struct BudgetDoc {
  dart::rel::Database truth;
  /// The truth with the errors injected: what the wrapper should extract.
  dart::rel::Database acquired;
  std::string html;
  size_t errors = 0;
};

/// `count` documents drawn from `seed`. Same seed, same documents.
std::vector<BudgetDoc> MakeBudgetPool(uint64_t seed, const BudgetShape& shape,
                                      size_t count);

/// The acquisition metadata of the cash-budget fixture for documents with
/// the given detail counts (catalog, row pattern, mapping, constraints).
dart::core::AcquisitionMetadata BudgetMetadata(int receipt_details,
                                               int disbursement_details);

/// Pipeline options every workload uses: single-threaded MILP search, so
/// solver counts repeat exactly.
dart::core::PipelineOptions SerialPipelineOptions();

/// Builds a pipeline, aborting on an invalid configuration.
dart::core::DartPipeline MakePipeline(int receipt_details,
                                      int disbursement_details,
                                      dart::core::PipelineOptions options =
                                          SerialPipelineOptions());

/// One deployment's set-up for SetupTimer: builds the metadata and calls
/// DartPipeline::Create (timed), then destroys the pipeline (untimed).
double TimePipelineSetup(int receipt_details, int disbursement_details);

/// Logs the pool's shape (years, details, errors, size) and digest.
void LogPool(const std::string& name, const BudgetShape& shape,
             const std::vector<BudgetDoc>& pool);

}  // namespace perfbench
