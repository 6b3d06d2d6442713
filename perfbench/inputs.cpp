#include "inputs.h"

#include <cstdio>

#include "bench.h"
#include "ocr/cash_budget.h"
#include "ocr/noise.h"
#include "util/random.h"

namespace perfbench {

using dart::ocr::CashBudgetFixture;

namespace {

/// SplitMix64 finalizer: decorrelates the per-document generator seeds.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Fnv1a(uint64_t hash, const std::string& bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// FNV-1a digest of a pool's documents.
uint64_t PoolDigest(const std::vector<BudgetDoc>& pool) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const BudgetDoc& doc : pool) {
    hash = Fnv1a(hash, doc.html);
    hash = Fnv1a(hash, std::to_string(doc.errors));
  }
  return hash;
}

}  // namespace

std::vector<BudgetDoc> MakeBudgetPool(uint64_t seed, const BudgetShape& shape,
                                      size_t count) {
  std::vector<BudgetDoc> pool;
  pool.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    dart::Rng rng(Mix(seed * 0x100000001b3ULL + i));
    dart::ocr::CashBudgetOptions options;
    options.num_years = shape.years;
    options.receipt_details = shape.receipt_details;
    options.disbursement_details = shape.disbursement_details;
    auto truth = CashBudgetFixture::Random(options, &rng);
    DART_CHECK_MSG(truth.ok(), truth.status().ToString());
    BudgetDoc doc;
    doc.truth = std::move(truth).value();
    doc.acquired = doc.truth.Clone();
    doc.errors = static_cast<size_t>(
        static_cast<int>(i % static_cast<size_t>(shape.max_every)) ==
                shape.max_every - 1
            ? shape.max_errors
            : shape.min_errors);
    auto injected =
        dart::ocr::InjectMeasureErrors(&doc.acquired, doc.errors, &rng);
    DART_CHECK_MSG(injected.ok(), injected.status().ToString());
    doc.html = CashBudgetFixture::RenderHtml(doc.acquired);
    pool.push_back(std::move(doc));
  }
  return pool;
}

dart::core::AcquisitionMetadata BudgetMetadata(int receipt_details,
                                               int disbursement_details) {
  dart::Rng rng(0);
  dart::ocr::CashBudgetOptions options;
  options.num_years = 1;
  options.receipt_details = receipt_details;
  options.disbursement_details = disbursement_details;
  auto reference = CashBudgetFixture::Random(options, &rng);
  DART_CHECK_MSG(reference.ok(), reference.status().ToString());
  dart::core::AcquisitionMetadata metadata;
  auto catalog = CashBudgetFixture::BuildCatalog(*reference);
  DART_CHECK_MSG(catalog.ok(), catalog.status().ToString());
  metadata.catalog = std::move(catalog).value();
  metadata.patterns = CashBudgetFixture::BuildPatterns();
  auto mapping = CashBudgetFixture::BuildMapping(*reference);
  DART_CHECK_MSG(mapping.ok(), mapping.status().ToString());
  metadata.mappings = {std::move(mapping).value()};
  metadata.constraint_program = CashBudgetFixture::ConstraintProgram();
  return metadata;
}

dart::core::PipelineOptions SerialPipelineOptions() {
  dart::core::PipelineOptions options;
  options.engine.milp.search.num_threads = 1;
  return options;
}

dart::core::DartPipeline MakePipeline(int receipt_details,
                                      int disbursement_details,
                                      dart::core::PipelineOptions options) {
  auto pipeline = dart::core::DartPipeline::Create(
      BudgetMetadata(receipt_details, disbursement_details),
      std::move(options));
  DART_CHECK_MSG(pipeline.ok(), pipeline.status().ToString());
  return std::move(pipeline).value();
}

double TimePipelineSetup(int receipt_details, int disbursement_details) {
  const Clock::time_point start = Clock::now();
  auto pipeline = dart::core::DartPipeline::Create(
      BudgetMetadata(receipt_details, disbursement_details),
      SerialPipelineOptions());
  const double seconds = SecondsSince(start);
  DART_CHECK_MSG(pipeline.ok(), pipeline.status().ToString());
  return seconds;
}

void LogPool(const std::string& name, const BudgetShape& shape,
             const std::vector<BudgetDoc>& pool) {
  size_t rows = 0;
  for (const BudgetDoc& doc : pool) {
    for (const auto& relation : doc.truth.relations()) rows += relation.size();
  }
  char line[320];
  std::snprintf(line, sizeof(line),
                "pool %s: years=%d receipt_details=%d "
                "disbursement_details=%d errors=%d-%d (max every %d) size=%zu "
                "rows_per_doc=%.1f digest=%016llx",
                name.c_str(), shape.years, shape.receipt_details,
                shape.disbursement_details, shape.min_errors,
                shape.max_errors, shape.max_every, pool.size(),
                pool.empty() ? 0.0
                             : static_cast<double>(rows) /
                                   static_cast<double>(pool.size()),
                static_cast<unsigned long long>(PoolDigest(pool)));
  Log(line);
}

}  // namespace perfbench
