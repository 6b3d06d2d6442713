// Tests for DartPipeline::SubmitBatch (DESIGN.md "Batch ingestion"): the
// fused N-document path must be observably equivalent to N independent
// Submit() calls — identical acquisitions, violations, repairs, and
// repaired instances at every thread count — while failures stay
// per-document, the shared grounding happens exactly once per document, and
// slots carry their request ids.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "constraints/eval.h"
#include "core/pipeline.h"
#include "obs/context.h"
#include "ocr/cash_budget.h"
#include "ocr/noise.h"
#include "util/random.h"

namespace dart::core {
namespace {

using ocr::CashBudgetFixture;

Result<DartPipeline> MakePipeline(const rel::Database& reference,
                                  PipelineOptions options,
                                  const std::string& extra_program = "") {
  AcquisitionMetadata metadata;
  DART_ASSIGN_OR_RETURN(metadata.catalog,
                        CashBudgetFixture::BuildCatalog(reference));
  metadata.patterns = CashBudgetFixture::BuildPatterns();
  DART_ASSIGN_OR_RETURN(dbgen::RelationMapping mapping,
                        CashBudgetFixture::BuildMapping(reference));
  metadata.mappings = {std::move(mapping)};
  metadata.constraint_program =
      CashBudgetFixture::ConstraintProgram() + extra_program;
  return DartPipeline::Create(std::move(metadata), options);
}

/// `num_docs` rendered cash-budget documents of varying size (2–4 years),
/// each with `errors_for(d)` injected measure errors (0 = consistent).
std::vector<std::string> MakeBatchHtmls(uint64_t seed, int num_docs,
                                        const std::vector<size_t>& errors) {
  Rng rng(seed);
  std::vector<std::string> htmls;
  for (int d = 0; d < num_docs; ++d) {
    ocr::CashBudgetOptions options;
    options.num_years = 2 + static_cast<int>((seed + d) % 3);
    rel::Database db = CashBudgetFixture::Random(options, &rng).value();
    const size_t count = errors[d % errors.size()];
    if (count > 0) {
      EXPECT_TRUE(ocr::InjectMeasureErrors(&db, count, &rng).ok());
    }
    htmls.push_back(CashBudgetFixture::RenderHtml(db));
  }
  return htmls;
}

void ExpectDocEqualsSerial(const Result<ProcessOutcome>& batch_doc,
                           const Result<ProcessOutcome>& serial) {
  ASSERT_EQ(batch_doc.ok(), serial.ok())
      << batch_doc.status().ToString() << " vs " << serial.status().ToString();
  if (!serial.ok()) {
    EXPECT_EQ(batch_doc.status(), serial.status());
    return;
  }
  EXPECT_EQ(*batch_doc->acquisition.database.CountDifferences(
                serial->acquisition.database),
            0u);
  ASSERT_EQ(batch_doc->violations.size(), serial->violations.size());
  for (size_t v = 0; v < serial->violations.size(); ++v) {
    EXPECT_EQ(batch_doc->violations[v].ToString(),
              serial->violations[v].ToString());
  }
  EXPECT_EQ(batch_doc->repair.already_consistent,
            serial->repair.already_consistent);
  const auto& batch_updates = batch_doc->repair.repair.updates();
  const auto& serial_updates = serial->repair.repair.updates();
  ASSERT_EQ(batch_updates.size(), serial_updates.size());
  for (size_t u = 0; u < serial_updates.size(); ++u) {
    EXPECT_TRUE(batch_updates[u].cell == serial_updates[u].cell)
        << batch_updates[u].ToString() << " vs " << serial_updates[u].ToString();
    EXPECT_EQ(batch_updates[u].old_value, serial_updates[u].old_value);
    EXPECT_EQ(batch_updates[u].new_value, serial_updates[u].new_value);
  }
  EXPECT_EQ(*batch_doc->repaired.CountDifferences(serial->repaired), 0u);
}

// On the serial path (num_threads = 1) the batch must be bit-identical to
// the per-document path: same acquisitions, violations (text and order),
// update lists, and repaired instances, across 30 seeds of mixed-size
// mixed-error batches.
TEST(BatchPipelineTest, MatchesSerialProcessAcrossSeeds) {
  Rng ref_rng(7);
  rel::Database reference =
      CashBudgetFixture::Random({}, &ref_rng).value();
  PipelineOptions options;
  options.engine.milp.search.num_threads = 1;
  auto pipeline = MakePipeline(reference, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const std::vector<std::string> htmls =
        MakeBatchHtmls(seed, 3, {1, 2, 1});
    BatchOutcome batch =
        pipeline->SubmitBatch(BatchRequest::FromHtmls(htmls));
    ASSERT_EQ(batch.documents.size(), htmls.size());
    EXPECT_GT(batch.stats.docs_per_second, 0);
    for (size_t i = 0; i < htmls.size(); ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " doc " +
                   std::to_string(i));
      EXPECT_EQ(batch.documents[i].id, "#" + std::to_string(i));
      ExpectDocEqualsSerial(
          batch.documents[i].result,
          pipeline->Submit(ProcessRequest::FromHtml(htmls[i])));
    }
  }
}

// Components are searched serially and independently, so the thread count
// only decides how many run at once: at 4 threads the batch (and Submit)
// must be bit-identical to the 1-thread path, ties between equal-cardinality
// repairs included, and every repaired instance must satisfy the program.
TEST(BatchPipelineTest, ThreadedBatchMatchesCardinalityAndConsistency) {
  Rng ref_rng(7);
  rel::Database reference =
      CashBudgetFixture::Random({}, &ref_rng).value();
  PipelineOptions serial_options;
  serial_options.engine.milp.search.num_threads = 1;
  auto serial_pipeline = MakePipeline(reference, serial_options);
  ASSERT_TRUE(serial_pipeline.ok());
  PipelineOptions threaded_options;
  threaded_options.engine.milp.search.num_threads = 4;
  auto threaded_pipeline = MakePipeline(reference, threaded_options);
  ASSERT_TRUE(threaded_pipeline.ok());
  cons::ConsistencyChecker checker(&threaded_pipeline->constraints());

  for (uint64_t seed : {99, 1, 2, 3, 4, 5, 6, 7}) {
    const std::vector<std::string> htmls = MakeBatchHtmls(seed, 8, {1, 2});
    BatchOutcome batch =
        threaded_pipeline->SubmitBatch(BatchRequest::FromHtmls(htmls));
    ASSERT_EQ(batch.documents.size(), htmls.size());
    for (size_t i = 0; i < htmls.size(); ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " doc " +
                   std::to_string(i));
      const auto& doc = batch.documents[i].result;
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      const auto serial =
          serial_pipeline->Submit(ProcessRequest::FromHtml(htmls[i]));
      ExpectDocEqualsSerial(doc, serial);
      ExpectDocEqualsSerial(
          threaded_pipeline->Submit(ProcessRequest::FromHtml(htmls[i])),
          serial);
      auto residual = checker.Check(doc->repaired);
      ASSERT_TRUE(residual.ok());
      EXPECT_TRUE(residual->empty());
    }
  }
}

// Consistent documents ride through the batch untouched: already_consistent
// set, empty repair, repaired == acquired — exactly like Submit().
TEST(BatchPipelineTest, MixedConsistentAndInconsistentBatch) {
  Rng ref_rng(7);
  rel::Database reference =
      CashBudgetFixture::Random({}, &ref_rng).value();
  PipelineOptions options;
  options.engine.milp.search.num_threads = 1;
  auto pipeline = MakePipeline(reference, options);
  ASSERT_TRUE(pipeline.ok());

  // errors pattern {0, 2, 0, 1}: docs 0 and 2 are consistent.
  const std::vector<std::string> htmls = MakeBatchHtmls(5, 4, {0, 2, 0, 1});
  BatchOutcome batch = pipeline->SubmitBatch(BatchRequest::FromHtmls(htmls));
  ASSERT_EQ(batch.documents.size(), 4u);
  for (size_t i : {size_t{0}, size_t{2}}) {
    const auto& doc = batch.documents[i].result;
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_TRUE(doc->violations.empty());
    EXPECT_TRUE(doc->repair.already_consistent);
    EXPECT_TRUE(doc->repair.repair.empty());
    EXPECT_EQ(*doc->repaired.CountDifferences(doc->acquisition.database), 0u);
  }
  for (size_t i : {size_t{1}, size_t{3}}) {
    const auto& doc = batch.documents[i].result;
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_FALSE(doc->violations.empty());
    EXPECT_FALSE(doc->repair.repair.empty());
    ExpectDocEqualsSerial(doc, pipeline->Submit(ProcessRequest::FromHtml(htmls[i])));
  }
}

// A document that fails mid-batch fails alone: its slot carries the same
// error Submit() reports for it, and every sibling is repaired as if the
// bad document were never submitted. The failing document is *irreparable*
// — an extra constraint over the steady Year attribute grounds to a
// violated constant row for any document containing year 1999, so its
// translation fails with Infeasible inside the fused repair.
TEST(BatchPipelineTest, FailingDocumentDoesNotPoisonSiblings) {
  Rng ref_rng(7);
  rel::Database reference =
      CashBudgetFixture::Random({}, &ref_rng).value();
  PipelineOptions options;
  options.engine.milp.search.num_threads = 1;
  auto pipeline = MakePipeline(
      reference, options,
      "\nagg yearsum(x) := sum(Year) from CashBudget where Year = x;\n"
      "constraint no99: CashBudget(_, _, _, _, _) => yearsum(1999) <= 0;");
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  std::vector<std::string> htmls = MakeBatchHtmls(11, 3, {1});
  {
    Rng rng(1999);
    ocr::CashBudgetOptions bad_options;
    bad_options.start_year = 1999;
    rel::Database bad = CashBudgetFixture::Random(bad_options, &rng).value();
    htmls[1] = CashBudgetFixture::RenderHtml(bad);
  }
  auto serial_bad = pipeline->Submit(ProcessRequest::FromHtml(htmls[1]));
  ASSERT_FALSE(serial_bad.ok());
  EXPECT_EQ(serial_bad.status().code(), StatusCode::kInfeasible);

  BatchOutcome batch = pipeline->SubmitBatch(BatchRequest::FromHtmls(htmls));
  ASSERT_EQ(batch.documents.size(), 3u);
  ASSERT_FALSE(batch.documents[1].result.ok());
  EXPECT_EQ(batch.documents[1].result.status(), serial_bad.status());
  for (size_t i : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE("doc " + std::to_string(i));
    ExpectDocEqualsSerial(
        batch.documents[i].result,
        pipeline->Submit(ProcessRequest::FromHtml(htmls[i])));
  }
}

TEST(BatchPipelineTest, EmptyBatchIsEmptySuccess) {
  Rng ref_rng(7);
  rel::Database reference =
      CashBudgetFixture::Random({}, &ref_rng).value();
  auto pipeline = MakePipeline(reference, {});
  ASSERT_TRUE(pipeline.ok());
  BatchOutcome batch = pipeline->SubmitBatch(BatchRequest{});
  EXPECT_TRUE(batch.documents.empty());
}

// The shared grounding is built exactly once per document — detection and
// every translate/verify attempt reuse it (counter repair.groundings).
TEST(BatchPipelineTest, GroundsOncePerDocument) {
  Rng ref_rng(7);
  rel::Database reference =
      CashBudgetFixture::Random({}, &ref_rng).value();
  obs::RunContext run;
  PipelineOptions options;
  options.run = &run;
  options.engine.milp.search.num_threads = 1;
  auto pipeline = MakePipeline(reference, options);
  ASSERT_TRUE(pipeline.ok());

  const std::vector<std::string> htmls = MakeBatchHtmls(3, 3, {1, 0, 2});
  const obs::MetricsSnapshot before = run.metrics().Snapshot();
  ASSERT_TRUE(!pipeline->SubmitBatch(BatchRequest::FromHtmls(htmls)).documents.empty());
  const obs::MetricsSnapshot mid = run.metrics().Snapshot();
  EXPECT_EQ(mid.DeltaSince(before).Counter("repair.groundings"), 3);

  // Submit() also grounds exactly once for the whole call (detection +
  // every repair attempt + verification included).
  ASSERT_TRUE(pipeline->Submit(ProcessRequest::FromHtml(htmls[0])).ok());
  const obs::MetricsSnapshot after = run.metrics().Snapshot();
  EXPECT_EQ(after.DeltaSince(mid).Counter("repair.groundings"), 1);
}

// The positional overload is Submit()-equivalent per document, and a
// document whose geometric reconstruction fails occupies only its own slot.
TEST(BatchPipelineTest, PositionalBatchMatchesPositionalProcess) {
  Rng ref_rng(7);
  rel::Database reference =
      CashBudgetFixture::Random({}, &ref_rng).value();
  PipelineOptions options;
  options.engine.milp.search.num_threads = 1;
  auto pipeline = MakePipeline(reference, options);
  ASSERT_TRUE(pipeline.ok());

  Rng rng(21);
  std::vector<acquire::PositionalDocument> documents;
  for (int d = 0; d < 3; ++d) {
    ocr::CashBudgetOptions doc_options;
    doc_options.num_years = 2 + d % 2;
    rel::Database db = CashBudgetFixture::Random(doc_options, &rng).value();
    ASSERT_TRUE(ocr::InjectMeasureErrors(&db, 1, &rng).ok());
    documents.push_back(CashBudgetFixture::RenderPositional(db));
  }
  BatchRequest request;
  for (size_t i = 0; i < documents.size(); ++i) {
    request.documents.push_back(ProcessRequest::FromPositional(
        documents[i], "scan-" + std::to_string(i)));
  }
  BatchOutcome batch = pipeline->SubmitBatch(request);
  ASSERT_EQ(batch.documents.size(), documents.size());
  for (size_t i = 0; i < documents.size(); ++i) {
    SCOPED_TRACE("doc " + std::to_string(i));
    EXPECT_EQ(batch.documents[i].id, "scan-" + std::to_string(i));
    EXPECT_EQ(batch.Find("scan-" + std::to_string(i)), &batch.documents[i]);
    ExpectDocEqualsSerial(
        batch.documents[i].result,
        pipeline->Submit(ProcessRequest::FromPositional(documents[i])));
  }
}

}  // namespace
}  // namespace dart::core
