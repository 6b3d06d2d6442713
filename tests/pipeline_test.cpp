// End-to-end tests for the DartPipeline facade (P1 of DESIGN.md): the Fig. 1
// document flows through acquisition, extraction, database generation and
// repair, reproducing the Fig. 3 relation and Example 6's repair; a noisy
// corpus document is recovered by the supervised loop.

#include <gtest/gtest.h>

#include <limits>

#include "core/pipeline.h"
#include "obs/context.h"
#include "ocr/cash_budget.h"
#include "ocr/catalog.h"
#include "ocr/noise.h"
#include "util/random.h"
#include "validation/operator.h"

namespace dart::core {
namespace {

using ocr::CashBudgetFixture;
using ocr::CatalogFixture;

Result<DartPipeline> MakeCashBudgetPipeline(const rel::Database& reference,
                                            PipelineOptions options = {}) {
  AcquisitionMetadata metadata;
  DART_ASSIGN_OR_RETURN(metadata.catalog,
                        CashBudgetFixture::BuildCatalog(reference));
  metadata.patterns = CashBudgetFixture::BuildPatterns();
  DART_ASSIGN_OR_RETURN(dbgen::RelationMapping mapping,
                        CashBudgetFixture::BuildMapping(reference));
  metadata.mappings = {std::move(mapping)};
  metadata.constraint_program = CashBudgetFixture::ConstraintProgram();
  return DartPipeline::Create(std::move(metadata), options);
}

TEST(PipelineTest, Figure1DocumentReproducesFigure3Relation) {
  auto truth = CashBudgetFixture::PaperExample(false);
  ASSERT_TRUE(truth.ok());
  auto pipeline = MakeCashBudgetPipeline(*truth);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  // Render the *erroneous* acquisition (the 250 error of Fig. 3).
  auto acquired_db = CashBudgetFixture::PaperExample(true);
  ASSERT_TRUE(acquired_db.ok());
  const std::string html = CashBudgetFixture::RenderHtml(*acquired_db);

  auto acquisition = pipeline->Acquire(html);
  ASSERT_TRUE(acquisition.ok()) << acquisition.status().ToString();
  EXPECT_EQ(acquisition->extraction.tables, 2u);
  EXPECT_EQ(acquisition->skipped_rows, 0u);
  // The extracted instance equals Fig. 3, including types from the
  // classification metadata.
  ASSERT_EQ(*acquisition->database.CountDifferences(*acquired_db), 0u);
}

TEST(PipelineTest, ProcessSuggestsExample6Repair) {
  auto truth = CashBudgetFixture::PaperExample(false);
  ASSERT_TRUE(truth.ok());
  auto pipeline = MakeCashBudgetPipeline(*truth);
  ASSERT_TRUE(pipeline.ok());
  auto acquired_db = CashBudgetFixture::PaperExample(true);
  ASSERT_TRUE(acquired_db.ok());

  auto outcome = pipeline->Submit(
      ProcessRequest::FromHtml(CashBudgetFixture::RenderHtml(*acquired_db)));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // Violations i and ii of Example 1.
  EXPECT_EQ(outcome->violations.size(), 2u);
  // DART "will suggest to change the total cash receipts value for year 2003
  // from 250 to 220".
  ASSERT_EQ(outcome->repair.repair.cardinality(), 1u);
  const repair::AtomicUpdate& update = outcome->repair.repair.updates()[0];
  EXPECT_EQ(update.old_value, rel::Value(250));
  EXPECT_EQ(update.new_value, rel::Value(220));
  // The repaired instance equals the source document's data.
  EXPECT_EQ(*outcome->repaired.CountDifferences(*truth), 0u);
}

TEST(PipelineTest, RepairRejectsNonFinitePins) {
  // Repair() runs the one-shot repair core: a NaN or infinite pin must come
  // back as InvalidArgument rather than abort inside the MILP model.
  auto truth = CashBudgetFixture::PaperExample(false);
  ASSERT_TRUE(truth.ok());
  auto pipeline = MakeCashBudgetPipeline(*truth);
  ASSERT_TRUE(pipeline.ok());
  auto acquired_db = CashBudgetFixture::PaperExample(true);
  ASSERT_TRUE(acquired_db.ok());
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    auto outcome =
        pipeline->Repair(*acquired_db, {{rel::CellRef{"CashBudget", 3, 4}, bad}});
    ASSERT_FALSE(outcome.ok()) << bad;
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  auto pinned =
      pipeline->Repair(*acquired_db, {{rel::CellRef{"CashBudget", 3, 4}, 250.0}});
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_GE(pinned->repair.cardinality(), 2u);
}

TEST(PipelineTest, StringNoiseIsRepairedByWrapperAlone) {
  // Corrupt only strings: the msi() binding fixes them without any MILP
  // involvement; the resulting database is already consistent.
  auto truth = CashBudgetFixture::PaperExample(false);
  ASSERT_TRUE(truth.ok());
  auto pipeline = MakeCashBudgetPipeline(*truth);
  ASSERT_TRUE(pipeline.ok());
  Rng rng(12);
  ocr::NoiseModel noise({0.0, 0.35, 1, 1}, &rng);
  const std::string html = CashBudgetFixture::RenderHtml(*truth, &noise);
  ASSERT_GT(noise.strings_corrupted(), 0u);

  auto outcome = pipeline->Submit(ProcessRequest::FromHtml(html));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(*outcome->acquisition.database.CountDifferences(*truth), 0u);
  EXPECT_TRUE(outcome->violations.empty());
  EXPECT_TRUE(outcome->repair.repair.empty());
}

TEST(PipelineTest, SupervisedLoopRecoversNoisyDocument) {
  Rng rng(2024);
  ocr::CashBudgetOptions options;
  options.num_years = 2;
  auto truth = CashBudgetFixture::Random(options, &rng);
  ASSERT_TRUE(truth.ok());
  auto pipeline = MakeCashBudgetPipeline(*truth);
  ASSERT_TRUE(pipeline.ok());
  // Mild numeric + string noise on the rendered document.
  ocr::NoiseModel noise({0.12, 0.15, 1, 1}, &rng);
  const std::string html = CashBudgetFixture::RenderHtml(*truth, &noise);

  validation::SimulatedOperator op(&*truth);
  auto session = pipeline->ProcessSupervised(html, op);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_TRUE(session->converged);
  EXPECT_EQ(*session->repaired.CountDifferences(*truth), 0u);
}

// Regression for the option-propagation seam: a RunContext set only at the
// top level (PipelineOptions::run, nothing on the nested engine/search
// structs) must reach the innermost solver — Create() is the single place
// that fans `run` out, so milp.* counters land in the top-level registry for
// both the one-shot and the supervised path.
TEST(PipelineTest, TopLevelRunContextReachesSolverCounters) {
  auto truth = CashBudgetFixture::PaperExample(false);
  ASSERT_TRUE(truth.ok());
  obs::RunContext run;
  PipelineOptions options;
  options.run = &run;  // top level only; options.engine.run stays null
  auto pipeline = MakeCashBudgetPipeline(*truth, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  auto acquired_db = CashBudgetFixture::PaperExample(true);
  ASSERT_TRUE(acquired_db.ok());
  const std::string html = CashBudgetFixture::RenderHtml(*acquired_db);
  ASSERT_TRUE(pipeline->Submit(ProcessRequest::FromHtml(html)).ok());
  const obs::MetricsSnapshot after_submit = run.metrics().Snapshot();
  EXPECT_GT(after_submit.Counter("milp.nodes"), 0);
  EXPECT_GT(after_submit.Counter("repair.attempts"), 0);

  // The supervised loop solves through the same engine: its solver effort
  // must accumulate into the same registry (and be read back as deltas).
  validation::SimulatedOperator op(&*truth);
  auto session = pipeline->ProcessSupervised(html, op);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_GT(session->total_nodes, 0);
  EXPECT_GT(run.metrics().Snapshot().DeltaSince(after_submit)
                .Counter("milp.nodes"),
            0);
}

TEST(PipelineTest, CatalogDomainEndToEnd) {
  Rng rng(31337);
  auto truth = CatalogFixture::Random({}, &rng);
  ASSERT_TRUE(truth.ok());
  AcquisitionMetadata metadata;
  auto catalog = CatalogFixture::BuildCatalog(*truth);
  ASSERT_TRUE(catalog.ok());
  metadata.catalog = std::move(catalog).value();
  metadata.patterns = CatalogFixture::BuildPatterns();
  auto mapping = CatalogFixture::BuildMapping(*truth);
  ASSERT_TRUE(mapping.ok());
  metadata.mappings = {std::move(mapping).value()};
  metadata.constraint_program = CatalogFixture::ConstraintProgram();
  auto pipeline = DartPipeline::Create(std::move(metadata));
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  // Corrupt the grand total: its unique card-minimal repair is restoring it
  // (changing any category total instead would break that category's own
  // sum and cost a second update).
  rel::Database corrupted = truth->Clone();
  const rel::Relation* relation = corrupted.FindRelation("Catalog");
  const size_t grand_row = relation->size() - 1;
  const int64_t grand = relation->At(grand_row, 3).AsInt();
  ASSERT_TRUE(corrupted.UpdateCell({"Catalog", grand_row, 3},
                                   rel::Value(grand + 50)).ok());
  auto outcome = pipeline->Submit(
      ProcessRequest::FromHtml(CatalogFixture::RenderHtml(corrupted)));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->violations.empty());
  EXPECT_EQ(outcome->repair.repair.cardinality(), 1u);
  EXPECT_EQ(*outcome->repaired.CountDifferences(*truth), 0u);
}

TEST(PipelineTest, CreateRejectsNonSteadyProgram) {
  auto truth = CashBudgetFixture::PaperExample(false);
  ASSERT_TRUE(truth.ok());
  AcquisitionMetadata metadata;
  auto catalog = CashBudgetFixture::BuildCatalog(*truth);
  ASSERT_TRUE(catalog.ok());
  metadata.catalog = std::move(catalog).value();
  metadata.patterns = CashBudgetFixture::BuildPatterns();
  auto mapping = CashBudgetFixture::BuildMapping(*truth);
  ASSERT_TRUE(mapping.ok());
  metadata.mappings = {std::move(mapping).value()};
  // WHERE on the measure attribute Value ⇒ not steady.
  metadata.constraint_program =
      "agg bad(x) := sum(Value) from CashBudget where Value = x;\n"
      "constraint k: CashBudget(_, _, _, _, v) => bad(v) <= 10;";
  auto pipeline = DartPipeline::Create(std::move(metadata));
  ASSERT_FALSE(pipeline.ok());
  EXPECT_NE(pipeline.status().message().find("not steady"), std::string::npos);
}

TEST(PipelineTest, CreateRejectsEmptyMetadata) {
  AcquisitionMetadata metadata;
  EXPECT_FALSE(DartPipeline::Create(std::move(metadata)).ok());
}

}  // namespace
}  // namespace dart::core
