// Experiment E9 (EXPERIMENTS.md): whole-pipeline throughput and the
// human-intervention headline number. Part 1 (google-benchmark): documents
// per second through acquire→extract→generate→detect→repair for clean and
// noisy documents, the acquire stage alone (parse → grid → msi() matching →
// generation) against document size, and the grid expansion of one tall
// table. Part 2 (table): over a corpus of noisy documents, the
// fraction of acquired values a human must still look at with DART
// (supervised loop examinations) vs without DART (every value, since any
// cell could be wrong) — the effort reduction the paper's introduction
// promises.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "core/dart.h"
#include "obs/context.h"
#include "obs/exporter.h"
#include "util/table_printer.h"
#include "wrapper/table_grid.h"

using namespace dart;

namespace {

core::DartPipeline MakePipeline(const rel::Database& reference,
                                core::PipelineOptions options = {}) {
  core::AcquisitionMetadata metadata;
  auto catalog = ocr::CashBudgetFixture::BuildCatalog(reference);
  auto mapping = ocr::CashBudgetFixture::BuildMapping(reference);
  DART_CHECK(catalog.ok() && mapping.ok());
  metadata.catalog = std::move(catalog).value();
  metadata.patterns = ocr::CashBudgetFixture::BuildPatterns();
  metadata.mappings = {std::move(mapping).value()};
  metadata.constraint_program = ocr::CashBudgetFixture::ConstraintProgram();
  auto pipeline =
      core::DartPipeline::Create(std::move(metadata), std::move(options));
  DART_CHECK_MSG(pipeline.ok(), pipeline.status().ToString());
  return std::move(pipeline).value();
}

void BM_ProcessCleanDocument(benchmark::State& state) {
  Rng rng(1);
  ocr::CashBudgetOptions options;
  options.num_years = static_cast<int>(state.range(0));
  auto truth = ocr::CashBudgetFixture::Random(options, &rng);
  DART_CHECK(truth.ok());
  core::DartPipeline pipeline = MakePipeline(*truth);
  const std::string html = ocr::CashBudgetFixture::RenderHtml(*truth);
  for (auto _ : state) {
    auto outcome = pipeline.Submit(core::ProcessRequest::FromHtml(html));
    DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
    benchmark::DoNotOptimize(outcome->violations.size());
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ProcessCleanDocument)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ProcessNoisyDocument(benchmark::State& state) {
  Rng rng(2);
  ocr::CashBudgetOptions options;
  options.num_years = static_cast<int>(state.range(0));
  auto truth = ocr::CashBudgetFixture::Random(options, &rng);
  DART_CHECK(truth.ok());
  core::DartPipeline pipeline = MakePipeline(*truth);
  ocr::NoiseModel noise({0.08, 0.10, 1, 1}, &rng);
  const std::string html = ocr::CashBudgetFixture::RenderHtml(*truth, &noise);
  for (auto _ : state) {
    auto outcome = pipeline.Submit(core::ProcessRequest::FromHtml(html));
    DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
    benchmark::DoNotOptimize(outcome->repair.repair.cardinality());
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ProcessNoisyDocument)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Acquire alone: DartPipeline::Acquire on a budget of range(0) years, one
// table of ~10 rows per year. range(1) = 1 corrupts 30% of the Section and
// Subsection strings (and 8% of the values), so the msi() lookup falls back
// to its similarity scan for those cells; clean documents spell every item
// verbatim.
void BM_AcquireVsYears(benchmark::State& state) {
  Rng rng(3);
  ocr::CashBudgetOptions options;
  options.num_years = static_cast<int>(state.range(0));
  auto truth = ocr::CashBudgetFixture::Random(options, &rng);
  DART_CHECK(truth.ok());
  core::DartPipeline pipeline = MakePipeline(*truth);
  ocr::NoiseModel noise({0.08, 0.30, 1, 2}, &rng);
  const std::string html = ocr::CashBudgetFixture::RenderHtml(
      *truth, state.range(1) != 0 ? &noise : nullptr);
  for (auto _ : state) {
    auto outcome = pipeline.Acquire(html);
    DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
    benchmark::DoNotOptimize(outcome->extraction.matched_rows);
  }
  state.counters["rows"] = static_cast<double>(truth->relations()[0].size());
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_AcquireVsYears)
    ->ArgNames({"years", "noisy"})
    ->Args({2, 0})
    ->Args({12, 0})
    ->Args({50, 0})
    ->Args({200, 0})
    ->Args({12, 1})
    ->Unit(benchmark::kMillisecond);

// Grid expansion of ONE table of range(0) rows laid out like Fig. 1: a Year
// cell spanning every row, a Section cell spanning runs of 10, then
// Subsection and Value. Expansion time should grow linearly in the rows.
void BM_TableGridRows(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  wrap::HtmlTable table;
  for (int r = 0; r < rows; ++r) {
    std::vector<wrap::HtmlCell> row;
    if (r == 0) row.push_back({"2003", rows, 1, false});
    if (r % 10 == 0) {
      row.push_back({"Receipts", std::min(10, rows - r), 1, false});
    }
    row.push_back({"item " + std::to_string(r), 1, 1, false});
    row.push_back({std::to_string(r), 1, 1, false});
    table.rows.push_back(std::move(row));
  }
  for (auto _ : state) {
    auto grid = wrap::TableGrid::FromTable(table);
    DART_CHECK(grid.ok() && grid->num_cols() == 4);
    benchmark::DoNotOptimize(grid->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

BENCHMARK(BM_TableGridRows)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void HumanEffortTable() {
  std::printf(
      "\nE9 — human intervention with vs without DART (3-year budgets,\n"
      "30 measure cells/document, 15 documents per row):\n\n");
  TablePrinter table({"numeric_noise", "checked_with_dart",
                      "checked_without", "effort_saved", "recovered_docs"});
  for (double noise_prob : {0.05, 0.10, 0.20}) {
    size_t examined = 0, total_cells = 0;
    int recovered = 0;
    const int kDocs = 15;
    for (int doc = 0; doc < kDocs; ++doc) {
      Rng rng(4000 + doc);
      ocr::CashBudgetOptions options;
      options.num_years = 3;
      auto truth = ocr::CashBudgetFixture::Random(options, &rng);
      DART_CHECK(truth.ok());
      core::DartPipeline pipeline = MakePipeline(*truth);
      ocr::NoiseModel noise({noise_prob, 0.10, 1, 1}, &rng);
      const std::string html =
          ocr::CashBudgetFixture::RenderHtml(*truth, &noise);
      validation::SimulatedOperator op(&*truth);
      auto session = pipeline.ProcessSupervised(html, op);
      DART_CHECK_MSG(session.ok(), session.status().ToString());
      examined += session->examined_updates;
      total_cells += truth->MeasureCells().size();
      auto differences = session->repaired.CountDifferences(*truth);
      if (differences.ok() && *differences == 0) ++recovered;
    }
    char noise_buf[16], with_buf[32], without_buf[32], saved_buf[16],
        rec_buf[16];
    std::snprintf(noise_buf, sizeof(noise_buf), "%.2f", noise_prob);
    std::snprintf(with_buf, sizeof(with_buf), "%zu values", examined);
    std::snprintf(without_buf, sizeof(without_buf), "%zu values", total_cells);
    std::snprintf(saved_buf, sizeof(saved_buf), "%.0f%%",
                  100.0 * (1.0 - static_cast<double>(examined) /
                                     static_cast<double>(total_cells)));
    std::snprintf(rec_buf, sizeof(rec_buf), "%d/%d", recovered, kDocs);
    table.AddRow({noise_buf, with_buf, without_buf, saved_buf, rec_buf});
  }
  table.Print();
}

// One instrumented noisy-document Submit() run with a live 250 ms
// PeriodicExporter attached, checked against the obs acceptance bars before
// its trace is written for trace_report.py:
//   (a) the exporter stream (OBS_bench_end_to_end.metrics.jsonl) is
//       well-formed and its summed deltas equal the run report's counters —
//       validated by `trace_report.py stream --against-report` from
//       scripts/reproduce.sh;
//   (b) no spans were dropped at the default trace capacity; and
//   (c) the pipeline.process stage children (acquire/detect/repair/apply)
//       account for the process span's wall time to within 5%.
void InstrumentedTraceRun() {
  Rng rng(2);
  ocr::CashBudgetOptions options;
  options.num_years = 4;
  auto truth = ocr::CashBudgetFixture::Random(options, &rng);
  DART_CHECK(truth.ok());
  obs::RunContext run;
  core::PipelineOptions pipeline_options;
  pipeline_options.run = &run;
  core::DartPipeline pipeline = MakePipeline(*truth, pipeline_options);
  ocr::NoiseModel noise({0.08, 0.10, 1, 1}, &rng);
  const std::string html = ocr::CashBudgetFixture::RenderHtml(*truth, &noise);

  obs::ExporterOptions exporter_options;
  exporter_options.interval = std::chrono::milliseconds(250);
  exporter_options.jsonl_path = "OBS_bench_end_to_end.metrics.jsonl";
  obs::PeriodicExporter exporter(&run, exporter_options);
  DART_CHECK_MSG(exporter.Start().ok(), "exporter failed to start");
  auto outcome = pipeline.Submit(core::ProcessRequest::FromHtml(html));
  DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
  DART_CHECK_MSG(exporter.Stop().ok(), "exporter failed to stop");
  DART_CHECK_MSG(exporter.records_written() >= 1,
                 "exporter wrote no metrics-delta records");

  const obs::MetricsSnapshot snap = run.metrics().Snapshot();
  DART_CHECK_MSG(snap.Counter("obs.spans_dropped") == 0,
                 "spans dropped at the default trace capacity");
  DART_CHECK_MSG(run.trace().spans_dropped() == 0,
                 "collector drop count disagrees with the registry");

  const std::vector<obs::SpanRecord> spans = run.trace().Snapshot();
  int64_t process_id = 0, process_ns = 0, children_ns = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "pipeline.process") {
      process_id = span.id;
      process_ns = span.duration_ns;
    }
  }
  DART_CHECK_MSG(process_id != 0 && process_ns > 0,
                 "no closed pipeline.process span in the trace");
  for (const obs::SpanRecord& span : spans) {
    if (span.parent == process_id) children_ns += span.duration_ns;
  }
  DART_CHECK_MSG(children_ns >= process_ns - process_ns / 20 &&
                     children_ns <= process_ns,
                 "pipeline stage spans do not cover the process span");

  dart::bench::WriteBenchTrace(run, "bench_end_to_end");
  std::printf(
      "\nobs acceptance: stage spans cover %.1f%% of pipeline.process "
      "(>= 95%% required); %lld metrics-delta records streamed, 0 spans "
      "dropped\n",
      100.0 * static_cast<double>(children_ns) /
          static_cast<double>(process_ns),
      static_cast<long long>(exporter.records_written()));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  HumanEffortTable();
  InstrumentedTraceRun();
  return 0;
}
