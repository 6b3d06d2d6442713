// large_doc: one closed-loop client calls DartPipeline::Submit (no
// RunContext attached) on 50-year cash budgets, ~500 rows each. Grounding
// dominates the request, so a grounding change moves this workload.

#include "stages.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr BudgetShape kShape{/*years=*/50, /*receipt_details=*/2,
                             /*disbursement_details=*/3, /*min_errors=*/3,
                             /*max_errors=*/3};
constexpr size_t kPoolSize = 64;
constexpr size_t kWarmup = 4;

}  // namespace

WorkloadResult RunLargeDoc(const RunOptions& options,
                           const std::string& trace_path) {
  WorkloadResult result;
  SetupTimer setup([] {
    return TimePipelineSetup(kShape.receipt_details,
                             kShape.disbursement_details);
  });

  const std::vector<BudgetDoc> pool =
      MakeBudgetPool(options.seed, kShape, kPoolSize);
  LogPool("large_doc", kShape, pool);
  const dart::core::DartPipeline pipeline =
      MakePipeline(kShape.receipt_details, kShape.disbursement_details);
  std::vector<dart::cons::GroundProgram> grounds;
  for (const BudgetDoc& doc : pool) {
    grounds.push_back(MustGround(doc.acquired, pipeline.constraints()));
  }

  auto submit = [&](size_t i) {
    const Clock::time_point start = Clock::now();
    auto outcome =
        pipeline.Submit(dart::core::ProcessRequest::FromHtml(pool[i].html));
    RequestSample sample{SecondsSince(start), false};
    if (outcome.ok()) {
      sample.ok = CheckProcessOutcome(*outcome, grounds[i], pool[i].errors);
      sample.value =
          static_cast<double>(outcome->repair.repair.cardinality());
    }
    return sample;
  };

  if (!options.trace) {
    const LoopStats loop =
        RunClosedLoop(pool.size(), kWarmup, options.seconds, submit,
                      &setup);
    AddLoopMetrics("large_doc", loop, static_cast<double>(loop.attempted),
                   &result);
    result.end_to_end.push_back({"setup_s", setup.MedianSeconds(), "s"});
    result.end_to_end.push_back(
        {"updates_per_doc", loop.MeanValue(), "count"});
    result.end_to_end.push_back(
        {"examined_per_session",
         OperatorEffort(pipeline, pool, grounds, &result), "count"});
    result.end_to_end.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
    return result;
  }

  // Traced run: half the time untraced for the overhead baseline, then the
  // traced requests, each followed by its stage replay.
  const LoopStats untraced =
      RunClosedLoop(pool.size(), kWarmup, options.seconds / 2, submit);
  result.attempted += untraced.attempted;
  result.failed += untraced.failed;
  Tracer tracer;
  LayerCounts counts;
  const TracedPhase traced = RunTracedPhase(
      pool.size(), options.seconds / 2, untraced, [&](size_t i) {
        const int64_t request = tracer.NewRequest();
        Tracer::Span span(&tracer, "submit", 0, request);
        auto outcome = pipeline.Submit(
            dart::core::ProcessRequest::FromHtml(pool[i].html));
        const double seconds = span.End();
        const bool ok =
            outcome.ok() &&
            CheckProcessOutcome(*outcome, grounds[i], pool[i].errors);
        const bool replayed = ReplaySubmit(pipeline, pool[i].html, &tracer,
                                           span.id(), request, &counts);
        ++result.attempted;
        if (!ok || !replayed) ++result.failed;
        return seconds;
      });
  tracer.PrintTable("large_doc", traced.requests);
  tracer.WriteJson(trace_path);
  LayerExtras extras;
  extras.trace_overhead_frac = traced.overhead_frac;
  result.per_layer = PerLayerMetrics(tracer, counts, extras);
  return result;
}

}  // namespace perfbench
