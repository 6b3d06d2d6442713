// Tests for the dart::obs observability layer: the sharded metrics registry
// under write contention, snapshot deltas, the span tree produced by a
// decomposed batch solve across pool threads and of the repair core's round
// loop (one-shot and batch), the no-op null-context
// path, the JSON run report (round-tripped through a minimal in-test
// parser), the engine's registry-published search counters, the bounded
// trace ring under overflow (head + latency-biased tail sampling), and the
// streaming PeriodicExporter lifecycle with its pluggable in-process sinks.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_util.h"
#include "milp/branch_and_bound.h"
#include "milp/decompose.h"
#include "milp/model.h"
#include "obs/context.h"
#include "obs/exporter.h"
#include "obs/registry.h"
#include "obs/report.h"
#include "obs/sink.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "repair/batch.h"
#include "repair/engine.h"

namespace dart::obs {
namespace {

// --- Registry --------------------------------------------------------------

TEST(RegistryTest, CountersGaugesHistograms) {
  MetricsRegistry registry;
  registry.AddCounter("a");
  registry.AddCounter("a", 4);
  registry.AddCounter("b", 0);  // registered, still zero
  registry.SetGauge("g", 2.5);
  registry.SetGauge("g", 7.0);  // last write wins
  registry.Observe("h", 0.25);
  registry.Observe("h", 0.75);

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Counter("a"), 5);
  EXPECT_EQ(snap.Counter("b"), 0);
  EXPECT_EQ(snap.Counter("never"), 0);
  EXPECT_EQ(snap.GaugeOr("g", -1), 7.0);
  EXPECT_EQ(snap.GaugeOr("never", -1), -1);
  ASSERT_EQ(snap.histograms.count("h"), 1u);
  const HistogramSnapshot& h = snap.histograms.at("h");
  EXPECT_EQ(h.count, 2);
  EXPECT_DOUBLE_EQ(h.sum, 1.0);
  EXPECT_DOUBLE_EQ(h.min, 0.25);
  EXPECT_DOUBLE_EQ(h.max, 0.75);
  int64_t bucket_total = 0;
  for (int64_t b : h.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, h.count);
}

TEST(RegistryTest, MergesThreadShardsUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  MetricsRegistry registry;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      const std::string mine = "thread." + std::to_string(t);
      for (int i = 0; i < kIncrements; ++i) {
        registry.AddCounter("shared");
        registry.AddCounter(mine);
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Concurrent snapshots must be safe and never overshoot the final total.
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot mid = registry.Snapshot();
    EXPECT_LE(mid.Counter("shared"),
              static_cast<int64_t>(kThreads) * kIncrements);
  }
  for (std::thread& thread : threads) thread.join();

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Counter("shared"),
            static_cast<int64_t>(kThreads) * kIncrements);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.Counter("thread." + std::to_string(t)), kIncrements);
  }
}

TEST(RegistryTest, DeltaSinceAttributesOnlyNewActivity) {
  MetricsRegistry registry;
  registry.AddCounter("c", 10);
  registry.AddCounter("only_before", 3);
  registry.SetGauge("g", 1.0);
  registry.Observe("h", 2.0);
  const MetricsSnapshot base = registry.Snapshot();

  registry.AddCounter("c", 5);
  registry.AddCounter("only_after", 2);
  registry.SetGauge("g", 9.0);
  registry.Observe("h", 4.0);
  const MetricsSnapshot delta = registry.Snapshot().DeltaSince(base);

  EXPECT_EQ(delta.Counter("c"), 5);
  EXPECT_EQ(delta.Counter("only_after"), 2);
  // Zero-delta names stay present (counters are monotone), so callers can
  // distinguish "untouched" from "unknown".
  ASSERT_EQ(delta.counters.count("only_before"), 1u);
  EXPECT_EQ(delta.counters.at("only_before"), 0);
  // Gauges are last-write-wins: the delta carries the current value.
  EXPECT_EQ(delta.GaugeOr("g", -1), 9.0);
  ASSERT_EQ(delta.histograms.count("h"), 1u);
  EXPECT_EQ(delta.histograms.at("h").count, 1);
  EXPECT_DOUBLE_EQ(delta.histograms.at("h").sum, 4.0);
}

// --- Labeled series --------------------------------------------------------

TEST(RegistryTest, LabeledNameEncodingAndParsing) {
  EXPECT_EQ(LabeledName("serve.requests", {}), "serve.requests");
  EXPECT_EQ(LabeledName("serve.requests", {{"tenant", "alpha"}}),
            "serve.requests{tenant=alpha}");
  EXPECT_EQ(LabeledName("m", {{"a", "1"}, {"b", "2"}}), "m{a=1,b=2}");
  // Characters outside [A-Za-z0-9_.:-] are sanitized to '_' on both sides
  // of the '=', keeping the encoding parseable without escapes.
  EXPECT_EQ(LabeledName("m", {{"te nant", "a=b,c{d}"}}),
            "m{te_nant=a_b_c_d_}");

  SeriesName bare = ParseSeriesName("serve.requests");
  EXPECT_EQ(bare.base, "serve.requests");
  EXPECT_TRUE(bare.labels.empty());

  SeriesName labeled = ParseSeriesName("m{a=1,b=2}");
  EXPECT_EQ(labeled.base, "m");
  ASSERT_EQ(labeled.labels.size(), 2u);
  EXPECT_EQ(labeled.labels[0].first, "a");
  EXPECT_EQ(labeled.labels[0].second, "1");
  EXPECT_EQ(labeled.labels[1].first, "b");
  EXPECT_EQ(labeled.labels[1].second, "2");

  // A malformed suffix comes back as the whole key, never a crash.
  EXPECT_EQ(ParseSeriesName("m{a=1").base, "m{a=1");
  EXPECT_TRUE(ParseSeriesName("m{a=1").labels.empty());
  EXPECT_EQ(ParseSeriesName("m{}").base, "m");
  EXPECT_TRUE(ParseSeriesName("m{}").labels.empty());
}

TEST(RegistryTest, LabeledCountersGaugesHistograms) {
  MetricsRegistry registry;
  registry.AddCounter("req", {{"tenant", "a"}}, 3);
  registry.AddCounter("req", {{"tenant", "b"}});
  registry.AddCounter("req", 10);  // the unlabeled sibling is distinct
  registry.SetGauge("depth", {{"tenant", "a"}}, 4.0);
  registry.Observe("lat", {{"tenant", "a"}}, 0.5);

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Counter("req", {{"tenant", "a"}}), 3);
  EXPECT_EQ(snap.Counter("req", {{"tenant", "b"}}), 1);
  EXPECT_EQ(snap.Counter("req"), 10);
  EXPECT_EQ(snap.Counter("req", {{"tenant", "never"}}), 0);
  EXPECT_EQ(snap.GaugeOr("depth", {{"tenant", "a"}}, -1), 4.0);
  EXPECT_EQ(snap.GaugeOr("depth", {{"tenant", "b"}}, -1), -1);
  EXPECT_EQ(snap.histograms.count("lat{tenant=a}"), 1u);
}

// The ISSUE-10 contention contract: 8 threads hammer the SAME counter name
// under 4 distinct tenant labels (2 threads per tenant), every increment
// also counted globally — per-label totals must be exact and the global
// series must equal the labeled sum (run under tsan_smoke/asan_smoke).
TEST(RegistryTest, LabeledSeriesExactUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  const std::vector<std::string> kTenants = {"alpha", "bravo", "charlie",
                                             "delta"};
  MetricsRegistry registry;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &go, &kTenants, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      const std::string& tenant = kTenants[static_cast<size_t>(t) % 4];
      // The serving idiom: precompute the encoded key once, then pay only
      // the unlabeled lock-free path per increment.
      const std::string series =
          LabeledName("serve.requests", {{"tenant", tenant}});
      for (int i = 0; i < kIncrements; ++i) {
        registry.AddCounter(series);
        registry.AddCounter("serve.requests");
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  const MetricsSnapshot snap = registry.Snapshot();
  int64_t labeled_sum = 0;
  for (const std::string& tenant : kTenants) {
    const int64_t value = snap.Counter("serve.requests", {{"tenant", tenant}});
    EXPECT_EQ(value, 2 * kIncrements) << tenant;
    labeled_sum += value;
  }
  EXPECT_EQ(snap.Counter("serve.requests"),
            static_cast<int64_t>(kThreads) * kIncrements);
  EXPECT_EQ(labeled_sum, snap.Counter("serve.requests"));
}

// --- Histogram buckets and quantiles ---------------------------------------

TEST(RegistryTest, HistogramBucketBoundsAndQuantiles) {
  EXPECT_DOUBLE_EQ(HistogramBucketUpperBound(0), 1e-6);
  EXPECT_DOUBLE_EQ(HistogramBucketUpperBound(1), 2e-6);
  EXPECT_DOUBLE_EQ(HistogramBucketUpperBound(10), 1024e-6);
  EXPECT_TRUE(std::isinf(HistogramBucketUpperBound(kHistogramBuckets - 1)));

  std::array<int64_t, kHistogramBuckets> buckets{};
  EXPECT_EQ(HistogramQuantileFromBuckets(buckets, 0, 0.99), 0);
  buckets[3] = 90;   // (4, 8] µs
  buckets[10] = 10;  // (512, 1024] µs
  const double p50 = HistogramQuantileFromBuckets(buckets, 100, 0.50);
  const double p99 = HistogramQuantileFromBuckets(buckets, 100, 0.99);
  EXPECT_DOUBLE_EQ(p50, HistogramBucketUpperBound(3));
  EXPECT_DOUBLE_EQ(p99, HistogramBucketUpperBound(10));
  EXPECT_LE(p50, p99);  // monotone by construction

  // The open last bucket reports a finite estimate.
  std::array<int64_t, kHistogramBuckets> open{};
  open[kHistogramBuckets - 1] = 5;
  EXPECT_TRUE(std::isfinite(HistogramQuantileFromBuckets(open, 5, 0.99)));

  // HistogramSnapshot::Quantile clamps into the observed [min, max].
  MetricsRegistry registry;
  registry.Observe("h", 0.003);
  registry.Observe("h", 0.005);
  const HistogramSnapshot h = registry.Snapshot().histograms.at("h");
  const double q99 = h.Quantile(0.99);
  EXPECT_GE(q99, h.min);
  EXPECT_LE(q99, h.max);
  EXPECT_LE(h.Quantile(0.5), q99);
}

// --- Prometheus exposition -------------------------------------------------

TEST(ReportTest, PrometheusLabeledFamiliesAndHistogramBuckets) {
  MetricsRegistry registry;
  registry.AddCounter("serve.completed", 7);
  registry.AddCounter("serve.completed", {{"tenant", "a"}}, 4);
  registry.AddCounter("serve.completed", {{"tenant", "b"}}, 3);
  registry.SetGauge("serve.queue_depth", {{"tenant", "a"}}, 2.0);
  registry.Observe("serve.request_seconds", 3e-6);   // bucket 2: (2, 4] µs
  registry.Observe("serve.request_seconds", 3e-6);
  registry.Observe("serve.request_seconds", 100e-6);  // bucket 7: (64, 128] µs
  registry.Observe("serve.request_seconds", {{"tenant", "a"}}, 3e-6);

  const std::string text = PrometheusText(registry.Snapshot());

  // One TYPE line per family; labeled and unlabeled samples share it.
  EXPECT_EQ(text.find("# TYPE serve_completed counter"),
            text.rfind("# TYPE serve_completed counter"));
  EXPECT_NE(text.find("serve_completed 7\n"), std::string::npos) << text;
  EXPECT_NE(text.find("serve_completed{tenant=\"a\"} 4\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("serve_completed{tenant=\"b\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("serve_queue_depth{tenant=\"a\"} 2\n"),
            std::string::npos);

  // True histogram exposition: cumulative buckets at the power-of-two
  // bounds, a +Inf bucket equal to the count, then _sum and _count.
  EXPECT_NE(text.find("# TYPE serve_request_seconds histogram"),
            std::string::npos);
  EXPECT_EQ(text.find("# TYPE serve_request_seconds summary"),
            std::string::npos);
  EXPECT_NE(text.find("serve_request_seconds_bucket{le=\"2e-06\"} 0\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("serve_request_seconds_bucket{le=\"4e-06\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_request_seconds_bucket{le=\"0.000128\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_request_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_request_seconds_count 3\n"), std::string::npos);
  // The labeled histogram's buckets merge the tenant label with le.
  EXPECT_NE(text.find(
                "serve_request_seconds_bucket{tenant=\"a\",le=\"4e-06\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("serve_request_seconds_count{tenant=\"a\"} 1\n"),
            std::string::npos);
}

// --- SLO tracker -----------------------------------------------------------

TEST(SloTest, ComputesBurnComplianceAndBudget) {
  MetricsRegistry registry;
  SloTracker tracker;

  SloSpec met;
  met.latency_objective_seconds = 10.0;  // generous: everything under it
  met.availability_objective = 0.5;
  tracker.Declare("fast", met);

  SloSpec breached;
  breached.latency_objective_seconds = 1e-6;  // unattainable
  breached.availability_objective = 0.999;
  tracker.Declare("slow", breached);

  for (int i = 0; i < 100; ++i) {
    registry.Observe("serve.request_seconds", {{"tenant", "fast"}}, 1e-3);
    registry.Observe("serve.request_seconds", {{"tenant", "slow"}}, 1e-3);
    registry.AddCounter("serve.accepted", {{"tenant", "fast"}});
    registry.AddCounter("serve.accepted", {{"tenant", "slow"}});
  }
  registry.AddCounter("serve.rejected", {{"tenant", "slow"}}, 25);
  tracker.Ingest(registry.Snapshot());

  const std::vector<SloStatus> statuses = tracker.Status();
  ASSERT_EQ(statuses.size(), 2u);
  const SloStatus& fast = statuses[0];  // sorted by tenant name
  const SloStatus& slow = statuses[1];
  ASSERT_EQ(fast.tenant, "fast");
  ASSERT_EQ(slow.tenant, "slow");

  EXPECT_TRUE(fast.latency.enabled);
  EXPECT_TRUE(fast.latency.compliant);
  EXPECT_EQ(fast.latency.events_total, 100);
  EXPECT_EQ(fast.latency.events_bad, 0);
  EXPECT_EQ(fast.latency.burn, 0);
  EXPECT_TRUE(fast.availability.compliant);
  EXPECT_DOUBLE_EQ(fast.budget_remaining, 1.0);

  EXPECT_FALSE(slow.latency.compliant);
  EXPECT_EQ(slow.latency.events_bad, 100);  // every request over 1 µs
  // bad_fraction 1.0 against an allowed fraction of 1 - p99 = 0.01.
  EXPECT_NEAR(slow.latency.burn, 100.0, 1e-9);
  // availability: 100 good / 25 bad = 0.8 observed against 0.999 —
  // bad_fraction 0.2 / allowed 0.001 = 200, the larger burn.
  EXPECT_FALSE(slow.availability.compliant);
  EXPECT_NEAR(slow.availability.observed, 0.8, 1e-12);
  EXPECT_NEAR(slow.availability.burn, 200.0, 1e-6);
  EXPECT_NEAR(slow.budget_remaining, 1.0 - 200.0, 1e-6);
}

TEST(SloTest, RollingWindowForgetsOldIntervals) {
  MetricsRegistry registry;
  SloTracker tracker;
  SloSpec spec;
  spec.latency_objective_seconds = 1.0;
  spec.window_ticks = 2;
  tracker.Declare("t", spec);

  // Tick 1: 10 slow observations (over the 1 s objective).
  for (int i = 0; i < 10; ++i) {
    registry.Observe("serve.request_seconds", {{"tenant", "t"}}, 2.0);
  }
  tracker.Ingest(registry.Snapshot());
  EXPECT_FALSE(tracker.Status()[0].latency.compliant);

  // Ticks 2 and 3: fast traffic only. The window (2 ticks) forgets tick 1.
  for (int tick = 0; tick < 2; ++tick) {
    for (int i = 0; i < 10; ++i) {
      registry.Observe("serve.request_seconds", {{"tenant", "t"}}, 1e-3);
    }
    tracker.Ingest(registry.Snapshot());
  }
  const SloStatus status = tracker.Status()[0];
  EXPECT_EQ(status.window_ticks_used, 2);
  EXPECT_EQ(status.latency.events_total, 20);
  EXPECT_EQ(status.latency.events_bad, 0);
  EXPECT_TRUE(status.latency.compliant);
  EXPECT_DOUBLE_EQ(status.budget_remaining, 1.0);
}

TEST(SloTest, FeedsFromExporterTicks) {
  RunContext run;
  SloTracker tracker;
  SloSpec spec;
  spec.latency_objective_seconds = 10.0;
  spec.availability_objective = 0.5;
  tracker.Declare("t", spec);

  ExporterOptions options;
  options.interval = std::chrono::milliseconds(5);
  options.sinks = {&tracker};
  PeriodicExporter exporter(&run, options);
  ASSERT_TRUE(exporter.Start().ok());
  for (int i = 0; i < 20; ++i) {
    run.metrics().Observe("serve.request_seconds", {{"tenant", "t"}}, 1e-3);
    run.metrics().AddCounter("serve.accepted", {{"tenant", "t"}});
  }
  ASSERT_TRUE(exporter.Stop().ok());  // final flush tick always ingests

  const SloStatus status = tracker.Status()[0];
  EXPECT_GE(status.window_ticks_used, 1);
  EXPECT_EQ(status.latency.events_total, 20);
  EXPECT_TRUE(status.latency.compliant);
  EXPECT_TRUE(status.availability.compliant);
  EXPECT_EQ(status.availability.events_total, 20);
}

// --- Spans & null context --------------------------------------------------

TEST(SpanTest, NestsOnThreadAndSupportsExplicitParents) {
  RunContext run;
  EXPECT_EQ(CurrentSpanId(&run), 0);
  int64_t outer_id = 0, inner_id = 0;
  {
    Span outer(&run, "outer");
    outer_id = outer.id();
    EXPECT_EQ(CurrentSpanId(&run), outer_id);
    {
      Span inner(&run, "inner");
      inner_id = inner.id();
      EXPECT_EQ(CurrentSpanId(&run), inner_id);
    }
    EXPECT_EQ(CurrentSpanId(&run), outer_id);

    // Explicit parent, as used across threads: parent under `outer` from a
    // thread that has no current span of its own.
    std::thread worker([&run, outer_id] {
      EXPECT_EQ(CurrentSpanId(&run), 0);
      Span cross(&run, "cross", outer_id);
      EXPECT_EQ(CurrentSpanId(&run), cross.id());
    });
    worker.join();
  }
  EXPECT_EQ(CurrentSpanId(&run), 0);

  const std::vector<SpanRecord> spans = run.trace().Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  std::map<std::string, SpanRecord> by_name;
  for (const SpanRecord& span : spans) {
    EXPECT_LT(span.parent, span.id);  // parents begin before children
    EXPECT_GE(span.duration_ns, 0);   // all closed
    by_name[span.name] = span;
  }
  EXPECT_EQ(by_name.at("outer").parent, 0);
  EXPECT_EQ(by_name.at("inner").parent, outer_id);
  EXPECT_EQ(by_name.at("cross").parent, outer_id);
  EXPECT_EQ(by_name.at("inner").id, inner_id);
}

TEST(SpanTest, EndIsIdempotentAndPopsEarly) {
  RunContext run;
  Span outer(&run, "outer");
  Span inner(&run, "inner");
  inner.End();
  EXPECT_EQ(CurrentSpanId(&run), outer.id());
  inner.End();  // second End is a no-op
  EXPECT_EQ(CurrentSpanId(&run), outer.id());
}

TEST(NullContextTest, SinkIsSafeAndCheap) {
  // The entire instrumentation surface must be callable with run == nullptr
  // — this is the default for every options struct, so the uninstrumented
  // pipeline pays one branch per site and nothing else.
  EXPECT_EQ(CurrentSpanId(nullptr), 0);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000000; ++i) {
    Count(nullptr, "c");
    SetGauge(nullptr, "g", 1.0);
    Observe(nullptr, "h", 1.0);
    Count(nullptr, "c", {{"tenant", "t"}});
    SetGauge(nullptr, "g", {{"tenant", "t"}}, 1.0);
    Observe(nullptr, "h", {{"tenant", "t"}}, 1.0);
    Span span(nullptr, "s");
    EXPECT_EQ(span.id(), 0);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(CurrentSpanId(nullptr), 0);
  // 4M no-op calls in generous time: catches an accidental allocation or
  // lock on the null path without being load-sensitive.
  EXPECT_LT(seconds, 2.0);
}

// --- Span tree across the decomposed batch solver --------------------------

// Two independent blocks, so the decomposed solve runs a 2-model batch.
milp::Model TwoBlockModel() {
  milp::Model model;
  const int a0 = model.AddVariable("a0", milp::VarType::kBinary, 0, 1);
  const int a1 = model.AddVariable("a1", milp::VarType::kBinary, 0, 1);
  const int b0 = model.AddVariable("b0", milp::VarType::kBinary, 0, 1);
  const int b1 = model.AddVariable("b1", milp::VarType::kBinary, 0, 1);
  model.AddRow("ra", {{a0, 1.0}, {a1, 1.0}}, milp::RowSense::kGe, 1);
  model.AddRow("rb", {{b0, 1.0}, {b1, 1.0}}, milp::RowSense::kGe, 1);
  model.SetObjective({{a0, 1.0}, {a1, 1.0}, {b0, 1.0}, {b1, 1.0}}, 0,
                     milp::ObjectiveSense::kMinimize);
  return model;
}

TEST(TraceTest, DecomposedBatchSolveFormsWellNestedSpanTree) {
  // At 4 threads the two components are searched on pool threads, yet each
  // gets a milp.instance span parented to the caller's span with its
  // milp.search inside — and the registry delta equals the 1-thread one.
  MetricsSnapshot deltas[2];
  for (int pass = 0; pass < 2; ++pass) {
    const int threads = pass == 0 ? 1 : 4;
    RunContext run;
    milp::MilpOptions options;
    options.objective_is_integral = true;
    options.search.num_threads = threads;
    options.run = &run;
    const milp::Model model = TwoBlockModel();
    int64_t caller_id = 0;
    {
      Span caller(&run, "caller");
      caller_id = caller.id();
      const milp::MilpResult result =
          milp::SolveMilpDecomposed(model, options);
      ASSERT_EQ(result.status, milp::MilpResult::SolveStatus::kOptimal);
      ASSERT_EQ(result.num_components, 2);
    }

    const std::vector<SpanRecord> spans = run.trace().Snapshot();
    std::set<int64_t> instance_ids;
    for (const SpanRecord& span : spans) {
      EXPECT_LT(span.parent, span.id);
      EXPECT_GE(span.duration_ns, 0);
      if (span.name == "milp.instance") {
        EXPECT_EQ(span.parent, caller_id) << "threads=" << threads;
        instance_ids.insert(span.id);
      }
    }
    EXPECT_EQ(instance_ids.size(), 2u) << "threads=" << threads;
    int search_spans = 0;
    for (const SpanRecord& span : spans) {
      if (span.name != "milp.search") continue;
      ++search_spans;
      EXPECT_EQ(instance_ids.count(span.parent), 1u)
          << "search span not nested under its instance span";
    }
    EXPECT_EQ(search_spans, 2) << "threads=" << threads;

    deltas[pass] = run.metrics().Snapshot();
    EXPECT_EQ(deltas[pass].Counter("milp.solves"), 2);
    EXPECT_GT(deltas[pass].Counter("milp.nodes"), 0);
    EXPECT_GT(deltas[pass].Counter("milp.lp_iterations"), 0);
    EXPECT_EQ(deltas[pass].GaugeOr("milp.components", -1), 2.0);
    EXPECT_EQ(deltas[pass].GaugeOr("milp.largest_component_vars", -1), 2.0);
  }
  EXPECT_EQ(deltas[0].counters, deltas[1].counters);
  EXPECT_EQ(deltas[0].gauges, deltas[1].gauges);
}

TEST(TraceTest, SerialBatchNestsSearchUnderInstanceSpans) {
  // The serial batch path (num_threads == 1) solves the components one after
  // another: a milp.instance span per component, each with the component's
  // milp.search span as a child.
  RunContext run;
  milp::MilpOptions options;
  options.objective_is_integral = true;
  options.search.num_threads = 1;
  options.run = &run;
  const milp::Model model = TwoBlockModel();
  const milp::MilpResult result = milp::SolveMilpDecomposed(model, options);
  ASSERT_EQ(result.status, milp::MilpResult::SolveStatus::kOptimal);
  ASSERT_EQ(result.num_components, 2);

  const std::vector<SpanRecord> spans = run.trace().Snapshot();
  std::set<int64_t> instance_ids;
  for (const SpanRecord& span : spans) {
    EXPECT_LT(span.parent, span.id);
    if (span.name == "milp.instance") instance_ids.insert(span.id);
  }
  EXPECT_EQ(instance_ids.size(), 2u);
  int search_spans = 0;
  for (const SpanRecord& span : spans) {
    if (span.name != "milp.search") continue;
    ++search_spans;
    EXPECT_EQ(instance_ids.count(span.parent), 1u)
        << "search span not nested under its instance span";
  }
  EXPECT_EQ(search_spans, 2);
  EXPECT_EQ(run.metrics().Snapshot().Counter("milp.solves"), 2);
}

// Span name → parent span name (root spans map to "") for every closed span,
// after asserting the tree invariants: parents begin first and every parent
// id resolves.
std::multimap<std::string, std::string> ParentNames(const RunContext& run) {
  const std::vector<SpanRecord> spans = run.trace().Snapshot();
  std::map<int64_t, std::string> names;
  for (const SpanRecord& span : spans) names[span.id] = span.name;
  std::multimap<std::string, std::string> parents;
  for (const SpanRecord& span : spans) {
    EXPECT_LT(span.parent, span.id);
    EXPECT_GE(span.duration_ns, 0) << span.name;
    EXPECT_TRUE(span.parent == 0 || names.count(span.parent) == 1);
    parents.emplace(span.name, span.parent == 0 ? "" : names[span.parent]);
  }
  return parents;
}

std::multiset<std::string> ParentsOf(
    const std::multimap<std::string, std::string>& parents,
    const std::string& name) {
  std::multiset<std::string> out;
  auto [begin, end] = parents.equal_range(name);
  for (auto it = begin; it != end; ++it) out.insert(it->second);
  return out;
}

// One ComputeRepair is one round loop under repair.compute: grounding,
// translation and decomposition once, one repair.attempt per big-M round
// holding the batch solve (instance → search per component), then the
// verify.
TEST(TraceTest, ComputeRepairFormsTheRoundLoopSpanTree) {
  const bench::Scenario scenario =
      bench::MakeBudgetScenario(/*seed=*/5, /*years=*/3, /*num_errors=*/2);
  RunContext run;
  repair::RepairEngineOptions options;
  options.run = &run;
  const repair::RepairEngine engine(options);
  auto outcome = engine.ComputeRepair(scenario.acquired, scenario.constraints);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->stats.bigm_retries, 0);

  const auto parents = ParentNames(run);
  using Names = std::multiset<std::string>;
  EXPECT_EQ(ParentsOf(parents, "repair.compute"), Names{""});
  for (const char* phase : {"repair.ground", "repair.translate",
                            "repair.decompose", "repair.attempt",
                            "repair.verify"}) {
    EXPECT_EQ(ParentsOf(parents, phase), Names{"repair.compute"}) << phase;
  }
  EXPECT_EQ(ParentsOf(parents, "repair.solve"), Names{"repair.attempt"});
  const Names instances = ParentsOf(parents, "milp.instance");
  EXPECT_FALSE(instances.empty());
  EXPECT_EQ(instances.count("repair.solve"), instances.size());
  EXPECT_EQ(ParentsOf(parents, "milp.search").count("milp.instance"),
            instances.size());
  EXPECT_EQ(parents.size(), 7 + 2 * instances.size());
}

// A batch is one round loop over every document under repair.batch: one
// translate and one decompose span for the pooled fan-out (the pipeline's
// ground programs are shared, so nothing is grounded), one solve per round
// whose instances nest under it even when searched on pool threads, and one
// verify per repaired document.
TEST(TraceTest, BatchRepairFormsTheRoundLoopSpanTree) {
  std::vector<bench::Scenario> scenarios;
  std::vector<cons::GroundProgram> grounds;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    scenarios.push_back(bench::MakeBudgetScenario(seed, /*years=*/2, 2));
  }
  for (const bench::Scenario& scenario : scenarios) {
    auto ground =
        cons::GroundConstraintProgram(scenario.acquired, scenario.constraints);
    ASSERT_TRUE(ground.ok());
    grounds.push_back(std::move(ground).value());
  }
  std::vector<repair::BatchRepairRequest> requests;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    requests.push_back({&scenarios[i].acquired, &grounds[i], {}});
  }
  RunContext run;
  repair::RepairEngineOptions options;
  options.run = &run;
  options.milp.search.num_threads = 2;
  const auto outcomes =
      repair::ComputeRepairBatch(requests, scenarios[0].constraints, options);
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_FALSE(outcome->already_consistent);
  }

  const auto parents = ParentNames(run);
  using Names = std::multiset<std::string>;
  EXPECT_EQ(ParentsOf(parents, "repair.batch"), Names{""});
  EXPECT_EQ(ParentsOf(parents, "repair.ground"), Names{});
  EXPECT_EQ(ParentsOf(parents, "repair.translate"), Names{"repair.batch"});
  EXPECT_EQ(ParentsOf(parents, "repair.decompose"), Names{"repair.batch"});
  const Names verifies = ParentsOf(parents, "repair.verify");
  EXPECT_EQ(verifies.size(), scenarios.size());
  EXPECT_EQ(verifies.count("repair.batch"), scenarios.size());
  const Names attempts = ParentsOf(parents, "repair.attempt");
  EXPECT_FALSE(attempts.empty());
  EXPECT_EQ(attempts.count("repair.batch"), attempts.size());
  const Names solves = ParentsOf(parents, "repair.solve");
  EXPECT_EQ(solves.size(), attempts.size());
  EXPECT_EQ(solves.count("repair.attempt"), attempts.size());
  const Names instances = ParentsOf(parents, "milp.instance");
  EXPECT_GE(instances.size(), scenarios.size());
  EXPECT_EQ(instances.count("repair.solve"), instances.size());
  EXPECT_EQ(ParentsOf(parents, "milp.search").count("milp.instance"),
            instances.size());
}

// --- JSON run report -------------------------------------------------------

// Minimal JSON parser — just enough for the run-report schema (objects,
// arrays, strings without exotic escapes, numbers, booleans, null).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue Parse() {
    JsonValue value = ParseValue();
    SkipWs();
    EXPECT_EQ(pos_, text_.size()) << "trailing bytes after JSON document";
    return value;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    SkipWs();
    EXPECT_LT(pos_, text_.size()) << "unexpected end of JSON";
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void Expect(char c) {
    EXPECT_EQ(Peek(), c) << "at byte " << pos_;
    ++pos_;
  }

  JsonValue ParseValue() {
    const char c = Peek();
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  JsonValue ParseObject() {
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    Expect('{');
    if (Peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      JsonValue key = ParseString();
      Expect(':');
      value.object[key.str] = ParseValue();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return value;
    }
  }

  JsonValue ParseArray() {
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    Expect('[');
    if (Peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array.push_back(ParseValue());
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return value;
    }
  }

  JsonValue ParseString() {
    JsonValue value;
    value.type = JsonValue::Type::kString;
    Expect('"');
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        if (esc == 'n') {
          c = '\n';
        } else if (esc == 't') {
          c = '\t';
        } else {
          c = esc;  // \" \\ \/ — metric names never need \u escapes
        }
      }
      value.str.push_back(c);
    }
    Expect('"');
    return value;
  }

  JsonValue ParseBool() {
    JsonValue value;
    value.type = JsonValue::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      value.boolean = true;
      pos_ += 4;
    } else {
      EXPECT_EQ(text_.compare(pos_, 5, "false"), 0);
      pos_ += 5;
    }
    return value;
  }

  JsonValue ParseNull() {
    EXPECT_EQ(text_.compare(pos_, 4, "null"), 0);
    pos_ += 4;
    return JsonValue{};
  }

  JsonValue ParseNumber() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    EXPECT_GT(pos_, start) << "expected a number at byte " << start;
    value.number = std::stod(text_.substr(start, pos_ - start));
    return value;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(ReportTest, JsonRoundTripMatchesSnapshotAndTrace) {
  RunContext run;
  run.metrics().AddCounter("milp.nodes", 42);
  run.metrics().AddCounter("repair.attempts", 2);
  run.metrics().SetGauge("milp.components", 3.0);
  run.metrics().Observe("repair.solve_seconds", 0.125);
  {
    Span outer(&run, "pipeline.process");
    Span inner(&run, "pipeline.repair");
  }

  const std::string json = RunReportJson(run);
  JsonValue doc = JsonParser(json).Parse();
  ASSERT_EQ(doc.type, JsonValue::Type::kObject);
  EXPECT_EQ(doc.at("schema").str, std::string(kRunReportSchema));
  EXPECT_EQ(doc.at("schema_version").number, kRunReportSchemaVersion);

  const MetricsSnapshot snap = run.metrics().Snapshot();
  const JsonValue& counters = doc.at("counters");
  ASSERT_EQ(counters.type, JsonValue::Type::kObject);
  EXPECT_EQ(counters.object.size(), snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    ASSERT_EQ(counters.object.count(name), 1u) << name;
    EXPECT_EQ(counters.at(name).number, static_cast<double>(value)) << name;
  }
  EXPECT_EQ(doc.at("gauges").at("milp.components").number, 3.0);

  const JsonValue& hist = doc.at("histograms").at("repair.solve_seconds");
  EXPECT_EQ(hist.at("count").number, 1.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number, 0.125);
  ASSERT_EQ(hist.at("buckets").type, JsonValue::Type::kArray);
  double bucket_total = 0;
  for (const JsonValue& pair : hist.at("buckets").array) {
    ASSERT_EQ(pair.array.size(), 2u);
    EXPECT_GE(pair.array[0].number, 0.0);
    EXPECT_LT(pair.array[0].number, kHistogramBuckets);
    bucket_total += pair.array[1].number;
  }
  EXPECT_EQ(bucket_total, 1.0);

  const JsonValue& spans = doc.at("spans");
  ASSERT_EQ(spans.type, JsonValue::Type::kArray);
  ASSERT_EQ(spans.array.size(), 2u);
  EXPECT_EQ(spans.array[0].at("name").str, "pipeline.process");
  EXPECT_EQ(spans.array[1].at("name").str, "pipeline.repair");
  EXPECT_EQ(spans.array[1].at("parent").number,
            spans.array[0].at("id").number);
  for (const JsonValue& span : spans.array) {
    EXPECT_LT(span.at("parent").number, span.at("id").number);
    EXPECT_GE(span.at("duration_ns").number, 0.0);
  }

  // WriteRunReport writes byte-identical content (all spans are closed, so
  // nothing in the report depends on "now").
  const std::string path = "obs_test_report.json";
  ASSERT_TRUE(WriteRunReport(run, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), json);
  std::remove(path.c_str());
}

TEST(ReportTest, RunReportCarriesBucketBounds) {
  RunContext run;
  run.metrics().Observe("lat", 3e-6);                      // bucket 2
  run.metrics().Observe("lat", {{"tenant", "a"}}, 3e-6);   // labeled sibling
  const std::string json = RunReportJson(run);
  JsonValue doc = JsonParser(json).Parse();
  for (const std::string& name : {std::string("lat"),
                                  std::string("lat{tenant=a}")}) {
    const JsonValue& hist = doc.at("histograms").at(name);
    const auto& buckets = hist.at("buckets").array;
    const auto& bounds = hist.at("bucket_bounds").array;
    ASSERT_EQ(buckets.size(), 1u) << name;
    ASSERT_EQ(bounds.size(), buckets.size()) << name;
    EXPECT_EQ(buckets[0].array[0].number, 2) << name;
    EXPECT_DOUBLE_EQ(bounds[0].number, 4e-6) << name;
  }
}

TEST(ReportTest, ChromeTraceExportsSpansAsCompleteEvents) {
  RunContext run;
  {
    Span outer(&run, "outer");
    Span inner(&run, "inner");
  }
  Span open_span(&run, "still.open");
  const std::string json = ChromeTraceJson(run);
  JsonValue doc = JsonParser(json).Parse();
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 3u);
  bool saw_open = false;
  for (const JsonValue& event : events) {
    EXPECT_EQ(event.at("ph").str, "X");
    EXPECT_EQ(event.at("pid").number, 1);
    EXPECT_GE(event.at("ts").number, 0);
    EXPECT_GE(event.at("dur").number, 0);
    const auto& args = event.at("args").object;
    EXPECT_GT(args.at("id").number, 0);
    if (event.at("name").str == "still.open") {
      saw_open = true;
      EXPECT_EQ(event.at("dur").number, 0);
      EXPECT_TRUE(args.at("open").boolean);
    }
  }
  EXPECT_TRUE(saw_open);
  open_span.End();

  const std::string path = "obs_test_chrome.trace.json";
  ASSERT_TRUE(WriteChromeTrace(run, path).ok());
  std::ifstream file(path);
  ASSERT_TRUE(file.is_open());
  std::ostringstream text;
  text << file.rdbuf();
  EXPECT_NE(text.str().find("\"traceEvents\""), std::string::npos);
  std::remove(path.c_str());
}

// --- Engine search counters via the registry --------------------------------

TEST(EngineStatsTest, RegistryDeltaIsDeterministicAcrossIdenticalRuns) {
  const bench::Scenario scenario =
      bench::MakeBudgetScenario(/*seed=*/5, /*years=*/2, /*num_errors=*/2);

  // Two independent contexts around two identical single-threaded solves:
  // the published search counters must agree exactly — this is the contract
  // benches rely on when they read counters from one instrumented replay
  // instead of the timed loop.
  RunContext first_run;
  repair::RepairEngineOptions first_options;
  first_options.milp.search.num_threads = 1;  // deterministic search tree
  first_options.run = &first_run;
  repair::RepairEngine first_engine(first_options);
  auto first =
      first_engine.ComputeRepair(scenario.acquired, scenario.constraints);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  RunContext second_run;
  repair::RepairEngineOptions second_options;
  second_options.milp.search.num_threads = 1;
  second_options.run = &second_run;
  repair::RepairEngine second_engine(second_options);
  auto second =
      second_engine.ComputeRepair(scenario.acquired, scenario.constraints);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  const MetricsSnapshot a = first_run.metrics().Snapshot();
  const MetricsSnapshot b = second_run.metrics().Snapshot();
  EXPECT_GT(a.Counter("milp.nodes"), 0);
  EXPECT_EQ(a.Counter("milp.nodes"), b.Counter("milp.nodes"));
  EXPECT_EQ(a.Counter("milp.lp_iterations"), b.Counter("milp.lp_iterations"));
  EXPECT_EQ(a.Counter("milp.lp_warm_solves"),
            b.Counter("milp.lp_warm_solves"));
  EXPECT_EQ(a.Counter("repair.attempts"), 1);
}

TEST(EngineStatsTest, SharedContextAttributesEachSolveByDelta) {
  const bench::Scenario scenario =
      bench::MakeBudgetScenario(/*seed=*/6, /*years=*/2, /*num_errors=*/2);
  RunContext run;
  repair::RepairEngineOptions options;
  options.milp.search.num_threads = 1;
  options.run = &run;
  repair::RepairEngine engine(options);

  const MetricsSnapshot base = run.metrics().Snapshot();
  auto first = engine.ComputeRepair(scenario.acquired, scenario.constraints);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const MetricsSnapshot mid = run.metrics().Snapshot();
  auto second = engine.ComputeRepair(scenario.acquired, scenario.constraints);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const MetricsSnapshot end = run.metrics().Snapshot();

  // Snapshot deltas isolate each solve even though both share one registry:
  // identical inputs produce identical per-solve deltas...
  const int64_t first_nodes = mid.DeltaSince(base).Counter("milp.nodes");
  const int64_t second_nodes = end.DeltaSince(mid).Counter("milp.nodes");
  EXPECT_GT(first_nodes, 0);
  EXPECT_EQ(first_nodes, second_nodes);
  EXPECT_EQ(mid.DeltaSince(base).Counter("milp.lp_iterations"),
            end.DeltaSince(mid).Counter("milp.lp_iterations"));
  // ...while the registry accumulates across the run.
  EXPECT_EQ(end.Counter("milp.nodes"), first_nodes + second_nodes);
  EXPECT_EQ(end.Counter("repair.attempts"), 2);
}

// --- Bounded trace ring under overflow --------------------------------------

TEST(TraceRingTest, OverflowDropsExactlyAndKeepsValidTree) {
  TraceOptions tiny;
  tiny.capacity = 4;
  tiny.head_samples_per_name = 1;
  RunContext run(tiny);
  constexpr int kIterations = 100;
  for (int i = 0; i < kIterations; ++i) {
    Span iter(&run, "loop.iter");
    Span child(&run, "loop.child");
  }

  // 200 spans total; one of each name is pinned by head sampling, the ring
  // keeps 4 closed spans, everything else is evicted — exactly.
  const int64_t expected_drops = 2 * kIterations - 2 - 4;
  EXPECT_EQ(run.trace().spans_dropped(), expected_drops);
  EXPECT_EQ(run.metrics().Snapshot().Counter("obs.spans_dropped"),
            expected_drops);

  const std::vector<SpanRecord> spans = run.trace().Snapshot();
  ASSERT_EQ(spans.size(), 6u);
  // The pinned head samples are the very first iteration's pair.
  EXPECT_EQ(spans[0].id, 1);
  EXPECT_EQ(spans[0].name, "loop.iter");
  EXPECT_EQ(spans[1].id, 2);
  EXPECT_EQ(spans[1].name, "loop.child");
  // Survivors form a valid tree: sorted by id, parent < id, and every
  // non-zero parent resolves to a surviving record (evictions re-root).
  std::set<int64_t> ids;
  int64_t previous_id = 0;
  for (const SpanRecord& span : spans) {
    EXPECT_GT(span.id, previous_id);
    previous_id = span.id;
    ids.insert(span.id);
  }
  for (const SpanRecord& span : spans) {
    EXPECT_LT(span.parent, span.id);
    if (span.parent != 0) {
      EXPECT_EQ(ids.count(span.parent), 1u) << span.id;
    }
    EXPECT_GE(span.duration_ns, 0);
  }
}

TEST(TraceRingTest, OpenSpansSurviveZeroCapacity) {
  TraceOptions none;
  none.capacity = 0;
  none.head_samples_per_name = 0;
  RunContext run(none);
  Span open(&run, "still.open");
  {
    Span closed(&run, "already.closed");
  }
  // The closed span had nowhere to go; the open one is never evicted.
  EXPECT_EQ(run.trace().spans_dropped(), 1);
  const std::vector<SpanRecord> spans = run.trace().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "still.open");
  EXPECT_EQ(spans[0].duration_ns, -1);
  EXPECT_LE(spans[0].start_ns, run.trace().NowNs());
}

// --- Streaming exporter -----------------------------------------------------

std::vector<JsonValue> ReadMetricsDeltaStream(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<JsonValue> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    records.push_back(JsonParser(line).Parse());
  }
  return records;
}

/// Shared checks for any metrics-delta stream: schema on every record,
/// contiguous seq from 0, non-negative counter deltas, `"final": true` on
/// exactly the last record, and counters telescoping to `final_snapshot`.
void ExpectValidStream(const std::vector<JsonValue>& records,
                       const MetricsSnapshot& final_snapshot) {
  ASSERT_FALSE(records.empty());
  std::map<std::string, int64_t> summed;
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonValue& record = records[i];
    ASSERT_EQ(record.type, JsonValue::Type::kObject);
    EXPECT_EQ(record.at("schema").str, std::string(kMetricsDeltaSchema));
    EXPECT_EQ(record.at("schema_version").number, kMetricsDeltaSchemaVersion);
    EXPECT_EQ(record.at("seq").number, static_cast<double>(i));
    EXPECT_GE(record.at("uptime_ms").number, 0.0);
    EXPECT_EQ(record.at("final").boolean, i + 1 == records.size());
    for (const auto& [name, value] : record.at("counters").object) {
      EXPECT_GE(value.number, 0.0) << name;
      summed[name] += static_cast<int64_t>(value.number);
    }
  }
  EXPECT_EQ(summed.size(), final_snapshot.counters.size());
  for (const auto& [name, value] : final_snapshot.counters) {
    EXPECT_EQ(summed[name], value) << name;
  }
}

TEST(ExporterTest, DeltasTelescopeToFinalSnapshot) {
  const std::string jsonl_path = "obs_test_stream.jsonl";
  const std::string prom_path = "obs_test_stream.prom";
  RunContext run;
  run.metrics().AddCounter("pre.start.activity", 3);  // before Start()

  ExporterOptions options;
  options.interval = std::chrono::milliseconds(5);
  options.jsonl_path = jsonl_path;
  options.prometheus_path = prom_path;
  PeriodicExporter exporter(&run, options);
  ASSERT_TRUE(exporter.Start().ok());
  EXPECT_FALSE(exporter.Start().ok());  // double Start refused

  for (int i = 0; i < 5; ++i) {
    run.metrics().AddCounter("tick.activity", 7);
    run.metrics().SetGauge("tick.gauge", static_cast<double>(i));
    run.metrics().Observe("tick.seconds", 0.001);
    std::this_thread::sleep_for(std::chrono::milliseconds(8));
  }
  ASSERT_TRUE(exporter.Stop().ok());
  ASSERT_TRUE(exporter.Stop().ok());  // idempotent

  const std::vector<JsonValue> records = ReadMetricsDeltaStream(jsonl_path);
  EXPECT_EQ(static_cast<int64_t>(records.size()),
            exporter.records_written());
  ExpectValidStream(records, run.metrics().Snapshot());
  // The final record also telescopes the histogram count.
  int64_t observations = 0;
  for (const JsonValue& record : records) {
    const auto& histograms = record.at("histograms").object;
    auto it = histograms.find("tick.seconds");
    if (it != histograms.end()) {
      observations += static_cast<int64_t>(it->second.at("count").number);
    }
  }
  EXPECT_EQ(observations, 5);

  // Prometheus mirror holds the full final snapshot with sanitized names.
  std::ifstream prom(prom_path);
  ASSERT_TRUE(prom.is_open());
  std::ostringstream prom_text;
  prom_text << prom.rdbuf();
  EXPECT_NE(prom_text.str().find("# TYPE"), std::string::npos);
  EXPECT_NE(prom_text.str().find("tick_activity 35"), std::string::npos);
  std::remove(jsonl_path.c_str());
  std::remove(prom_path.c_str());
}

TEST(ExporterTest, StopWithoutTicksStillFlushesOneFinalRecord) {
  const std::string jsonl_path = "obs_test_stream_final.jsonl";
  RunContext run;
  run.metrics().AddCounter("only.activity", 11);
  ExporterOptions options;
  options.interval = std::chrono::hours(1);  // no periodic tick fires
  options.jsonl_path = jsonl_path;
  {
    PeriodicExporter exporter(&run, options);
    ASSERT_TRUE(exporter.Start().ok());
    // Destructor-driven Stop() must flush the final record.
  }
  const std::vector<JsonValue> records = ReadMetricsDeltaStream(jsonl_path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].at("final").boolean);
  EXPECT_EQ(records[0].at("counters").at("only.activity").number, 11.0);
  std::remove(jsonl_path.c_str());
}

TEST(ExporterTest, NullRunIsInert) {
  ExporterOptions options;
  options.jsonl_path = "obs_test_never_written.jsonl";
  PeriodicExporter exporter(nullptr, options);
  EXPECT_TRUE(exporter.Start().ok());
  EXPECT_TRUE(exporter.Stop().ok());
  EXPECT_EQ(exporter.records_written(), 0);
  std::ifstream in(options.jsonl_path);
  EXPECT_FALSE(in.is_open());
}

TEST(ExporterTest, ConcurrentTrafficStreamsConsistently) {
  // Eight writer threads race the exporter's 1 ms ticks; run under the
  // tsan_smoke target this doubles as the data-race check for the streaming
  // path. Whatever interleaving happens, the stream must stay well-formed
  // and telescope to the final registry state.
  const std::string jsonl_path = "obs_test_stream_race.jsonl";
  RunContext run;
  ExporterOptions options;
  options.interval = std::chrono::milliseconds(1);
  options.jsonl_path = jsonl_path;
  PeriodicExporter exporter(&run, options);
  ASSERT_TRUE(exporter.Start().ok());

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&run, t] {
      const std::string mine = "race.thread." + std::to_string(t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        run.metrics().AddCounter("race.shared");
        run.metrics().AddCounter(mine);
        if (i % 64 == 0) {
          Span span(&run, "race.span");
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  ASSERT_TRUE(exporter.Stop().ok());

  const MetricsSnapshot final_snapshot = run.metrics().Snapshot();
  EXPECT_EQ(final_snapshot.Counter("race.shared"),
            static_cast<int64_t>(kThreads) * kOpsPerThread);
  ExpectValidStream(ReadMetricsDeltaStream(jsonl_path), final_snapshot);
  std::remove(jsonl_path.c_str());
}

// --- Latency-biased tail sampling -------------------------------------------

/// Closes one span of `name` that lasted at least `duration`.
void RunSpan(RunContext* run, const char* name,
             std::chrono::milliseconds duration =
                 std::chrono::milliseconds(0)) {
  Span span(run, name);
  if (duration.count() > 0) std::this_thread::sleep_for(duration);
}

// With tail sampling on, the slowest spans of a name survive arbitrary ring
// churn that would have evicted them under head sampling alone — and only
// real ring evictions count as drops.
TEST(TailSamplingTest, SlowestSpansSurviveRingChurn) {
  TraceOptions options;
  options.capacity = 4;
  options.head_samples_per_name = 0;
  options.tail_samples_per_name = 2;
  RunContext run(options);

  constexpr int kSpans = 50;
  for (int i = 0; i < kSpans; ++i) {
    // Spans 10 and 30 are orders of magnitude slower than the rest; by the
    // end the ring has churned them out many times over.
    const auto duration = i == 10   ? std::chrono::milliseconds(8)
                          : i == 30 ? std::chrono::milliseconds(4)
                                    : std::chrono::milliseconds(0);
    RunSpan(&run, "tail.req", duration);
  }

  // 50 closed spans; 2 retained as tails, 4 in the ring, the rest dropped.
  EXPECT_EQ(run.trace().spans_dropped(), kSpans - 2 - 4);
  const std::vector<SpanRecord> spans = run.trace().Snapshot();
  ASSERT_EQ(spans.size(), 6u);
  std::set<int64_t> ids;
  int64_t previous_id = 0;
  for (const SpanRecord& span : spans) {
    EXPECT_GT(span.id, previous_id);  // still sorted by id
    previous_id = span.id;
    ids.insert(span.id);
  }
  // Ids are 1-based in Begin() order: the slow spans are 11 and 31.
  EXPECT_EQ(ids.count(11), 1u);
  EXPECT_EQ(ids.count(31), 1u);
}

// Displacement from the tail set demotes the span into the ring — it ages
// out normally instead of being dropped on the spot.
TEST(TailSamplingTest, DisplacedTailSpanDemotesToRing) {
  TraceOptions options;
  options.capacity = 100;
  options.head_samples_per_name = 0;
  options.tail_samples_per_name = 1;
  RunContext run(options);

  RunSpan(&run, "demote.req", std::chrono::milliseconds(3));  // enters tail
  RunSpan(&run, "demote.req");  // faster: straight to the ring
  RunSpan(&run, "demote.req", std::chrono::milliseconds(8));  // displaces #1

  EXPECT_EQ(run.trace().spans_dropped(), 0);  // demotion is not a drop
  EXPECT_EQ(run.trace().Snapshot().size(), 3u);
}

// Tail samples coexist with head samples and only apply per name.
TEST(TailSamplingTest, TailsArePerNameAndAdditiveToHeads) {
  TraceOptions options;
  options.capacity = 2;
  options.head_samples_per_name = 1;
  options.tail_samples_per_name = 1;
  RunContext run(options);

  for (int i = 0; i < 10; ++i) {
    RunSpan(&run, "a.req", i == 7 ? std::chrono::milliseconds(5)
                                  : std::chrono::milliseconds(0));
    RunSpan(&run, "b.req");
  }
  const std::vector<SpanRecord> spans = run.trace().Snapshot();
  // Per name: 1 pinned head + 1 tail; plus the 2-slot shared ring.
  ASSERT_EQ(spans.size(), 6u);
  int slow_a = 0;
  for (const SpanRecord& span : spans) {
    if (span.name == "a.req" && span.id == 15) ++slow_a;  // iteration 7
  }
  EXPECT_EQ(slow_a, 1);
}

// --- Exporter sinks ---------------------------------------------------------

ExportTick MakeTick(int64_t seq, const char* counter, int64_t value,
                    bool final_record = false) {
  ExportTick tick;
  tick.seq = seq;
  tick.uptime_ms = seq * 10;
  tick.final_record = final_record;
  tick.delta.counters[counter] = value;
  return tick;
}

TEST(SinkTest, InMemoryRingFoldsEvictedDeltas) {
  InMemoryRingSink sink(2);
  sink.Emit(MakeTick(0, "work", 3));
  sink.Emit(MakeTick(1, "work", 5));
  EXPECT_EQ(sink.dropped(), 0);
  EXPECT_TRUE(sink.evicted_total().counters.empty());

  sink.Emit(MakeTick(2, "work", 7, /*final_record=*/true));
  const std::vector<InMemoryRingSink::Record> records = sink.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].seq, 1);
  EXPECT_EQ(records[1].seq, 2);
  EXPECT_TRUE(records[1].final_record);
  EXPECT_EQ(sink.dropped(), 1);
  // Telescoping survives eviction: evicted_total + retained == 15.
  EXPECT_EQ(sink.evicted_total().Counter("work") +
                records[0].delta.Counter("work") +
                records[1].delta.Counter("work"),
            15);
}

// The exporter fans every tick out to all registered sinks — with no file
// paths configured at all, the stream is purely in-process.
TEST(SinkTest, ExporterFansOutToSinksWithoutFiles) {
  RunContext run;
  run.metrics().AddCounter("fan.pre", 2);

  InMemoryRingSink ring(32);
  PrometheusTextSink prometheus;
  int callback_ticks = 0;
  int64_t callback_sum = 0;
  bool callback_saw_final = false;
  bool full_matches_delta_sum = true;
  int64_t running_sum = 2;  // tracks what `full` should show
  CallbackSink callback([&](const ExportTick& tick) {
    ++callback_ticks;
    callback_sum += tick.delta.Counter("fan.pre") +
                    tick.delta.Counter("fan.live");
    callback_saw_final = tick.final_record;
    // The transient full snapshot always reflects every delta so far.
    ASSERT_NE(tick.full, nullptr);
    running_sum = tick.full->Counter("fan.pre") + tick.full->Counter("fan.live");
    if (running_sum != callback_sum) full_matches_delta_sum = false;
  });

  ExporterOptions options;
  options.interval = std::chrono::milliseconds(5);
  options.sinks = {&ring, &prometheus, &callback};
  PeriodicExporter exporter(&run, options);
  ASSERT_TRUE(exporter.Start().ok());
  for (int i = 0; i < 4; ++i) {
    run.metrics().AddCounter("fan.live", 10);
    std::this_thread::sleep_for(std::chrono::milliseconds(7));
  }
  ASSERT_TRUE(exporter.Stop().ok());

  const std::vector<InMemoryRingSink::Record> records = ring.Records();
  ASSERT_FALSE(records.empty());
  EXPECT_TRUE(records.back().final_record);
  int64_t ring_sum = 0;
  for (const InMemoryRingSink::Record& record : records) {
    ring_sum += record.delta.Counter("fan.pre") +
                record.delta.Counter("fan.live");
  }
  EXPECT_EQ(ring_sum, 42);  // 2 pre-start + 4 * 10 live
  EXPECT_EQ(callback_sum, 42);
  EXPECT_TRUE(callback_saw_final);
  EXPECT_TRUE(full_matches_delta_sum);
  EXPECT_GE(callback_ticks, 1);
  const std::string scrape = prometheus.Scrape();
  EXPECT_NE(scrape.find("fan_pre 2"), std::string::npos) << scrape;
  EXPECT_NE(scrape.find("fan_live 40"), std::string::npos) << scrape;
}

TEST(SinkTest, FailingSinkOpenAbortsStart) {
  struct FailingSink : ExporterSink {
    Status Open() override { return Status::InvalidArgument("no backend"); }
    void Emit(const ExportTick&) override {}
  };
  RunContext run;
  FailingSink failing;
  ExporterOptions options;
  options.sinks = {&failing};
  PeriodicExporter exporter(&run, options);
  const Status started = exporter.Start();
  ASSERT_FALSE(started.ok());
  EXPECT_EQ(started.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dart::obs
