// Experiment E21 (EXPERIMENTS.md): multi-tenant serving. A RepairServer
// multiplexes 1/4/8 tenants over one shared pool; the google-benchmark sweep
// times sustained single-document load per tenant count, and main() prints
// the E21 latency table (docs/s, p50/p99 client-observed latency), enforces
// the admission contract under a saturating flood (queue-full submissions
// fail fast with kUnavailable + retry hint, accepted work completes), checks
// 5-seed served-vs-serial parity on the deterministic path, and writes two
// traces: OBS_bench_server.trace.json (zero drops, validated by
// scripts/trace_report.py) and TAIL_bench_server.trace.json — a deliberately
// tiny ring churned by fast requests where only latency-biased tail sampling
// keeps the slow early requests alive (`trace_report.py tails`).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/pipeline.h"
#include "obs/report.h"
#include "obs/slo.h"
#include "serve/server.h"

namespace {

using dart::core::AcquisitionMetadata;
using dart::core::DartPipeline;
using dart::core::PipelineOptions;
using dart::core::ProcessOutcome;
using dart::core::ProcessRequest;
using dart::ocr::CashBudgetFixture;
using dart::serve::RepairServer;
using dart::serve::ServerOptions;
using dart::serve::TenantId;
using dart::serve::TenantOptions;

AcquisitionMetadata MakeMetadata(uint64_t seed) {
  dart::Rng rng(seed);
  auto reference = CashBudgetFixture::Random({}, &rng);
  DART_CHECK_MSG(reference.ok(), reference.status().ToString());
  AcquisitionMetadata metadata;
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

/// One rendered document: `years` years, `errors` injected measure errors.
std::string MakeDoc(uint64_t seed, int years, size_t errors) {
  dart::Rng rng(seed);
  dart::ocr::CashBudgetOptions options;
  options.num_years = years;
  auto db = CashBudgetFixture::Random(options, &rng);
  DART_CHECK_MSG(db.ok(), db.status().ToString());
  if (errors > 0) {
    auto injected = dart::ocr::InjectMeasureErrors(&db.value(), errors, &rng);
    DART_CHECK_MSG(injected.ok(), injected.status().ToString());
  }
  return CashBudgetFixture::RenderHtml(*db);
}

/// Registers `tenants` tenants with distinct reference databases. When
/// `deterministic`, each tenant's solver runs single-threaded so served
/// results can be compared bit-for-bit against direct pipeline calls.
void AddTenants(RepairServer* server, int tenants, bool deterministic) {
  for (int t = 0; t < tenants; ++t) {
    TenantOptions options;
    if (deterministic) options.pipeline.engine.milp.search.num_threads = 1;
    auto id = server->AddTenant("t" + std::to_string(t),
                                MakeMetadata(100 + t), options);
    DART_CHECK_MSG(id.ok(), id.status().ToString());
  }
}

/// Submits one document per slot round-robin across tenants and waits for
/// every future; aborts on any rejection or failed outcome.
void SubmitWave(RepairServer* server, int tenants,
                const std::vector<std::string>& htmls) {
  std::vector<std::future<dart::Result<ProcessOutcome>>> futures;
  futures.reserve(htmls.size());
  for (size_t i = 0; i < htmls.size(); ++i) {
    auto future =
        server->Submit(static_cast<TenantId>(i % tenants),
                       ProcessRequest::FromHtml(htmls[i]));
    DART_CHECK_MSG(future.ok(), future.status().ToString());
    futures.push_back(std::move(*future));
  }
  for (auto& future : futures) {
    auto outcome = future.get();
    DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
  }
}

constexpr int kWaveDocs = 8;

void BM_ServerSustainedLoad(benchmark::State& state) {
  const int tenants = static_cast<int>(state.range(0));
  ServerOptions options;
  options.num_workers = 4;
  options.queue_capacity = 256;
  RepairServer server(options);
  AddTenants(&server, tenants, /*deterministic=*/false);
  DART_CHECK_MSG(server.Start().ok(), "server failed to start");

  std::vector<std::string> htmls;
  for (int d = 0; d < kWaveDocs; ++d) {
    htmls.push_back(MakeDoc(20 + d, 2 + d % 2, 1));
  }
  for (auto _ : state) {
    SubmitWave(&server, tenants, htmls);
  }
  DART_CHECK_MSG(server.Stop().ok(), "server failed to stop");
  state.counters["docs_per_sec"] =
      benchmark::Counter(static_cast<double>(kWaveDocs),
                         benchmark::Counter::kIsIterationInvariantRate);
}

BENCHMARK(BM_ServerSustainedLoad)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("tenants")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

double Percentile(std::vector<double> values, double p) {
  DART_CHECK_MSG(!values.empty(), "percentile of empty sample");
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using Clock = std::chrono::steady_clock;

  // E21 table: sustained docs/s and client-observed p50/p99 latency at
  // 1/4/8 tenants. One waiter thread per request timestamps its future the
  // moment it becomes ready, so the percentiles include queueing delay.
  fprintf(stderr, "E21: multi-tenant serving (24 docs round-robin, 4 workers)\n");
  fprintf(stderr, "%8s %12s %10s %10s\n", "tenants", "docs/s", "p50_ms",
          "p99_ms");
  for (const int tenants : {1, 4, 8}) {
    ServerOptions options;
    options.num_workers = 4;
    options.queue_capacity = 256;
    RepairServer server(options);
    AddTenants(&server, tenants, /*deterministic=*/false);
    DART_CHECK_MSG(server.Start().ok(), "server failed to start");

    constexpr int kLoad = 24;
    std::vector<double> latencies_ms(kLoad, 0.0);
    std::vector<std::thread> waiters;
    waiters.reserve(kLoad);
    const auto wall0 = Clock::now();
    for (int i = 0; i < kLoad; ++i) {
      const std::string html = MakeDoc(300 + i, 2 + i % 2, 1);
      const auto submitted = Clock::now();
      auto future = server.Submit(static_cast<TenantId>(i % tenants),
                                  ProcessRequest::FromHtml(html));
      DART_CHECK_MSG(future.ok(), future.status().ToString());
      waiters.emplace_back(
          [&latencies_ms, i, submitted,
           future = std::move(*future)]() mutable {
            auto outcome = future.get();
            DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
            latencies_ms[static_cast<size_t>(i)] =
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          submitted)
                    .count();
          });
    }
    for (std::thread& waiter : waiters) waiter.join();
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - wall0).count();
    DART_CHECK_MSG(server.Stop().ok(), "server failed to stop");
    fprintf(stderr, "%8d %12.1f %10.2f %10.2f\n", tenants, kLoad / wall_s,
            Percentile(latencies_ms, 0.50), Percentile(latencies_ms, 0.99));
  }

  // Admission contract under a saturating flood: with capacity 4 and no
  // workers running yet, exactly 4 of 50 submissions are admitted; the other
  // 46 fail fast with kUnavailable carrying the retry hint. Everything
  // admitted completes once the server runs.
  {
    ServerOptions options;
    options.num_workers = 2;
    options.queue_capacity = 4;
    options.retry_after = std::chrono::milliseconds(25);
    RepairServer server(options);
    AddTenants(&server, 2, /*deterministic=*/false);
    const std::string html = MakeDoc(7, 2, 1);
    std::vector<std::future<dart::Result<ProcessOutcome>>> admitted;
    int rejected = 0;
    for (int i = 0; i < 50; ++i) {
      auto future =
          server.Submit(i % 2, ProcessRequest::FromHtml(html));
      if (future.ok()) {
        admitted.push_back(std::move(*future));
        continue;
      }
      DART_CHECK_MSG(future.status().code() ==
                         dart::StatusCode::kUnavailable,
                     "saturated submission not kUnavailable: " +
                         future.status().ToString());
      DART_CHECK_MSG(
          dart::serve::RetryAfterMillis(future.status()) == 25,
          "kUnavailable rejection lost its retry-after hint");
      ++rejected;
    }
    DART_CHECK_MSG(admitted.size() == 4 && rejected == 46,
                   "E21 admission bound is not exact");
    DART_CHECK_MSG(server.Start().ok(), "server failed to start");
    DART_CHECK_MSG(server.Stop().ok(), "server failed to stop");
    for (auto& future : admitted) {
      auto outcome = future.get();
      DART_CHECK_MSG(outcome.ok(),
                     "admitted work failed after saturation: " +
                         outcome.status().ToString());
    }
    fprintf(stderr,
            "E21 admission gate: 4/50 admitted at capacity 4, 46 rejected "
            "with retry-after-ms=25, all admitted completed\n");
  }

  // Parity: on the deterministic path (single-threaded solver) every served
  // outcome must be bit-identical to a direct pipeline call — 5 seeds of
  // 6 documents over 2 tenants. Runs on every invocation so reproduce.sh
  // cannot record an E21 table for a divergent serving path.
  {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      ServerOptions options;
      options.num_workers = 2;
      RepairServer server(options);
      AddTenants(&server, 2, /*deterministic=*/true);
      std::vector<DartPipeline> serial;
      for (int t = 0; t < 2; ++t) {
        PipelineOptions pipeline_options;
        pipeline_options.engine.milp.search.num_threads = 1;
        auto pipeline = DartPipeline::Create(MakeMetadata(100 + t),
                                             pipeline_options);
        DART_CHECK_MSG(pipeline.ok(), pipeline.status().ToString());
        serial.push_back(std::move(pipeline).value());
      }
      std::vector<std::string> htmls;
      std::vector<std::future<dart::Result<ProcessOutcome>>> futures;
      for (int i = 0; i < 6; ++i) {
        htmls.push_back(MakeDoc(seed * 100 + i, 2 + i % 3, 1 + i % 2));
        auto future =
            server.Submit(i % 2, ProcessRequest::FromHtml(htmls.back()));
        DART_CHECK_MSG(future.ok(), future.status().ToString());
        futures.push_back(std::move(*future));
      }
      DART_CHECK_MSG(server.Start().ok(), "server failed to start");
      DART_CHECK_MSG(server.Stop().ok(), "server failed to stop");
      for (int i = 0; i < 6; ++i) {
        auto served = futures[static_cast<size_t>(i)].get();
        DART_CHECK_MSG(served.ok(), served.status().ToString());
        auto direct =
            serial[static_cast<size_t>(i % 2)].Submit(
                ProcessRequest::FromHtml(htmls[static_cast<size_t>(i)]));
        DART_CHECK_MSG(direct.ok(), direct.status().ToString());
        const auto& served_updates = served->repair.repair.updates();
        const auto& direct_updates = direct->repair.repair.updates();
        DART_CHECK_MSG(served_updates.size() == direct_updates.size(),
                       "E21 served/serial repair cardinalities diverge");
        for (size_t u = 0; u < direct_updates.size(); ++u) {
          DART_CHECK_MSG(
              served_updates[u].cell == direct_updates[u].cell &&
                  served_updates[u].new_value == direct_updates[u].new_value,
              "E21 served/serial repairs diverge");
        }
        auto differences = served->repaired.CountDifferences(direct->repaired);
        DART_CHECK_MSG(differences.ok(), differences.status().ToString());
        DART_CHECK_MSG(*differences == 0,
                       "E21 served/serial repaired databases diverge");
      }
    }
    fprintf(stderr, "E21 parity gate: 5 seeds served == serial, bit-identical\n");
  }

  // E17 contract: a schema-valid OBS trace with zero drops. The default
  // server trace ring (65536) easily holds this run.
  {
    RepairServer server;
    AddTenants(&server, 2, /*deterministic=*/false);
    DART_CHECK_MSG(server.Start().ok(), "server failed to start");
    SubmitWave(&server, 2,
               {MakeDoc(41, 2, 1), MakeDoc(42, 3, 1), MakeDoc(43, 2, 0),
                MakeDoc(44, 4, 2)});
    DART_CHECK_MSG(server.Stop().ok(), "server failed to stop");
    dart::bench::WriteBenchTrace(server.run(), "bench_server");
  }

  // Tail-sampling demonstration: a deliberately tiny ring (8 spans, no head
  // samples) is churned by 36 fast consistent documents AFTER 4 slow noisy
  // ones — under head/ring retention alone the slow requests would be long
  // evicted, so their survival in TAIL_bench_server.trace.json is the tail
  // sampler's doing (`trace_report.py tails` checks them against the
  // serve.request_seconds histogram mean).
  {
    ServerOptions options;
    options.num_workers = 1;  // strict submission-order execution
    options.queue_capacity = 64;
    options.trace.capacity = 8;
    options.trace.head_samples_per_name = 0;
    options.trace.tail_samples_per_name = 4;
    RepairServer server(options);
    AddTenants(&server, 1, /*deterministic=*/false);
    std::vector<std::future<dart::Result<ProcessOutcome>>> futures;
    auto submit = [&](const std::string& html) {
      auto future = server.Submit(0, ProcessRequest::FromHtml(html));
      DART_CHECK_MSG(future.ok(), future.status().ToString());
      futures.push_back(std::move(*future));
    };
    for (int i = 0; i < 4; ++i) {
      submit(MakeDoc(500 + i, 10, 2));  // slow: big noisy documents
    }
    for (int i = 0; i < 36; ++i) {
      submit(MakeDoc(600 + i, 2, 0));  // fast: tiny consistent documents
    }
    DART_CHECK_MSG(server.Start().ok(), "server failed to start");
    DART_CHECK_MSG(server.Stop().ok(), "server failed to stop");
    for (auto& future : futures) {
      DART_CHECK_MSG(future.get().ok(), "tail-demo request failed");
    }
    DART_CHECK_MSG(server.run().trace().spans_dropped() > 0,
                   "tail demo did not churn the ring");
    // The 4 slow requests must have survived: spans of the tenant's request
    // name at least as slow as the run's mean request duration.
    const auto spans = server.run().trace().Snapshot();
    const auto metrics = server.run().metrics().Snapshot();
    const auto hist = metrics.histograms.find("serve.request_seconds");
    DART_CHECK_MSG(hist != metrics.histograms.end() && hist->second.count > 0,
                   "serve.request_seconds histogram missing");
    const double mean_ns =
        hist->second.sum / static_cast<double>(hist->second.count) * 1e9;
    int slow_survivors = 0;
    for (const auto& span : spans) {
      if (span.name == "serve.request.t0" &&
          static_cast<double>(span.duration_ns) >= mean_ns) {
        ++slow_survivors;
      }
    }
    DART_CHECK_MSG(slow_survivors >= 4,
                   "slow request spans were evicted despite tail sampling");
    const dart::Status written = dart::obs::WriteRunReport(
        server.run(), "TAIL_bench_server.trace.json");
    DART_CHECK_MSG(written.ok(), written.ToString());
  }

  // Per-tenant SLO demo: 4 tenants with deliberately skewed load — t0/t1
  // serve tiny clean documents, t2/t3 big noisy ones — so the labeled
  // serve.request_seconds{tenant=...} p99s come out distinct. t0 declares a
  // generous latency SLO (met), t3 an unattainable microsecond one
  // (breached); AdminStatus() must show the breached-vs-met pair, and the
  // written SERVE_bench_server.status.json is gated by `trace_report.py slo
  // --require-breached 1 --require-met 1` in reproduce.sh. The Chrome
  // trace-event export of the same run lands in
  // CHROME_bench_server.trace.json (Perfetto-loadable).
  {
    ServerOptions options;
    options.num_workers = 2;
    options.queue_capacity = 256;
    options.export_interval = std::chrono::milliseconds(50);
    RepairServer server(options);
    for (int t = 0; t < 4; ++t) {
      TenantOptions tenant_options;
      if (t == 0) {
        dart::obs::SloSpec slo;
        slo.latency_objective_seconds = 300.0;  // generous: always met
        slo.availability_objective = 0.5;
        tenant_options.slo = slo;
      } else if (t == 3) {
        dart::obs::SloSpec slo;
        slo.latency_objective_seconds = 1e-6;  // unattainable: breached
        slo.availability_objective = 0.5;
        tenant_options.slo = slo;
      }
      auto id = server.AddTenant("t" + std::to_string(t),
                                 MakeMetadata(100 + t), tenant_options);
      DART_CHECK_MSG(id.ok(), id.status().ToString());
    }
    DART_CHECK_MSG(server.Start().ok(), "server failed to start");
    std::vector<std::future<dart::Result<ProcessOutcome>>> futures;
    for (int i = 0; i < 24; ++i) {
      const int t = i % 4;
      const bool heavy = t >= 2;  // the skew: t2/t3 pay 10-year noisy docs
      auto future = server.Submit(
          t, ProcessRequest::FromHtml(
                 MakeDoc(700 + i, heavy ? 10 : 2, heavy ? 2 : 0)));
      DART_CHECK_MSG(future.ok(), future.status().ToString());
      futures.push_back(std::move(*future));
    }
    for (auto& future : futures) {
      DART_CHECK_MSG(future.get().ok(), "SLO-demo request failed");
    }

    const std::string status = server.AdminStatus();
    std::ofstream status_file("SERVE_bench_server.status.json",
                              std::ios::out | std::ios::trunc);
    DART_CHECK_MSG(status_file.good(), "cannot write serve status file");
    status_file << status;
    status_file.close();
    DART_CHECK_MSG(status_file.good(), "failed writing serve status file");

    const auto metrics = server.run().metrics().Snapshot();
    const auto p99 = [&](const std::string& tenant) {
      const auto it = metrics.histograms.find(dart::obs::LabeledName(
          "serve.request_seconds", {{"tenant", tenant}}));
      DART_CHECK_MSG(it != metrics.histograms.end() && it->second.count == 6,
                     "labeled request histogram missing for " + tenant);
      return it->second.Quantile(0.99);
    };
    const double fast_p99 = p99("t0");
    const double slow_p99 = p99("t3");
    DART_CHECK_MSG(slow_p99 > fast_p99,
                   "skewed load did not yield distinct per-tenant p99s");
    DART_CHECK_MSG(status.find("\"compliant\": false") != std::string::npos &&
                       status.find("\"compliant\": true") != std::string::npos,
                   "AdminStatus lacks the breached-vs-met SLO pair");
    const dart::Status chrome = dart::obs::WriteChromeTrace(
        server.run(), "CHROME_bench_server.trace.json");
    DART_CHECK_MSG(chrome.ok(), chrome.ToString());
    DART_CHECK_MSG(server.Stop().ok(), "server failed to stop");
    fprintf(stderr,
            "E21 SLO gate: skewed p99s t0=%.3fms vs t3=%.3fms, "
            "breached+met pair present in AdminStatus\n",
            fast_p99 * 1e3, slow_p99 * 1e3);
  }
  return 0;
}
