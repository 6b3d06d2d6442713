// Tests for serve::RepairServer (docs/serving.md): N tenants multiplexed
// over one set of worker threads must produce results bit-identical to serial
// per-tenant pipelines (at milp num_threads = 1), admission past the queue
// bound must fail fast with kUnavailable + a retry hint (never block, never
// crash), dispatch must round-robin across tenants, Stop() must drain every
// accepted future, idle workers must sleep rather than spin, and the
// in-process exporter sinks must observe the serve.* metric stream.

#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "ocr/cash_budget.h"
#include "ocr/noise.h"
#include "serve/server.h"
#include "util/random.h"
#include "validation/operator.h"

namespace dart::serve {
namespace {

using core::BatchOutcome;
using core::BatchRequest;
using core::ProcessOutcome;
using core::ProcessRequest;
using ocr::CashBudgetFixture;

/// Builds the cash-budget metadata for one tenant, seeded so distinct
/// tenants carry distinct reference databases (and therefore distinct
/// pipelines) while sharing the schema.
Result<core::AcquisitionMetadata> MakeMetadata(uint64_t seed,
                                               rel::Database* reference_out) {
  Rng rng(seed);
  DART_ASSIGN_OR_RETURN(rel::Database reference,
                        CashBudgetFixture::Random({}, &rng));
  core::AcquisitionMetadata metadata;
  DART_ASSIGN_OR_RETURN(metadata.catalog,
                        CashBudgetFixture::BuildCatalog(reference));
  metadata.patterns = CashBudgetFixture::BuildPatterns();
  DART_ASSIGN_OR_RETURN(dbgen::RelationMapping mapping,
                        CashBudgetFixture::BuildMapping(reference));
  metadata.mappings = {std::move(mapping)};
  metadata.constraint_program = CashBudgetFixture::ConstraintProgram();
  if (reference_out != nullptr) *reference_out = reference;
  return metadata;
}

/// One rendered document with `errors` injected measure mistakes;
/// `num_years > 0` overrides the seed-derived document size.
std::string MakeHtml(uint64_t seed, size_t errors, int num_years = 0) {
  Rng rng(seed);
  ocr::CashBudgetOptions options;
  options.num_years =
      num_years > 0 ? num_years : 2 + static_cast<int>(seed % 2);
  rel::Database db = CashBudgetFixture::Random(options, &rng).value();
  if (errors > 0) {
    EXPECT_TRUE(ocr::InjectMeasureErrors(&db, errors, &rng).ok());
  }
  return CashBudgetFixture::RenderHtml(db);
}

/// Serial-path pipeline options: deterministic solver so server results can
/// be compared bit-for-bit against direct pipeline calls.
core::PipelineOptions SerialOptions() {
  core::PipelineOptions options;
  options.engine.milp.search.num_threads = 1;
  return options;
}

void ExpectOutcomeEquals(const Result<ProcessOutcome>& served,
                         const Result<ProcessOutcome>& serial) {
  ASSERT_EQ(served.ok(), serial.ok())
      << served.status().ToString() << " vs " << serial.status().ToString();
  if (!serial.ok()) {
    EXPECT_EQ(served.status(), serial.status());
    return;
  }
  EXPECT_EQ(*served->acquisition.database.CountDifferences(
                serial->acquisition.database),
            0u);
  ASSERT_EQ(served->violations.size(), serial->violations.size());
  const auto& served_updates = served->repair.repair.updates();
  const auto& serial_updates = serial->repair.repair.updates();
  ASSERT_EQ(served_updates.size(), serial_updates.size());
  for (size_t u = 0; u < serial_updates.size(); ++u) {
    EXPECT_TRUE(served_updates[u].cell == serial_updates[u].cell);
    EXPECT_EQ(served_updates[u].new_value, serial_updates[u].new_value);
  }
  EXPECT_EQ(*served->repaired.CountDifferences(serial->repaired), 0u);
}

// --- Multi-tenant stress parity ---------------------------------------------

// Four tenants with distinct reference databases submit a mixed workload —
// singles, one batch per tenant, supervised sessions — concurrently through
// the shared workers. Every accepted future must complete, and every result
// must be bit-identical to a direct call on a serial per-tenant pipeline
// (30 seeds spread across the tenants).
TEST(RepairServerTest, MultiTenantStressMatchesSerialPipelines) {
  constexpr int kTenants = 4;
  constexpr uint64_t kSeeds = 30;

  ServerOptions server_options;
  server_options.num_workers = 4;
  server_options.queue_capacity = 256;
  RepairServer server(server_options);

  std::vector<rel::Database> references(kTenants);
  std::vector<std::unique_ptr<core::DartPipeline>> serial(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    auto metadata = MakeMetadata(100 + t, &references[t]);
    ASSERT_TRUE(metadata.ok()) << metadata.status().ToString();
    TenantOptions tenant_options;
    tenant_options.pipeline = SerialOptions();
    auto id = server.AddTenant("tenant" + std::to_string(t), *metadata,
                               tenant_options);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, t);
    // An independent serial pipeline over the same metadata, as ground truth.
    auto re_metadata = MakeMetadata(100 + t, nullptr);
    ASSERT_TRUE(re_metadata.ok());
    auto pipeline = core::DartPipeline::Create(std::move(*re_metadata),
                                               SerialOptions());
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    serial[t] = std::make_unique<core::DartPipeline>(std::move(*pipeline));
  }
  ASSERT_EQ(server.num_tenants(), static_cast<size_t>(kTenants));

  // Singles: seed s goes to tenant s % kTenants.
  struct PendingSingle {
    int tenant;
    std::string html;
    std::future<Result<ProcessOutcome>> future;
  };
  std::vector<PendingSingle> singles;
  for (uint64_t s = 1; s <= kSeeds; ++s) {
    const int t = static_cast<int>(s % kTenants);
    std::string html = MakeHtml(s, 1 + s % 2);
    auto future = server.Submit(t, ProcessRequest::FromHtml(html));
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    singles.push_back({t, std::move(html), std::move(*future)});
  }

  // One 3-document batch per tenant, ids carried through.
  struct PendingBatch {
    int tenant;
    std::vector<std::string> htmls;
    std::future<Result<BatchOutcome>> future;
  };
  std::vector<PendingBatch> batches;
  for (int t = 0; t < kTenants; ++t) {
    BatchRequest request;
    std::vector<std::string> htmls;
    for (int d = 0; d < 3; ++d) {
      htmls.push_back(MakeHtml(1000 + 10 * t + d, d % 2));
      request.documents.push_back(ProcessRequest::FromHtml(
          htmls.back(), "t" + std::to_string(t) + "-d" + std::to_string(d)));
    }
    auto future = server.SubmitBatch(t, std::move(request));
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    batches.push_back({t, std::move(htmls), std::move(*future)});
  }

  // Supervised sessions on two of the tenants (operator oracle = that
  // tenant's reference truth document).
  struct PendingSupervised {
    int tenant;
    rel::Database truth;
    std::string html;
    std::unique_ptr<validation::SimulatedOperator> op;
    std::future<Result<validation::SessionResult>> future;
  };
  // Heap-allocated so the operator's pointer into `truth` stays stable.
  std::vector<std::unique_ptr<PendingSupervised>> supervised;
  for (int t : {0, 2}) {
    auto pending = std::make_unique<PendingSupervised>();
    pending->tenant = t;
    Rng rng(2000 + t);
    ocr::CashBudgetOptions doc_options;
    doc_options.num_years = 2;
    pending->truth = CashBudgetFixture::Random(doc_options, &rng).value();
    ocr::NoiseModel noise({0.10, 0.0, 1, 1}, &rng);
    pending->html = CashBudgetFixture::RenderHtml(pending->truth, &noise);
    pending->op =
        std::make_unique<validation::SimulatedOperator>(&pending->truth);
    auto future = server.SubmitSupervised(t, pending->html, pending->op.get());
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    pending->future = std::move(*future);
    supervised.push_back(std::move(pending));
  }

  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.Stop().ok());  // drains everything accepted

  for (size_t i = 0; i < singles.size(); ++i) {
    SCOPED_TRACE("single " + std::to_string(i));
    PendingSingle& pending = singles[i];
    ExpectOutcomeEquals(
        pending.future.get(),
        serial[pending.tenant]->Submit(ProcessRequest::FromHtml(pending.html)));
  }
  for (PendingBatch& pending : batches) {
    SCOPED_TRACE("batch tenant " + std::to_string(pending.tenant));
    Result<BatchOutcome> served = pending.future.get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_EQ(served->documents.size(), pending.htmls.size());
    for (size_t d = 0; d < pending.htmls.size(); ++d) {
      SCOPED_TRACE("doc " + std::to_string(d));
      EXPECT_EQ(served->documents[d].id,
                "t" + std::to_string(pending.tenant) + "-d" +
                    std::to_string(d));
      ExpectOutcomeEquals(served->documents[d].result,
                          serial[pending.tenant]->Submit(
                              ProcessRequest::FromHtml(pending.htmls[d])));
    }
  }
  for (std::unique_ptr<PendingSupervised>& pending : supervised) {
    SCOPED_TRACE("supervised tenant " + std::to_string(pending->tenant));
    Result<validation::SessionResult> served = pending->future.get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_TRUE(served->converged);
    EXPECT_EQ(*served->repaired.CountDifferences(pending->truth), 0u);
    // Ground truth: the same session run directly on the serial pipeline.
    validation::SimulatedOperator op(&pending->truth);
    auto direct = serial[pending->tenant]->ProcessSupervised(pending->html, op);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(served->iterations, direct->iterations);
    EXPECT_EQ(served->accepted_updates, direct->accepted_updates);
    EXPECT_EQ(*served->repaired.CountDifferences(direct->repaired), 0u);
  }

  const ServerStats stats = server.stats();
  const int64_t expected_items = static_cast<int64_t>(
      singles.size() + batches.size() + supervised.size());
  EXPECT_EQ(stats.accepted, expected_items);
  EXPECT_EQ(stats.completed, expected_items);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// Tenants whose solver runs 2 components at once must serve exactly what a
// 1-thread pipeline computes: each component is one serial search, so the
// thread count cannot change which tied card-minimal repair is returned.
TEST(RepairServerTest, ThreadedTenantsMatchSerialPipelines) {
  constexpr int kTenants = 2;
  ServerOptions server_options;
  server_options.num_workers = 2;
  server_options.queue_capacity = 256;
  RepairServer server(server_options);

  core::PipelineOptions threaded = SerialOptions();
  threaded.engine.milp.search.num_threads = 2;
  std::vector<std::unique_ptr<core::DartPipeline>> serial(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    auto metadata = MakeMetadata(300 + t, nullptr);
    ASSERT_TRUE(metadata.ok()) << metadata.status().ToString();
    TenantOptions tenant_options;
    tenant_options.pipeline = threaded;
    ASSERT_TRUE(
        server.AddTenant("tenant" + std::to_string(t), *metadata,
                         tenant_options)
            .ok());
    auto pipeline = core::DartPipeline::Create(std::move(*metadata),
                                               SerialOptions());
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    serial[t] = std::make_unique<core::DartPipeline>(std::move(*pipeline));
  }

  struct Pending {
    int tenant;
    std::vector<std::string> htmls;
    std::future<Result<BatchOutcome>> batch;
    std::vector<std::future<Result<ProcessOutcome>>> singles;
  };
  std::vector<Pending> pending(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    pending[t].tenant = t;
    BatchRequest request;
    for (int d = 0; d < 8; ++d) {
      const uint64_t seed = 3000 + 10 * t + d;
      pending[t].htmls.push_back(
          MakeHtml(seed, 1 + seed % 2, 2 + static_cast<int>(seed % 3)));
      request.documents.push_back(
          ProcessRequest::FromHtml(pending[t].htmls.back()));
      auto single = server.Submit(
          t, ProcessRequest::FromHtml(pending[t].htmls.back()));
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      pending[t].singles.push_back(std::move(*single));
    }
    auto batch = server.SubmitBatch(t, std::move(request));
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    pending[t].batch = std::move(*batch);
  }
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.Stop().ok());

  for (Pending& p : pending) {
    Result<BatchOutcome> batch = p.batch.get();
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->documents.size(), p.htmls.size());
    for (size_t d = 0; d < p.htmls.size(); ++d) {
      SCOPED_TRACE("tenant " + std::to_string(p.tenant) + " doc " +
                   std::to_string(d));
      const Result<ProcessOutcome> expected =
          serial[p.tenant]->Submit(ProcessRequest::FromHtml(p.htmls[d]));
      ExpectOutcomeEquals(batch->documents[d].result, expected);
      ExpectOutcomeEquals(p.singles[d].get(), expected);
    }
  }
}

// --- Bounded admission ------------------------------------------------------

// Flooding a capacity-4 queue: the first four documents are admitted, every
// further submission fails fast with kUnavailable carrying the retry hint —
// and all accepted work still completes once the server runs.
TEST(RepairServerTest, SaturatedQueueRejectsWithRetryHint) {
  ServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 4;
  options.retry_after = std::chrono::milliseconds(120);
  RepairServer server(options);
  auto metadata = MakeMetadata(7, nullptr);
  ASSERT_TRUE(metadata.ok());
  auto tenant = server.AddTenant("flood", *metadata);
  ASSERT_TRUE(tenant.ok());

  const std::string html = MakeHtml(3, 1);
  std::vector<std::future<Result<ProcessOutcome>>> accepted;
  int rejected = 0;
  for (int i = 0; i < 10; ++i) {
    auto future = server.Submit(*tenant, ProcessRequest::FromHtml(html));
    if (future.ok()) {
      accepted.push_back(std::move(*future));
      continue;
    }
    ++rejected;
    EXPECT_EQ(future.status().code(), StatusCode::kUnavailable)
        << future.status().ToString();
    EXPECT_EQ(RetryAfterMillis(future.status()), 120);
  }
  EXPECT_EQ(accepted.size(), 4u);
  EXPECT_EQ(rejected, 6);

  const ServerStats before = server.stats();
  EXPECT_EQ(before.submitted, 10);
  EXPECT_EQ(before.accepted, 4);
  EXPECT_EQ(before.rejected, 6);
  EXPECT_EQ(before.queue_depth, 4u);

  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.Stop().ok());
  for (auto& future : accepted) {
    Result<ProcessOutcome> outcome = future.get();
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  }
  EXPECT_EQ(server.stats().completed, 4);
}

// A batch wider than the whole queue can never be admitted — that is a
// permanent InvalidArgument, not a retryable kUnavailable. An empty batch is
// InvalidArgument too.
TEST(RepairServerTest, OversizedAndEmptyBatchesAreInvalid) {
  ServerOptions options;
  options.queue_capacity = 2;
  RepairServer server(options);
  auto metadata = MakeMetadata(7, nullptr);
  ASSERT_TRUE(metadata.ok());
  auto tenant = server.AddTenant("t", *metadata);
  ASSERT_TRUE(tenant.ok());

  BatchRequest wide;
  for (int i = 0; i < 3; ++i) {
    wide.documents.push_back(ProcessRequest::FromHtml(MakeHtml(4, 0)));
  }
  auto rejected = server.SubmitBatch(*tenant, std::move(wide));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(RetryAfterMillis(rejected.status()), -1);

  auto empty = server.SubmitBatch(*tenant, BatchRequest{});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

// RetryAfterMillis only reads kUnavailable statuses that carry the hint.
TEST(RepairServerTest, RetryAfterMillisParsesOnlyHintedUnavailable) {
  EXPECT_EQ(RetryAfterMillis(Status::Ok()), -1);
  EXPECT_EQ(RetryAfterMillis(Status::Unavailable("busy")), -1);
  EXPECT_EQ(RetryAfterMillis(Status::InvalidArgument("retry-after-ms=9")), -1);
  EXPECT_EQ(RetryAfterMillis(Status::Unavailable("queue full; retry-after-ms=75")),
            75);
}

// --- Fairness ---------------------------------------------------------------

// With one worker and a pre-Start backlog — tenant 0 queues six documents,
// tenants 1..3 one each — round-robin dispatch must serve every tenant once
// within the first four requests; tenant 0's backlog cannot starve the rest.
// Dispatch order is read back from the serve.request.<tenant> root spans.
TEST(RepairServerTest, RoundRobinServesEveryTenantBeforeRepeats) {
  ServerOptions options;
  options.num_workers = 1;
  RepairServer server(options);
  std::vector<TenantId> tenants;
  for (int t = 0; t < 4; ++t) {
    auto metadata = MakeMetadata(50 + t, nullptr);
    ASSERT_TRUE(metadata.ok());
    TenantOptions tenant_options;
    tenant_options.pipeline = SerialOptions();
    auto id = server.AddTenant("t" + std::to_string(t), *metadata,
                               tenant_options);
    ASSERT_TRUE(id.ok());
    tenants.push_back(*id);
  }

  std::vector<std::future<Result<ProcessOutcome>>> futures;
  auto submit = [&](int tenant) {
    auto future = server.Submit(
        tenants[tenant], ProcessRequest::FromHtml(MakeHtml(60 + tenant, 0)));
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    futures.push_back(std::move(*future));
  };
  for (int i = 0; i < 6; ++i) submit(0);
  for (int t = 1; t < 4; ++t) submit(t);

  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.Stop().ok());
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }

  // Request root spans in execution order (ids are begin-ordered and the
  // single worker runs requests one at a time).
  std::vector<std::string> order;
  for (const obs::SpanRecord& span : server.run().trace().Snapshot()) {
    if (span.name.rfind("serve.request.", 0) == 0) {
      order.push_back(span.name.substr(sizeof("serve.request.") - 1));
    }
  }
  ASSERT_EQ(order.size(), 9u);
  const std::vector<std::string> expected = {"t0", "t1", "t2", "t3", "t0",
                                             "t0", "t0", "t0", "t0"};
  EXPECT_EQ(order, expected);
}

// --- Lifecycle --------------------------------------------------------------

TEST(RepairServerTest, UnknownTenantIsNotFound) {
  RepairServer server;
  auto future = server.Submit(3, ProcessRequest::FromHtml("<html></html>"));
  ASSERT_FALSE(future.ok());
  EXPECT_EQ(future.status().code(), StatusCode::kNotFound);
}

TEST(RepairServerTest, SupervisedRequiresOperator) {
  RepairServer server;
  auto metadata = MakeMetadata(7, nullptr);
  ASSERT_TRUE(metadata.ok());
  auto tenant = server.AddTenant("t", *metadata);
  ASSERT_TRUE(tenant.ok());
  auto future = server.SubmitSupervised(*tenant, "<html></html>", nullptr);
  ASSERT_FALSE(future.ok());
  EXPECT_EQ(future.status().code(), StatusCode::kInvalidArgument);
}

// Stop() on a never-started server cancels queued work (the futures become
// ready with kUnavailable) instead of leaving them hanging; submissions and
// tenant registrations after Stop() are refused.
TEST(RepairServerTest, StopWithoutStartCancelsQueuedWork) {
  RepairServer server;
  auto metadata = MakeMetadata(7, nullptr);
  ASSERT_TRUE(metadata.ok());
  auto tenant = server.AddTenant("t", *metadata);
  ASSERT_TRUE(tenant.ok());
  auto future = server.Submit(*tenant, ProcessRequest::FromHtml(MakeHtml(3, 0)));
  ASSERT_TRUE(future.ok());

  ASSERT_TRUE(server.Stop().ok());
  Result<ProcessOutcome> outcome = future->get();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);

  auto late = server.Submit(*tenant, ProcessRequest::FromHtml("<html></html>"));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  auto late_tenant = server.AddTenant("late", *metadata);
  ASSERT_FALSE(late_tenant.ok());
  EXPECT_EQ(late_tenant.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(server.Stop().ok());  // idempotent
}

TEST(RepairServerTest, DoubleStartFails) {
  RepairServer server;
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(server.Stop().ok());
}

double ProcessCpuSeconds() {
  timespec ts{};
  EXPECT_EQ(clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts), 0);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Workers of a started server with no traffic block until work arrives:
// half a second of idling costs the whole process under 10 ms of CPU.
TEST(RepairServerTest, IdleWorkersDoNotBurnCpu) {
  ServerOptions options;
  options.num_workers = 4;
  RepairServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const double cpu_before = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double idle_cpu = ProcessCpuSeconds() - cpu_before;
  EXPECT_LT(idle_cpu, 0.010) << "CPU seconds used by an idle server";
  EXPECT_TRUE(server.Stop().ok());
}

// A submission that arrives after every worker has gone to sleep wakes one
// of them; Stop() then returns.
TEST(RepairServerTest, IdleServerServesLateSubmission) {
  RepairServer server;
  auto metadata = MakeMetadata(7, nullptr);
  ASSERT_TRUE(metadata.ok());
  auto tenant = server.AddTenant("t", *metadata);
  ASSERT_TRUE(tenant.ok());
  ASSERT_TRUE(server.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  auto future =
      server.Submit(*tenant, ProcessRequest::FromHtml(MakeHtml(3, 1)));
  ASSERT_TRUE(future.ok()) << future.status().ToString();
  ASSERT_EQ(future->wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_TRUE(future->get().ok());
  EXPECT_TRUE(server.Stop().ok());
}

// Submissions racing Start()/execution from several client threads: no
// hangs, no crashes, every accepted future completes, and accounting adds
// up. (The interesting schedules show up under -DDART_SANITIZE=thread.)
TEST(RepairServerTest, ConcurrentClientsDrainCleanly) {
  ServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 8;
  RepairServer server(options);
  std::vector<TenantId> tenants;
  for (int t = 0; t < 2; ++t) {
    auto metadata = MakeMetadata(80 + t, nullptr);
    ASSERT_TRUE(metadata.ok());
    auto id = server.AddTenant("c" + std::to_string(t), *metadata);
    ASSERT_TRUE(id.ok());
    tenants.push_back(*id);
  }
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      const std::string html = MakeHtml(90 + c, 1);
      for (int i = 0; i < 4; ++i) {
        auto future =
            server.Submit(tenants[c % 2], ProcessRequest::FromHtml(html));
        if (!future.ok()) {
          EXPECT_EQ(future.status().code(), StatusCode::kUnavailable);
          ++rejected;
          continue;
        }
        Result<ProcessOutcome> outcome = future->get();
        EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
        ++accepted;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  ASSERT_TRUE(server.Stop().ok());

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, accepted.load());
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(stats.completed, accepted.load());
  EXPECT_EQ(accepted.load() + rejected.load(), 16);
}

// --- Sinks ------------------------------------------------------------------

// A server with in-process sinks streams serve.* deltas to all of them:
// the ring's deltas telescope to the final counter state, the Prometheus
// sink scrapes serve_* exposition text, and the callback sink sees exactly
// one final tick (the Stop() flush) as its last record.
TEST(RepairServerTest, SinksObserveTheMetricStream) {
  obs::InMemoryRingSink ring(64);
  obs::PrometheusTextSink prometheus;
  std::vector<obs::ExportTick> callback_seqs;
  int64_t callback_completed = 0;
  obs::CallbackSink callback([&](const obs::ExportTick& tick) {
    obs::ExportTick copy;
    copy.seq = tick.seq;
    copy.final_record = tick.final_record;
    callback_seqs.push_back(std::move(copy));
    callback_completed += tick.delta.Counter("serve.completed");
  });

  ServerOptions options;
  options.num_workers = 2;
  options.sinks = {&ring, &prometheus, &callback};
  options.export_interval = std::chrono::milliseconds(5);
  RepairServer server(options);
  auto metadata = MakeMetadata(7, nullptr);
  ASSERT_TRUE(metadata.ok());
  auto tenant = server.AddTenant("sinky", *metadata);
  ASSERT_TRUE(tenant.ok());

  ASSERT_TRUE(server.Start().ok());
  std::vector<std::future<Result<ProcessOutcome>>> futures;
  for (int i = 0; i < 3; ++i) {
    auto future =
        server.Submit(*tenant, ProcessRequest::FromHtml(MakeHtml(5 + i, 1)));
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(*future));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }
  ASSERT_TRUE(server.Stop().ok());

  // Ring: ticks in seq order, last one final, counter deltas telescope.
  const std::vector<obs::InMemoryRingSink::Record> records = ring.Records();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(ring.dropped(), 0);
  EXPECT_TRUE(records.back().final_record);
  int64_t completed = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, static_cast<int64_t>(i));
    EXPECT_EQ(records[i].final_record, i + 1 == records.size());
    completed += records[i].delta.Counter("serve.completed");
  }
  EXPECT_EQ(completed, 3);

  // Prometheus: final exposition text covers the serve.* families.
  const std::string scrape = prometheus.Scrape();
  EXPECT_NE(scrape.find("serve_completed 3"), std::string::npos) << scrape;
  EXPECT_NE(scrape.find("# TYPE serve_queue_depth gauge"), std::string::npos);
  EXPECT_NE(scrape.find("serve_request_seconds_count 3"), std::string::npos);

  // Callback: same tick stream, exactly one final record, at the end.
  ASSERT_EQ(callback_seqs.size(), records.size());
  for (size_t i = 0; i < callback_seqs.size(); ++i) {
    EXPECT_EQ(callback_seqs[i].seq, static_cast<int64_t>(i));
    EXPECT_EQ(callback_seqs[i].final_record, i + 1 == callback_seqs.size());
  }
  EXPECT_EQ(callback_completed, 3);
}

// --- Per-tenant labeled metrics ---------------------------------------------

// Every request-path counter is emitted twice — once globally, once labeled
// {tenant="<name>"} — so the labeled series must partition the global ones
// exactly, and the per-tenant queue-depth gauges must read zero after drain.
TEST(RepairServerTest, LabeledTenantSeriesPartitionGlobalCounters) {
  ServerOptions options;
  options.num_workers = 2;
  RepairServer server(options);
  const std::vector<std::string> names = {"alpha", "bravo"};
  std::vector<TenantId> tenants;
  for (size_t t = 0; t < names.size(); ++t) {
    auto metadata = MakeMetadata(120 + t, nullptr);
    ASSERT_TRUE(metadata.ok());
    auto id = server.AddTenant(names[t], *metadata);
    ASSERT_TRUE(id.ok());
    tenants.push_back(*id);
  }

  // Skewed submission counts: alpha 3 documents, bravo 1.
  std::vector<std::future<Result<ProcessOutcome>>> futures;
  const int kPerTenant[] = {3, 1};
  for (size_t t = 0; t < names.size(); ++t) {
    for (int i = 0; i < kPerTenant[t]; ++i) {
      auto future = server.Submit(
          tenants[t], ProcessRequest::FromHtml(MakeHtml(130 + 10 * t + i, 1)));
      ASSERT_TRUE(future.ok());
      futures.push_back(std::move(*future));
    }
  }
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.Stop().ok());
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }

  const obs::MetricsSnapshot snapshot = server.run().metrics().Snapshot();
  for (const char* metric :
       {"serve.submitted", "serve.accepted", "serve.completed"}) {
    SCOPED_TRACE(metric);
    int64_t labeled_sum = 0;
    for (size_t t = 0; t < names.size(); ++t) {
      const int64_t labeled =
          snapshot.Counter(metric, {{"tenant", names[t]}});
      EXPECT_EQ(labeled, kPerTenant[t]) << names[t];
      labeled_sum += labeled;
    }
    EXPECT_EQ(snapshot.Counter(metric), labeled_sum);
  }
  EXPECT_EQ(snapshot.Counter("serve.rejected"), 0);

  // Latency histograms partition the same way.
  int64_t labeled_observations = 0;
  for (size_t t = 0; t < names.size(); ++t) {
    const auto it = snapshot.histograms.find(
        obs::LabeledName("serve.request_seconds", {{"tenant", names[t]}}));
    ASSERT_NE(it, snapshot.histograms.end()) << names[t];
    EXPECT_EQ(it->second.count, kPerTenant[t]) << names[t];
    labeled_observations += it->second.count;
  }
  const auto global = snapshot.histograms.find("serve.request_seconds");
  ASSERT_NE(global, snapshot.histograms.end());
  EXPECT_EQ(global->second.count, labeled_observations);

  // Drained server: all queue-depth gauges (global and labeled) read zero.
  EXPECT_EQ(snapshot.GaugeOr("serve.queue_depth", -1.0), 0.0);
  for (const std::string& name : names) {
    EXPECT_EQ(snapshot.GaugeOr("serve.queue_depth", {{"tenant", name}}, -1.0),
              0.0)
        << name;
  }
}

// --- Admin status & SLOs ----------------------------------------------------

// The live status surface under deliberately skewed load: four tenants, two
// fed cheap clean documents and two fed larger error-laden ones, with an
// SLO pair chosen so one tenant must meet its objectives and another must
// breach them regardless of host speed (300 s vs 1 µs latency objectives).
// AdminStatus() must report the skew (distinct per-tenant p99s) and the
// breached-vs-met pair, without any exporter attached.
TEST(RepairServerTest, AdminStatusReportsTenantSkewAndSloPair) {
  constexpr int kTenants = 4;
  constexpr int kPerTenant = 4;
  ServerOptions options;
  options.num_workers = 2;
  RepairServer server(options);
  for (int t = 0; t < kTenants; ++t) {
    auto metadata = MakeMetadata(140 + t, nullptr);
    ASSERT_TRUE(metadata.ok());
    TenantOptions tenant_options;
    tenant_options.pipeline = SerialOptions();
    if (t == 0) {
      obs::SloSpec met;
      met.latency_objective_seconds = 300.0;  // nothing takes 5 minutes
      met.availability_objective = 0.5;
      tenant_options.slo = met;
    } else if (t == 3) {
      obs::SloSpec breached;
      breached.latency_objective_seconds = 1e-6;  // nothing beats 1 µs
      breached.availability_objective = 0.5;
      tenant_options.slo = breached;
    }
    auto id = server.AddTenant("t" + std::to_string(t), *metadata,
                               tenant_options);
    ASSERT_TRUE(id.ok());
  }

  // Tenants 0-1 submit clean 2-year documents, tenants 2-3 80-year
  // documents with injected errors — bigger acquisitions plus a MILP solve
  // the clean path never runs, so their latencies land in visibly higher
  // histogram buckets. The heavy documents take tens of milliseconds, so a
  // clean request that loses its core for a few scheduler ticks still
  // finishes well below them.
  std::vector<std::future<Result<ProcessOutcome>>> futures;
  for (int t = 0; t < kTenants; ++t) {
    const bool heavy = t >= 2;
    for (int i = 0; i < kPerTenant; ++i) {
      const uint64_t seed = 200 + static_cast<uint64_t>(10 * t + i);
      auto future = server.Submit(
          t, ProcessRequest::FromHtml(
                 MakeHtml(seed, heavy ? 2 : 0, heavy ? 80 : 2)));
      ASSERT_TRUE(future.ok());
      futures.push_back(std::move(*future));
    }
  }
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.Stop().ok());
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }

  // The skew is visible in the per-tenant latency histograms.
  const obs::MetricsSnapshot snapshot = server.run().metrics().Snapshot();
  auto p99 = [&](const std::string& tenant) {
    const auto it = snapshot.histograms.find(
        obs::LabeledName("serve.request_seconds", {{"tenant", tenant}}));
    EXPECT_NE(it, snapshot.histograms.end()) << tenant;
    EXPECT_EQ(it->second.count, kPerTenant) << tenant;
    return it->second.Quantile(0.99);
  };
  EXPECT_GT(p99("t3"), p99("t0"));

  const std::string status = server.AdminStatus();
  EXPECT_NE(status.find("\"schema\": \"dart.serve.status\""),
            std::string::npos)
      << status;
  EXPECT_NE(status.find("\"schema_version\": 1"), std::string::npos);
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_NE(status.find("\"tenant\": \"t" + std::to_string(t) + "\""),
              std::string::npos);
  }
  // The breached-vs-met pair: t3's 1 µs objective cannot be met, t0's 300 s
  // objective cannot be missed.
  EXPECT_NE(status.find("\"compliant\": false"), std::string::npos) << status;
  EXPECT_NE(status.find("\"compliant\": true"), std::string::npos) << status;
  EXPECT_NE(status.find("\"budget_remaining\""), std::string::npos);
  EXPECT_NE(status.find("\"window_ticks_used\""), std::string::npos);
}

}  // namespace
}  // namespace dart::serve
