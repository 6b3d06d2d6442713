// serve_mixed: 2×W closed-loop request slots against a RepairServer with W
// workers and four tenants with distinct catalogs, under the server's
// default observability. Per-document compute is small, so admission,
// dispatch, batch fusion and the shared RunContext dominate.

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <thread>

#include "acquire/layout.h"
#include "ocr/cash_budget.h"
#include "repair/batch.h"
#include "serve/server.h"
#include "stages.h"
#include "util/random.h"
#include "validation/operator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dart::Result;
using dart::core::DartPipeline;
using dart::core::ProcessOutcome;
using dart::core::ProcessRequest;
using dart::serve::RepairServer;

constexpr int kTenants = 4;
constexpr int kBatchDocs = 4;
/// Documents per tenant and year count (2, 3 and 4 years).
constexpr size_t kDocsPerYears = 16;
/// Requests in one pass of the mix: 60% HTML, 15% positional, 15% batches
/// of kBatchDocs, 10% supervised.
constexpr int kHtmlRequests = 300;
constexpr int kPositionalRequests = 75;
constexpr int kBatchRequests = 75;
constexpr int kSupervisedRequests = 50;
/// A timed pass serves the mix this many times on one fresh server.
constexpr size_t kMixesPerPass = 3;
/// Warm-up requests between two looks at the trace ring, and the most
/// looks taken.
constexpr size_t kWarmupChunk = 100;
constexpr int kMaxWarmupChunks = 50;
constexpr size_t kRingFullRequests = 200;
/// Consistent-interval computations in the traced run. One call on a 2-year
/// document of the smallest catalog takes from tens of milliseconds to a
/// few seconds (4 calls: 0.6–7.3 s over seeds 1–5), and seconds each on the
/// larger catalogs of tenants 1–3.
constexpr size_t kCqaDocs = 4;

enum class Kind { kHtml, kPositional, kBatch, kSupervised };

struct Request {
  Kind kind = Kind::kHtml;
  int tenant = 0;
  std::vector<size_t> docs;  ///< kBatchDocs for a batch, else one.
};

/// Tenant t's catalog: distinct detail counts per tenant.
int ReceiptDetails(int tenant) { return 2 + tenant % 2; }
int DisbursementDetails(int tenant) { return 3 + tenant / 2; }

struct Tenant {
  std::vector<BudgetDoc> docs;
  std::vector<dart::acquire::PositionalDocument> positional;
  std::vector<dart::validation::SimulatedOperator> operators;
  std::vector<dart::cons::GroundProgram> grounds;
  /// Direct Submit outcomes: what a served outcome must equal.
  std::vector<ProcessOutcome> expected_html;
  std::vector<ProcessOutcome> expected_positional;
  std::unique_ptr<DartPipeline> pipeline;  ///< direct (unserved) pipeline.
};

/// Outcome of one request, served or direct.
struct Sample {
  double seconds = 0;
  bool ok = false;
  int docs = 1;
};

struct Inputs {
  std::vector<Tenant> tenants;
  std::vector<Request> mix;
  std::vector<size_t> html;  ///< indices of the mix's HTML requests.
};

Inputs BuildInputs(uint64_t seed, WorkloadResult* result) {
  Inputs inputs;
  inputs.tenants.resize(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    Tenant& tenant = inputs.tenants[static_cast<size_t>(t)];
    for (int years = 2; years <= 4; ++years) {
      const BudgetShape shape{years, ReceiptDetails(t), DisbursementDetails(t),
                              /*min_errors=*/1, /*max_errors=*/2,
                              /*max_every=*/2};
      std::vector<BudgetDoc> docs = MakeBudgetPool(
          seed * 131 + static_cast<uint64_t>(t * 8 + years), shape,
          kDocsPerYears);
      LogPool("serve_mixed/t" + std::to_string(t), shape, docs);
      for (BudgetDoc& doc : docs) tenant.docs.push_back(std::move(doc));
    }
    tenant.pipeline = std::make_unique<DartPipeline>(
        MakePipeline(ReceiptDetails(t), DisbursementDetails(t)));
    tenant.operators.reserve(tenant.docs.size());
    for (const BudgetDoc& doc : tenant.docs) {
      tenant.positional.push_back(
          dart::ocr::CashBudgetFixture::RenderPositional(doc.acquired));
      tenant.operators.emplace_back(&doc.truth);
      tenant.grounds.push_back(
          MustGround(doc.acquired, tenant.pipeline->constraints()));
      auto html = tenant.pipeline->Submit(ProcessRequest::FromHtml(doc.html));
      auto positional = tenant.pipeline->Submit(
          ProcessRequest::FromPositional(tenant.positional.back()));
      DART_CHECK_MSG(html.ok(), html.status().ToString());
      DART_CHECK_MSG(positional.ok(), positional.status().ToString());
      // The direct outcomes are the reference, so they are checked too.
      result->attempted += 2;
      if (!CheckProcessOutcome(*html, tenant.grounds.back(), doc.errors) ||
          !SameOutcome(*html, *positional)) {
        result->failed += 1;
      }
      tenant.expected_html.push_back(std::move(html).value());
      tenant.expected_positional.push_back(std::move(positional).value());
    }
  }
  dart::Rng rng(seed ^ 0x5e7e5e7eULL);
  const size_t docs = kDocsPerYears * 3;
  auto add = [&](Kind kind, int count) {
    for (int i = 0; i < count; ++i) {
      Request request;
      request.kind = kind;
      request.tenant = static_cast<int>(inputs.mix.size()) % kTenants;
      const int n = kind == Kind::kBatch ? kBatchDocs : 1;
      for (int d = 0; d < n; ++d) {
        request.docs.push_back(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(docs) - 1)));
      }
      inputs.mix.push_back(std::move(request));
    }
  };
  add(Kind::kHtml, kHtmlRequests);
  add(Kind::kPositional, kPositionalRequests);
  add(Kind::kBatch, kBatchRequests);
  add(Kind::kSupervised, kSupervisedRequests);
  rng.Shuffle(&inputs.mix);
  for (size_t i = 0; i < inputs.mix.size(); ++i) {
    if (inputs.mix[i].kind == Kind::kHtml) inputs.html.push_back(i);
  }
  return inputs;
}

dart::serve::ServerOptions MakeServerOptions(int workers) {
  dart::serve::ServerOptions options;
  options.num_workers = workers;
  // Room for every request the slots can hold in flight, so no submission
  // is ever refused (a refusal would count as a failed request).
  options.queue_capacity =
      std::max<size_t>(options.queue_capacity,
                       static_cast<size_t>(2 * workers * kBatchDocs));
  return options;
}

std::unique_ptr<RepairServer> StartServer(int workers) {
  auto server = std::make_unique<RepairServer>(MakeServerOptions(workers));
  for (int t = 0; t < kTenants; ++t) {
    dart::serve::TenantOptions options;
    options.pipeline = SerialPipelineOptions();
    auto id = server->AddTenant(
        "t" + std::to_string(t),
        BudgetMetadata(ReceiptDetails(t), DisbursementDetails(t)), options);
    DART_CHECK_MSG(id.ok(), id.status().ToString());
  }
  DART_CHECK_MSG(server->Start().ok(), "server failed to start");
  return server;
}

/// Checks one document's outcome against its direct reference.
bool CheckDoc(const Result<ProcessOutcome>& outcome,
              const ProcessOutcome& expected) {
  return outcome.ok() && SameOutcome(*outcome, expected);
}

/// One request through the server: submit, wait, check.
Sample Serve(RepairServer* server, const Inputs& inputs,
             const Request& request) {
  const Tenant& tenant = inputs.tenants[static_cast<size_t>(request.tenant)];
  const size_t doc = request.docs.front();
  Sample sample;
  const Clock::time_point start = Clock::now();
  switch (request.kind) {
    case Kind::kHtml:
    case Kind::kPositional: {
      auto future = request.kind == Kind::kHtml
                        ? server->Submit(request.tenant,
                                         ProcessRequest::FromHtml(
                                             tenant.docs[doc].html))
                        : server->Submit(request.tenant,
                                         ProcessRequest::FromPositional(
                                             tenant.positional[doc]));
      if (!future.ok()) break;
      const Result<ProcessOutcome> outcome = future->get();
      sample.seconds = SecondsSince(start);
      sample.ok = CheckDoc(outcome,
                           request.kind == Kind::kHtml
                               ? tenant.expected_html[doc]
                               : tenant.expected_positional[doc]);
      break;
    }
    case Kind::kBatch: {
      dart::core::BatchRequest batch;
      for (const size_t d : request.docs) {
        batch.documents.push_back(
            ProcessRequest::FromHtml(tenant.docs[d].html));
      }
      sample.docs = static_cast<int>(request.docs.size());
      auto future = server->SubmitBatch(request.tenant, std::move(batch));
      if (!future.ok()) break;
      const Result<dart::core::BatchOutcome> outcome = future->get();
      sample.seconds = SecondsSince(start);
      if (!outcome.ok() || outcome->documents.size() != request.docs.size()) {
        break;
      }
      sample.ok = true;
      for (size_t i = 0; i < request.docs.size(); ++i) {
        sample.ok &= CheckDoc(outcome->documents[i].result,
                              tenant.expected_html[request.docs[i]]);
      }
      break;
    }
    case Kind::kSupervised: {
      auto future = server->SubmitSupervised(
          request.tenant, tenant.docs[doc].html, &tenant.operators[doc]);
      if (!future.ok()) break;
      const Result<dart::validation::SessionResult> session = future->get();
      sample.seconds = SecondsSince(start);
      sample.ok = session.ok() &&
                  EndsOnTruth(*session, tenant.docs[doc], tenant.grounds[doc]);
      break;
    }
  }
  if (sample.seconds == 0) sample.seconds = SecondsSince(start);
  return sample;
}

/// The same request through the tenant's pipeline directly.
Sample Direct(const Inputs& inputs, const Request& request) {
  const Tenant& tenant = inputs.tenants[static_cast<size_t>(request.tenant)];
  const DartPipeline& pipeline = *tenant.pipeline;
  const size_t doc = request.docs.front();
  Sample sample;
  const Clock::time_point start = Clock::now();
  switch (request.kind) {
    case Kind::kHtml: {
      auto outcome =
          pipeline.Submit(ProcessRequest::FromHtml(tenant.docs[doc].html));
      sample.seconds = SecondsSince(start);
      sample.ok = CheckDoc(outcome, tenant.expected_html[doc]);
      break;
    }
    case Kind::kPositional: {
      auto outcome = pipeline.Submit(
          ProcessRequest::FromPositional(tenant.positional[doc]));
      sample.seconds = SecondsSince(start);
      sample.ok = CheckDoc(outcome, tenant.expected_positional[doc]);
      break;
    }
    case Kind::kBatch: {
      dart::core::BatchRequest batch;
      for (const size_t d : request.docs) {
        batch.documents.push_back(
            ProcessRequest::FromHtml(tenant.docs[d].html));
      }
      sample.docs = static_cast<int>(request.docs.size());
      const dart::core::BatchOutcome outcome = pipeline.SubmitBatch(batch);
      sample.seconds = SecondsSince(start);
      sample.ok = outcome.documents.size() == request.docs.size();
      for (size_t i = 0; sample.ok && i < request.docs.size(); ++i) {
        sample.ok &= CheckDoc(outcome.documents[i].result,
                              tenant.expected_html[request.docs[i]]);
      }
      break;
    }
    case Kind::kSupervised: {
      auto session = pipeline.ProcessSupervised(tenant.docs[doc].html,
                                                tenant.operators[doc]);
      sample.seconds = SecondsSince(start);
      sample.ok = session.ok() &&
                  EndsOnTruth(*session, tenant.docs[doc], tenant.grounds[doc]);
      break;
    }
  }
  return sample;
}

struct Phase {
  std::vector<Sample> samples;
  double wall_s = 0;
  std::vector<double> part_wall_s;  ///< wall time of each appended phase.

  double Docs() const {
    double docs = 0;
    for (const Sample& sample : samples) docs += sample.docs;
    return docs;
  }
  std::vector<double> Latencies() const {
    std::vector<double> latencies;
    for (const Sample& sample : samples) latencies.push_back(sample.seconds);
    return latencies;
  }
  void Append(Phase other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    wall_s += other.wall_s;
    part_wall_s.push_back(other.wall_s);
  }
};

/// `threads` closed-loop slots running `run(i)` for i in [0, count), each
/// slot taking the next index as soon as its previous request completes.
Phase RunSlots(int threads, size_t count,
               const std::function<Sample(size_t)>& run) {
  std::vector<std::vector<Sample>> per_thread(static_cast<size_t>(threads));
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> slots;
  for (int t = 0; t < threads; ++t) {
    slots.emplace_back([&, t] {
      for (size_t i = next++; i < count; i = next++) {
        per_thread[static_cast<size_t>(t)].push_back(run(i));
      }
    });
  }
  for (std::thread& slot : slots) slot.join();
  Phase phase;
  phase.wall_s = SecondsSince(start);
  for (auto& samples : per_thread) {
    phase.samples.insert(phase.samples.end(), samples.begin(), samples.end());
  }
  return phase;
}

/// Whole passes of RunSlots over [0, pass) until `seconds` of passes have
/// run.
Phase RunPasses(int threads, size_t pass, double seconds,
                const std::function<Sample(size_t)>& run) {
  Phase phase;
  do {
    phase.Append(RunSlots(threads, pass, run));
  } while (phase.wall_s < seconds);
  return phase;
}

void Tally(const Phase& phase, WorkloadResult* result) {
  for (const Sample& sample : phase.samples) {
    ++result->attempted;
    if (!sample.ok) ++result->failed;
  }
}

/// Runs `chunk` until `run`'s trace ring is full — its obs.spans_dropped
/// counter starts to move — or kMaxWarmupChunks chunks ran. Returns the
/// chunks run.
int FillTraceRing(const dart::obs::RunContext& run,
                  const std::function<void()>& chunk) {
  int chunks = 0;
  while (run.metrics().Snapshot().Counter("obs.spans_dropped") == 0 &&
         chunks < kMaxWarmupChunks) {
    chunk();
    ++chunks;
  }
  return chunks;
}

/// Served passes: each pass serves the mix kMixesPerPass times on a fresh
/// server (started, warmed with two requests per slot, stopped after the
/// pass), with 2×W slots, until `seconds` of passes have run. A pass of
/// 1 500 requests closes ~42 000 spans, inside the server's 65 536-span
/// trace ring, so every pass measures the same state; the full-ring state is
/// measured separately (RingFullDocsPerSecond). With a `setup` timer, set-up
/// is sampled before every pass; `queue_wait_ms` receives each server's
/// median queue wait.
Phase ServedPasses(const Inputs& inputs, int workers, double seconds,
                   WorkloadResult* result, SetupTimer* setup = nullptr,
                   std::vector<double>* queue_wait_ms = nullptr) {
  Phase phase;
  do {
    if (setup != nullptr) setup->Sample(kSetupSliceSeconds);
    std::unique_ptr<RepairServer> server = StartServer(workers);
    const auto serve = [&](size_t i) {
      return Serve(server.get(), inputs, inputs.mix[i % inputs.mix.size()]);
    };
    Tally(RunSlots(2 * workers, 4 * static_cast<size_t>(workers), serve),
          result);
    phase.Append(
        RunSlots(2 * workers, kMixesPerPass * inputs.mix.size(), serve));
    if (queue_wait_ms != nullptr) {
      const dart::obs::MetricsSnapshot metrics =
          server->run().metrics().Snapshot();
      const auto queue = metrics.histograms.find("serve.queue_seconds");
      if (queue != metrics.histograms.end()) {
        queue_wait_ms->push_back(queue->second.Quantile(0.5) * 1e3);
      }
    }
    DART_CHECK_MSG(server->Stop().ok(), "server failed to stop");
  } while (phase.wall_s < seconds);
  return phase;
}

/// Served docs/s once the server's trace ring is full, the state a
/// long-running server lives in: serves the mix until the ring's
/// obs.spans_dropped counter moves, then times kRingFullRequests more.
double RingFullDocsPerSecond(const Inputs& inputs, int workers,
                             WorkloadResult* result) {
  std::unique_ptr<RepairServer> server = StartServer(workers);
  const auto serve = [&](size_t i) {
    return Serve(server.get(), inputs, inputs.mix[i % inputs.mix.size()]);
  };
  const int chunks = FillTraceRing(server->run(), [&] {
    Tally(RunSlots(2 * workers, kWarmupChunk, serve), result);
  });
  const Phase phase = RunSlots(2 * workers, kRingFullRequests, serve);
  Tally(phase, result);
  DART_CHECK_MSG(server->Stop().ok(), "server failed to stop");
  Log("serve_mixed: trace ring full after " +
      std::to_string(chunks * kWarmupChunk) + " requests");
  return phase.Docs() / phase.wall_s;
}

/// Replays the stages SubmitBatch runs on `docs`: Acquire ("acquire"),
/// grounding ("ground") and detection ("detect") per document, then
/// repair::ComputeRepairBatch ("batch") over all of them.
bool ReplayBatch(const DartPipeline& pipeline, const Tenant& tenant,
                 const std::vector<size_t>& docs, Tracer* tracer,
                 int64_t parent, int64_t request, LayerCounts* counts) {
  std::vector<dart::rel::Database> dbs;
  std::vector<dart::cons::GroundProgram> grounds;
  for (const size_t d : docs) {
    Tracer::Span acquire(tracer, "acquire", parent, request);
    auto acquired = pipeline.Acquire(tenant.docs[d].html);
    acquire.End();
    if (!acquired.ok()) return false;
    dbs.push_back(std::move(acquired->database));
    Tracer::Span ground(tracer, "ground", parent, request);
    auto grounded = dart::cons::GroundConstraintProgram(
        dbs.back(), pipeline.constraints());
    ground.End();
    if (!grounded.ok()) return false;
    grounds.push_back(std::move(grounded).value());
    ++counts->ground_docs;
    counts->ground_rows += static_cast<int64_t>(grounds.back().rows.size());
    Tracer::Span detect(tracer, "detect", parent, request);
    auto violations =
        dart::cons::EvaluateGroundProgram(dbs.back(), grounds.back());
    detect.End();
    if (!violations.ok()) return false;
  }
  std::vector<dart::repair::BatchRepairRequest> batch;
  for (size_t i = 0; i < dbs.size(); ++i) {
    batch.push_back({&dbs[i], &grounds[i], {}});
  }
  Tracer::Span batch_span(tracer, "batch", parent, request);
  const auto repaired = dart::repair::ComputeRepairBatch(
      batch, pipeline.constraints(), SerialPipelineOptions().engine);
  batch_span.End();
  counts->batch_docs += static_cast<int64_t>(batch.size());
  return std::all_of(repaired.begin(), repaired.end(),
                     [](const auto& outcome) { return outcome.ok(); });
}

/// W = nproc / 2 (1 to 4). With nproc − 1 workers, the workers, the 2×W
/// client slots and the server's dispatch thread oversubscribe the cores, and
/// on a shared 4-vCPU VM hypervisor steal time then swung served throughput
/// by ±20% between identical runs; at nproc / 2 it held within ±7%.
int ServerWorkers() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores / 2, 1, 4);
}

/// Per-layer figures of the traced run (see README.md).
std::vector<Metric> TracedRun(const RunOptions& options, const Inputs& inputs,
                              int workers, const std::string& trace_path,
                              WorkloadResult* result) {
  const double s = options.seconds;
  LayerExtras extras;

  // Served docs/s and queue wait at W workers, then the full-ring state.
  std::vector<double> queue_wait_ms;
  const Phase served =
      ServedPasses(inputs, workers, 0.15 * s, result, nullptr, &queue_wait_ms);
  Tally(served, result);
  extras.queue_wait_ms_p50 = Median(queue_wait_ms);
  extras.ring_full_slowdown = (served.Docs() / served.wall_s) /
                              RingFullDocsPerSecond(inputs, workers, result);

  // Direct single-thread docs/s over the same mix: the scaling baseline and
  // the untraced side of the tracing overhead.
  const Phase direct = RunPasses(1, inputs.mix.size(), 0.15 * s,
                                [&](size_t i) {
                                  return Direct(inputs, inputs.mix[i]);
                                });
  Tally(direct, result);
  // One thread runs the mix in order, so sample i is mix request i.
  const std::vector<double> direct_s = direct.Latencies();
  extras.scaling_eff = (served.Docs() / served.wall_s) /
                       (workers * direct.Docs() / direct.wall_s);

  // Dispatch cost: one HTML document in flight, served vs direct.
  std::unique_ptr<RepairServer> server = StartServer(workers);
  std::vector<double> served_one, direct_one;
  const Clock::time_point dispatch_start = Clock::now();
  for (size_t i = 0; SecondsSince(dispatch_start) < 0.1 * s; ++i) {
    const Request& request = inputs.mix[i % inputs.mix.size()];
    if (request.kind != Kind::kHtml) continue;
    const Sample via_server = Serve(server.get(), inputs, request);
    const Sample via_pipeline = Direct(inputs, request);
    served_one.push_back(via_server.seconds);
    direct_one.push_back(via_pipeline.seconds);
    result->attempted += 2;
    result->failed += (via_server.ok ? 0 : 1) + (via_pipeline.ok ? 0 : 1);
  }
  extras.dispatch_ms = (Median(served_one) - Median(direct_one)) * 1e3;
  DART_CHECK_MSG(server->Stop().ok(), "server failed to stop");
  server.reset();

  // W threads of direct HTML Submits: untraced pipelines vs pipelines
  // sharing one traced RunContext (the server's default trace policy).
  dart::obs::RunContext shared(dart::serve::ServerOptions{}.trace);
  std::vector<std::unique_ptr<DartPipeline>> traced_pipelines;
  for (int t = 0; t < kTenants; ++t) {
    dart::core::PipelineOptions pipeline_options = SerialPipelineOptions();
    pipeline_options.run = &shared;
    traced_pipelines.push_back(std::make_unique<DartPipeline>(
        MakePipeline(ReceiptDetails(t), DisbursementDetails(t),
                     pipeline_options)));
  }
  auto submit_html = [&](bool traced, size_t i) {
    const Request& request = inputs.mix[inputs.html[i % inputs.html.size()]];
    const Tenant& tenant = inputs.tenants[static_cast<size_t>(request.tenant)];
    const size_t doc = request.docs.front();
    const DartPipeline& pipeline =
        traced ? *traced_pipelines[static_cast<size_t>(request.tenant)]
               : *tenant.pipeline;
    const Clock::time_point start = Clock::now();
    auto outcome =
        pipeline.Submit(ProcessRequest::FromHtml(tenant.docs[doc].html));
    Sample sample;
    sample.seconds = SecondsSince(start);
    sample.ok = CheckDoc(outcome, tenant.expected_html[doc]);
    return sample;
  };
  auto html_docs_per_s = [&](bool traced) {
    const Phase phase =
        RunPasses(workers, inputs.html.size(), 0.1 * s,
                  [&](size_t i) { return submit_html(traced, i); });
    Tally(phase, result);
    return phase.Docs() / phase.wall_s;
  };
  const double untraced_dps = html_docs_per_s(false);
  FillTraceRing(shared, [&] {
    Tally(RunSlots(workers, kWarmupChunk,
                   [&](size_t i) { return submit_html(true, i); }),
          result);
  });
  extras.shared_ctx_scaling = html_docs_per_s(true) / untraced_dps;

  // Traced requests, single-threaded, each followed by its stage replay.
  Tracer tracer;
  LayerCounts counts;
  std::vector<double> traced_s;
  int64_t requests = 0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;
       i < inputs.mix.size() && (i < 50 || SecondsSince(start) < 0.25 * s);
       ++i) {
    const Request& request = inputs.mix[i];
    const Tenant& tenant = inputs.tenants[static_cast<size_t>(request.tenant)];
    const DartPipeline& pipeline = *tenant.pipeline;
    const size_t doc = request.docs.front();
    const int64_t id = tracer.NewRequest();
    ++requests;
    const char* name = request.kind == Kind::kBatch        ? "submit_batch"
                       : request.kind == Kind::kSupervised ? "supervised"
                                                           : "submit";
    Tracer::Span span(&tracer, name, 0, id);
    const Sample sample = Direct(inputs, request);
    traced_s.push_back(span.End());
    bool replayed = false;
    switch (request.kind) {
      case Kind::kHtml:
        replayed = ReplaySubmit(pipeline, tenant.docs[doc].html, &tracer,
                                span.id(), id, &counts);
        break;
      case Kind::kPositional: {
        Tracer::Span reconstruct(&tracer, "reconstruct", span.id(), id);
        auto html = dart::acquire::ConvertToHtml(tenant.positional[doc]);
        reconstruct.End();
        replayed = html.ok() && ReplaySubmit(pipeline, *html, &tracer,
                                             span.id(), id, &counts);
        break;
      }
      case Kind::kBatch:
        replayed = ReplayBatch(pipeline, tenant, request.docs, &tracer,
                               span.id(), id, &counts);
        break;
      case Kind::kSupervised: {
        Tracer::Span acquire(&tracer, "acquire", span.id(), id);
        auto acquired = pipeline.Acquire(tenant.docs[doc].html);
        acquire.End();
        replayed = acquired.ok() &&
                   ReplaySession(pipeline, acquired->database,
                                 tenant.docs[doc].truth, &tracer, span.id(),
                                 id, &counts);
        break;
      }
    }
    ++result->attempted;
    if (!sample.ok || !replayed) ++result->failed;
  }

  // The consistent-answer layer, on the first kCqaDocs 2-year documents of
  // tenant 0 (the smallest catalog): a fixed set, so its solve and node
  // counts repeat for a seed.
  const Tenant& cqa_tenant = inputs.tenants.front();
  for (size_t i = 0; i < kCqaDocs; ++i) {
    const int64_t id = tracer.NewRequest();
    ++requests;
    ++result->attempted;
    if (!TraceCqa(cqa_tenant.docs[i].acquired,
                  cqa_tenant.pipeline->constraints(),
                  cqa_tenant.expected_html[i].repair.repair.cardinality(),
                  &tracer, id, &counts)) {
      ++result->failed;
    }
  }
  tracer.PrintTable("serve_mixed", requests);
  tracer.WriteJson(trace_path);
  extras.trace_overhead_frac =
      Median(traced_s) /
          Median(std::vector<double>(direct_s.begin(),
                                     direct_s.begin() + traced_s.size())) -
      1;
  return PerLayerMetrics(tracer, counts, extras);
}

}  // namespace

WorkloadResult RunServeMixed(const RunOptions& options,
                             const std::string& trace_path) {
  WorkloadResult result;
  const int workers = ServerWorkers();
  // Set-up: metadata ×4, the server, AddTenant ×4 and Start; Stop untimed.
  SetupTimer setup([workers] {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<RepairServer> server = StartServer(workers);
    const double seconds = SecondsSince(start);
    DART_CHECK_MSG(server->Stop().ok(), "server failed to stop");
    return seconds;
  });

  const Inputs inputs = BuildInputs(options.seed, &result);
  Log("serve_mixed: workers=" + std::to_string(workers) + " slots=" +
      std::to_string(2 * workers) + " tenants=" + std::to_string(kTenants) +
      " mix=" + std::to_string(inputs.mix.size()) + " requests, " +
      std::to_string(kMixesPerPass) + " mixes per pass");

  if (options.trace) {
    result.per_layer = TracedRun(options, inputs, workers, trace_path, &result);
    return result;
  }

  const Phase timed =
      ServedPasses(inputs, workers, options.seconds, &result, &setup);

  LoopStats loop;
  loop.wall_s = timed.wall_s;
  loop.pass_wall_s = timed.part_wall_s;
  for (const Sample& sample : timed.samples) {
    loop.latencies_s.push_back(sample.seconds);
    ++loop.attempted;
    if (!sample.ok) ++loop.failed;
  }
  // Repair cardinality and operator effort over every document of every
  // tenant: a served outcome must equal its document's direct reference,
  // and the mix draws too few distinct documents for steady means.
  double updates = 0, examined = 0;
  size_t docs = 0;
  for (const Tenant& tenant : inputs.tenants) {
    for (const ProcessOutcome& outcome : tenant.expected_html) {
      updates += static_cast<double>(outcome.repair.repair.cardinality());
      ++docs;
    }
    examined += OperatorEffort(*tenant.pipeline, tenant.docs, tenant.grounds,
                               &result) /
                kTenants;
  }
  AddLoopMetrics("serve_mixed", loop, timed.Docs(), &result);
  result.end_to_end.push_back({"setup_s", setup.MedianSeconds(), "s"});
  result.end_to_end.push_back(
      {"updates_per_doc", updates / static_cast<double>(docs), "count"});
  result.end_to_end.push_back(
      {"examined_per_session", examined, "count"});
  result.end_to_end.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  return result;
}

}  // namespace perfbench
