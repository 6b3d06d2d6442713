#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "obs/context.h"
#include "obs/exporter.h"
#include "obs/sink.h"
#include "obs/slo.h"
#include "util/status.h"
#include "validation/operator.h"
#include "validation/session.h"

/// \file server.h
/// DART as a service: one RepairServer multiplexes N tenants — each an
/// isolated (metadata, constraint program, pipeline options) triple — over
/// one set of worker threads, so a deployment serves many acquisition
/// schemas from one process without over-provisioning workers per tenant.
///
/// The request path is asynchronous: Submit / SubmitBatch / SubmitSupervised
/// enqueue one work item and return a future. Admission is bounded
/// (`queue_capacity`, counted in documents — an 8-document batch costs 8):
/// when the queue is full the submission FAILS FAST with kUnavailable and a
/// machine-readable retry-after hint (RetryAfterMillis); it never blocks the
/// caller and never crashes. Dispatch is fair round-robin across tenants:
/// each worker takes the next nonempty tenant queue after the one served
/// last, so one tenant's deep backlog cannot starve its neighbours' single
/// documents.
///
/// The tenant queues are the only queue. Start() launches
/// max(1, num_workers) threads that block on one condition variable while
/// every tenant queue is empty (an idle server uses no CPU); each admission
/// wakes one of them.
///
/// Work admitted before Start() is dispatched when Start() runs (this makes
/// dispatch order deterministic for tests); Stop() — idempotent, also run by
/// the destructor — stops admission, drains every accepted item, fulfills
/// its future, and joins the workers, so an accepted future is always
/// eventually ready. Results are computed by ordinary DartPipeline calls
/// with per-tenant options, so they are bit-identical to serial per-tenant
/// execution at any `milp.search.num_threads` (tests/serve_test.cpp).
///
/// Observability: the server owns one RunContext (tail sampling on by
/// default — trace.h) shared by every tenant pipeline unless a tenant
/// brings its own. Per-request root spans `serve.request.<tenant>` frame
/// execution; serve.* counters/gauges/histograms are documented in
/// docs/observability.md. Every request-path metric is emitted twice: once
/// globally and once as the `{tenant="<name>"}` labeled series
/// (obs/registry.h § labeled series), so an operator can attribute load,
/// rejections, and latency to a tenant. When ServerOptions::sinks is
/// nonempty (or any tenant declares an SLO) a PeriodicExporter streams
/// metric deltas to them in-process — no filesystem round-trips
/// (docs/serving.md).
///
/// SLOs: a tenant may declare an obs::SloSpec (TenantOptions::slo); the
/// server feeds a shared obs::SloTracker from exporter ticks and from
/// AdminStatus() calls. AdminStatus() renders the whole serving surface —
/// per-tenant queue depth, admission stats, histogram-derived p50/p99, SLO
/// compliance and error-budget remaining — as one schema-versioned
/// `dart.serve.status` v1 JSON document, validated by
/// `trace_report.py slo`.

namespace dart::serve {

inline constexpr char kServeStatusSchema[] = "dart.serve.status";
inline constexpr int kServeStatusSchemaVersion = 1;

/// Dense tenant handle returned by AddTenant (index order).
using TenantId = int;

struct ServerOptions {
  /// Worker threads shared by every tenant (at least one is started).
  int num_workers = 4;
  /// Admission bound, in documents: a queued batch of N documents holds N
  /// units until dispatched. Submissions that would exceed it are rejected
  /// with kUnavailable.
  size_t queue_capacity = 64;
  /// Retry hint attached to kUnavailable rejections (RetryAfterMillis).
  std::chrono::milliseconds retry_after{50};
  /// Trace policy of the server's RunContext. Defaults to a large ring with
  /// head AND tail sampling: the slowest requests per span name survive any
  /// amount of churn (trace.h).
  obs::TraceOptions trace{/*capacity=*/65536, /*head_samples_per_name=*/64,
                          /*tail_samples_per_name=*/16};
  /// Pluggable metric-delta destinations (obs/sink.h). When nonempty, a
  /// PeriodicExporter streams to them between Start() and Stop(). Not
  /// owned; each must outlive the server.
  std::vector<obs::ExporterSink*> sinks;
  /// Tick interval of that exporter.
  std::chrono::milliseconds export_interval{1000};
};

/// Per-tenant configuration. The pipeline's RunContext defaults to the
/// server's shared context when unset.
struct TenantOptions {
  core::PipelineOptions pipeline;
  /// Service-level objectives for this tenant (obs/slo.h). When set, the
  /// server tracks rolling compliance/error-budget burn against the
  /// tenant's labeled serve.* series and reports them in AdminStatus().
  std::optional<obs::SloSpec> slo;
};

/// Point-in-time admission/completion accounting (also mirrored as serve.*
/// registry metrics).
struct ServerStats {
  int64_t submitted = 0;  ///< admission attempts.
  int64_t accepted = 0;
  int64_t rejected = 0;   ///< failed admission (queue full).
  int64_t completed = 0;  ///< items executed and futures fulfilled.
  size_t queue_depth = 0;  ///< documents currently queued.
};

/// See the file comment. Not copyable or movable (owns threads).
class RepairServer {
 public:
  explicit RepairServer(ServerOptions options = {});
  ~RepairServer();
  RepairServer(const RepairServer&) = delete;
  RepairServer& operator=(const RepairServer&) = delete;

  /// Registers a tenant (validates its metadata via DartPipeline::Create).
  /// Callable before Start() or between requests; the id is the insertion
  /// index.
  Result<TenantId> AddTenant(std::string name,
                             core::AcquisitionMetadata metadata,
                             TenantOptions options = {});

  /// Launches the worker threads (and the sink exporter, when configured),
  /// dispatching anything already queued. Fails on a second call.
  Status Start();

  /// Stops admission, drains every accepted item (their futures become
  /// ready), joins the workers. Idempotent; run by the destructor. On a
  /// server that was never Start()ed, queued items are cancelled with
  /// kUnavailable instead.
  Status Stop();

  /// One document. The future is fulfilled by a worker with exactly what a
  /// direct `pipeline.Submit(request)` would return.
  Result<std::future<Result<core::ProcessOutcome>>> Submit(
      TenantId tenant, core::ProcessRequest request);

  /// One fused batch (costs `request.documents.size()` admission units).
  Result<std::future<Result<core::BatchOutcome>>> SubmitBatch(
      TenantId tenant, core::BatchRequest request);

  /// One supervised validation session (cost 1). `op` must outlive the
  /// future's completion.
  Result<std::future<Result<validation::SessionResult>>> SubmitSupervised(
      TenantId tenant, std::string html,
      const validation::SimulatedOperator* op,
      validation::SessionOptions session_options = {});

  /// The server's shared observability context.
  const obs::RunContext& run() const { return run_; }

  /// Live admin status: one `dart.serve.status` v1 JSON document covering
  /// global admission stats and, per tenant, queue depth, admission
  /// counters, histogram-derived p50/p99 of `serve.request_seconds`, and —
  /// when the tenant declared an SLO — compliance and error-budget
  /// remaining. Each call ingests a fresh snapshot into the SLO tracker
  /// (one rolling-window tick), so it works with or without a running
  /// exporter. Callable at any point in the server's life.
  std::string AdminStatus() const;

  ServerStats stats() const;
  size_t num_tenants() const;

 private:
  struct WorkItem;
  struct Tenant;

  /// Admission: bounds check and enqueue under the caller's `lock` on mu_,
  /// which it releases before waking one worker. `cost` in documents.
  Status Admit(std::unique_lock<std::mutex> lock, TenantId tenant,
               size_t cost, std::unique_ptr<WorkItem> item);
  /// One worker thread: dequeues and executes until the queues are empty
  /// and the server is stopping.
  void WorkerLoop();
  /// Round-robin dequeue (mu_ held); nullptr when every queue is empty.
  std::unique_ptr<WorkItem> DequeueLocked();
  /// Runs one item on its tenant's pipeline and fulfills its promise
  /// (mu_ not held).
  void Execute(Tenant* tenant, WorkItem* item);
  /// Fulfills an item's promise with `status` (cancellation path).
  static void Cancel(WorkItem* item, const Status& status);
  Status ValidateTenantLocked(TenantId tenant) const;

  const ServerOptions options_;
  obs::RunContext run_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  size_t cursor_ = 0;       ///< next tenant the round-robin scan starts at.
  size_t queued_docs_ = 0;  ///< admission units currently queued.
  bool started_ = false;
  bool stopping_ = false;
  ServerStats stats_;

  /// Signalled (after mu_ is released) on admission and at Stop().
  std::condition_variable work_cv_;
  std::vector<std::thread> workers_;  ///< set once by Start().
  std::unique_ptr<obs::PeriodicExporter> exporter_;
  /// Per-tenant SLO accounting; fed by the exporter (as a sink) and by
  /// AdminStatus() snapshots. Mutable: AdminStatus() is observability, but
  /// advances the tracker's rolling window. Internally synchronized.
  mutable obs::SloTracker slo_;
  bool has_slo_ = false;  ///< any tenant declared an SLO (guarded by mu_).
};

/// Parses the machine-readable hint out of a kUnavailable rejection message
/// ("... retry-after-ms=50"): the suggested backoff in milliseconds, or -1
/// when the status carries none.
int64_t RetryAfterMillis(const Status& status);

}  // namespace dart::serve
