#include "serve/server.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>

#include "obs/report.h"

namespace dart::serve {

namespace {

/// Wall-clock origin for queue-wait accounting.
using Clock = std::chrono::steady_clock;

constexpr char kRetryAfterKey[] = "retry-after-ms=";

}  // namespace

/// One admitted unit of work. Exactly one promise (matching `kind`) is ever
/// touched.
struct RepairServer::WorkItem {
  enum class Kind { kProcess, kBatch, kSupervised };
  Kind kind = Kind::kProcess;
  TenantId tenant = 0;
  size_t cost = 1;
  Clock::time_point submitted_at;

  core::ProcessRequest process;
  core::BatchRequest batch;
  std::string html;
  const validation::SimulatedOperator* op = nullptr;
  validation::SessionOptions session;

  std::promise<Result<core::ProcessOutcome>> process_promise;
  std::promise<Result<core::BatchOutcome>> batch_promise;
  std::promise<Result<validation::SessionResult>> supervised_promise;
};

struct RepairServer::Tenant {
  std::string name;
  std::unique_ptr<core::DartPipeline> pipeline;
  /// Root span name of this tenant's requests, precomputed once.
  std::string span_name;
  std::deque<std::unique_ptr<WorkItem>> queue;
  size_t queued_docs = 0;  ///< this tenant's share of the admission bound.

  /// Encoded `{tenant=<name>}` series keys, precomputed once so the
  /// request path pays a plain unlabeled-counter lookup per emission
  /// (registry.h § labeled series).
  std::string submitted_series;
  std::string accepted_series;
  std::string rejected_series;
  std::string completed_series;
  std::string queue_depth_series;
  std::string queue_seconds_series;
  std::string request_seconds_series;

  /// Per-tenant admission accounting mirrored into AdminStatus().
  ServerStats stats;
};

RepairServer::RepairServer(ServerOptions options)
    : options_(std::move(options)), run_(options_.trace) {}

RepairServer::~RepairServer() { (void)Stop(); }

Result<TenantId> RepairServer::AddTenant(std::string name,
                                         core::AcquisitionMetadata metadata,
                                         TenantOptions options) {
  if (options.pipeline.run == nullptr) options.pipeline.run = &run_;
  DART_ASSIGN_OR_RETURN(
      core::DartPipeline pipeline,
      core::DartPipeline::Create(std::move(metadata), options.pipeline));
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return Status::FailedPrecondition("server is stopped");
  auto tenant = std::make_unique<Tenant>();
  tenant->name = std::move(name);
  tenant->span_name = "serve.request." + tenant->name;
  const auto series = [&](std::string_view base) {
    return obs::LabeledName(base, {{"tenant", tenant->name}});
  };
  tenant->submitted_series = series("serve.submitted");
  tenant->accepted_series = series("serve.accepted");
  tenant->rejected_series = series("serve.rejected");
  tenant->completed_series = series("serve.completed");
  tenant->queue_depth_series = series("serve.queue_depth");
  tenant->queue_seconds_series = series("serve.queue_seconds");
  tenant->request_seconds_series = series("serve.request_seconds");
  tenant->pipeline =
      std::make_unique<core::DartPipeline>(std::move(pipeline));
  if (options.slo.has_value()) {
    slo_.Declare(tenant->name, *options.slo);
    has_slo_ = true;
  }
  tenants_.push_back(std::move(tenant));
  obs::SetGauge(&run_, "serve.tenants",
                static_cast<double>(tenants_.size()));
  return static_cast<TenantId>(tenants_.size() - 1);
}

Status RepairServer::ValidateTenantLocked(TenantId tenant) const {
  if (tenant < 0 || static_cast<size_t>(tenant) >= tenants_.size()) {
    return Status::NotFound("unknown tenant id " + std::to_string(tenant));
  }
  return Status::Ok();
}

Status RepairServer::Admit(std::unique_lock<std::mutex> lock,
                           TenantId tenant, size_t cost,
                           std::unique_ptr<WorkItem> item) {
  Tenant& owner = *tenants_[static_cast<size_t>(tenant)];
  ++stats_.submitted;
  ++owner.stats.submitted;
  obs::Count(&run_, "serve.submitted");
  obs::Count(&run_, owner.submitted_series);
  if (stopping_) {
    ++stats_.rejected;
    ++owner.stats.rejected;
    obs::Count(&run_, "serve.rejected");
    obs::Count(&run_, owner.rejected_series);
    return Status::FailedPrecondition("server is stopped");
  }
  if (queued_docs_ + cost > options_.queue_capacity) {
    ++stats_.rejected;
    ++owner.stats.rejected;
    obs::Count(&run_, "serve.rejected");
    obs::Count(&run_, owner.rejected_series);
    return Status::Unavailable(
        "admission queue full (" + std::to_string(queued_docs_) + "/" +
        std::to_string(options_.queue_capacity) + " documents queued, +" +
        std::to_string(cost) + " requested); " + kRetryAfterKey +
        std::to_string(options_.retry_after.count()));
  }
  item->tenant = tenant;
  item->cost = cost;
  item->submitted_at = Clock::now();
  queued_docs_ += cost;
  owner.queued_docs += cost;
  stats_.queue_depth = queued_docs_;
  owner.stats.queue_depth = owner.queued_docs;
  ++stats_.accepted;
  ++owner.stats.accepted;
  obs::Count(&run_, "serve.accepted");
  obs::Count(&run_, owner.accepted_series);
  obs::SetGauge(&run_, "serve.queue_depth",
                static_cast<double>(queued_docs_));
  obs::SetGauge(&run_, owner.queue_depth_series,
                static_cast<double>(owner.queued_docs));
  owner.queue.push_back(std::move(item));
  // Wake after unlocking, so the woken worker does not block on mu_ at
  // once. Before Start() no worker waits and the item stays queued.
  lock.unlock();
  work_cv_.notify_one();
  return Status::Ok();
}

Result<std::future<Result<core::ProcessOutcome>>> RepairServer::Submit(
    TenantId tenant, core::ProcessRequest request) {
  std::unique_lock<std::mutex> lock(mu_);
  DART_RETURN_IF_ERROR(ValidateTenantLocked(tenant));
  auto item = std::make_unique<WorkItem>();
  item->kind = WorkItem::Kind::kProcess;
  item->process = std::move(request);
  std::future<Result<core::ProcessOutcome>> future =
      item->process_promise.get_future();
  DART_RETURN_IF_ERROR(Admit(std::move(lock), tenant, 1, std::move(item)));
  return future;
}

Result<std::future<Result<core::BatchOutcome>>> RepairServer::SubmitBatch(
    TenantId tenant, core::BatchRequest request) {
  std::unique_lock<std::mutex> lock(mu_);
  DART_RETURN_IF_ERROR(ValidateTenantLocked(tenant));
  const size_t cost = request.documents.size();
  if (cost == 0) {
    return Status::InvalidArgument("batch request contains no documents");
  }
  if (cost > options_.queue_capacity) {
    // Would never fit, even into an empty queue — a permanent condition, so
    // not kUnavailable.
    Tenant& owner = *tenants_[static_cast<size_t>(tenant)];
    ++stats_.submitted;
    ++stats_.rejected;
    ++owner.stats.submitted;
    ++owner.stats.rejected;
    obs::Count(&run_, "serve.submitted");
    obs::Count(&run_, "serve.rejected");
    obs::Count(&run_, owner.submitted_series);
    obs::Count(&run_, owner.rejected_series);
    return Status::InvalidArgument(
        "batch of " + std::to_string(cost) +
        " documents exceeds the admission capacity of " +
        std::to_string(options_.queue_capacity));
  }
  auto item = std::make_unique<WorkItem>();
  item->kind = WorkItem::Kind::kBatch;
  item->batch = std::move(request);
  std::future<Result<core::BatchOutcome>> future =
      item->batch_promise.get_future();
  DART_RETURN_IF_ERROR(Admit(std::move(lock), tenant, cost, std::move(item)));
  return future;
}

Result<std::future<Result<validation::SessionResult>>>
RepairServer::SubmitSupervised(TenantId tenant, std::string html,
                               const validation::SimulatedOperator* op,
                               validation::SessionOptions session_options) {
  if (op == nullptr) {
    return Status::InvalidArgument("supervised submission requires an operator");
  }
  std::unique_lock<std::mutex> lock(mu_);
  DART_RETURN_IF_ERROR(ValidateTenantLocked(tenant));
  auto item = std::make_unique<WorkItem>();
  item->kind = WorkItem::Kind::kSupervised;
  item->html = std::move(html);
  item->op = op;
  item->session = std::move(session_options);
  std::future<Result<validation::SessionResult>> future =
      item->supervised_promise.get_future();
  DART_RETURN_IF_ERROR(Admit(std::move(lock), tenant, 1, std::move(item)));
  return future;
}

Status RepairServer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return Status::FailedPrecondition("server already started");
  if (stopping_) return Status::FailedPrecondition("server is stopped");
  started_ = true;
  const int num_workers = std::max(1, options_.num_workers);
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (!options_.sinks.empty() || has_slo_) {
    obs::ExporterOptions exporter_options;
    exporter_options.interval = options_.export_interval;
    exporter_options.sinks = options_.sinks;
    // The SLO tracker rides the same tick stream as the user's sinks, so
    // declared objectives accumulate rolling windows while serving.
    if (has_slo_) exporter_options.sinks.push_back(&slo_);
    exporter_ =
        std::make_unique<obs::PeriodicExporter>(&run_, exporter_options);
    DART_RETURN_IF_ERROR(exporter_->Start());
  }
  return Status::Ok();
}

Status RepairServer::Stop() {
  bool was_started = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return Status::Ok();
    stopping_ = true;  // no further admissions
    was_started = started_;
  }
  if (was_started) {
    // Accepted work drains: a worker exits only once every queue is empty.
    work_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  } else {
    // Never started: cancel everything still queued.
    std::lock_guard<std::mutex> lock(mu_);
    const Status cancelled =
        Status::Unavailable("server stopped before starting");
    for (std::unique_ptr<Tenant>& tenant : tenants_) {
      for (std::unique_ptr<WorkItem>& item : tenant->queue) {
        Cancel(item.get(), cancelled);
      }
      tenant->queue.clear();
    }
    queued_docs_ = 0;
    stats_.queue_depth = 0;
  }
  obs::SetGauge(&run_, "serve.queue_depth", 0);
  if (exporter_ != nullptr) {
    Status stopped = exporter_->Stop();
    exporter_.reset();
    return stopped;
  }
  return Status::Ok();
}

void RepairServer::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Every queued item costs at least one document, so queued_docs_ > 0
    // exactly when some tenant queue is nonempty.
    work_cv_.wait(lock, [this] { return stopping_ || queued_docs_ > 0; });
    std::unique_ptr<WorkItem> item = DequeueLocked();
    if (item == nullptr) return;  // stopping, and every queue is drained
    Tenant* tenant = tenants_[static_cast<size_t>(item->tenant)].get();
    lock.unlock();
    Execute(tenant, item.get());
    lock.lock();
    ++stats_.completed;
    ++tenant->stats.completed;
  }
}

std::unique_ptr<RepairServer::WorkItem> RepairServer::DequeueLocked() {
  const size_t n = tenants_.size();
  if (n == 0) return nullptr;
  for (size_t k = 0; k < n; ++k) {
    const size_t index = (cursor_ + k) % n;
    Tenant& tenant = *tenants_[index];
    if (tenant.queue.empty()) continue;
    std::unique_ptr<WorkItem> item = std::move(tenant.queue.front());
    tenant.queue.pop_front();
    cursor_ = index + 1;  // next scan starts after the tenant just served
    queued_docs_ -= item->cost;
    tenant.queued_docs -= item->cost;
    stats_.queue_depth = queued_docs_;
    tenant.stats.queue_depth = tenant.queued_docs;
    obs::SetGauge(&run_, "serve.queue_depth",
                  static_cast<double>(queued_docs_));
    obs::SetGauge(&run_, tenant.queue_depth_series,
                  static_cast<double>(tenant.queued_docs));
    return item;
  }
  return nullptr;
}

void RepairServer::Execute(Tenant* tenant, WorkItem* item) {
  const double queue_seconds =
      std::chrono::duration<double>(Clock::now() - item->submitted_at)
          .count();
  obs::Observe(&run_, "serve.queue_seconds", queue_seconds);
  obs::Observe(&run_, tenant->queue_seconds_series, queue_seconds);
  const auto t0 = Clock::now();
  {
    // Per-request root span (explicit parent 0: worker threads carry no
    // span stack), named by tenant so fairness is visible in the trace.
    obs::Span request_span(&run_, tenant->span_name, /*parent=*/0);
    switch (item->kind) {
      case WorkItem::Kind::kProcess:
        item->process_promise.set_value(
            tenant->pipeline->Submit(item->process));
        break;
      case WorkItem::Kind::kBatch:
        item->batch_promise.set_value(
            Result<core::BatchOutcome>(
                tenant->pipeline->SubmitBatch(item->batch)));
        break;
      case WorkItem::Kind::kSupervised:
        item->supervised_promise.set_value(tenant->pipeline->ProcessSupervised(
            item->html, *item->op, item->session));
        break;
    }
  }
  const double request_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  obs::Observe(&run_, "serve.request_seconds", request_seconds);
  obs::Observe(&run_, tenant->request_seconds_series, request_seconds);
  obs::Count(&run_, "serve.completed");
  obs::Count(&run_, tenant->completed_series);
}

void RepairServer::Cancel(WorkItem* item, const Status& status) {
  switch (item->kind) {
    case WorkItem::Kind::kProcess:
      item->process_promise.set_value(status);
      break;
    case WorkItem::Kind::kBatch:
      item->batch_promise.set_value(status);
      break;
    case WorkItem::Kind::kSupervised:
      item->supervised_promise.set_value(status);
      break;
  }
}

namespace {

void AppendAdmissionJson(const ServerStats& stats, bool with_depth,
                         std::string* out) {
  *out += "{\"submitted\": " + std::to_string(stats.submitted) +
          ", \"accepted\": " + std::to_string(stats.accepted) +
          ", \"rejected\": " + std::to_string(stats.rejected) +
          ", \"completed\": " + std::to_string(stats.completed);
  if (with_depth) {
    *out += ", \"queue_depth\": " + std::to_string(stats.queue_depth);
  }
  *out += "}";
}

void AppendObjectiveJson(const obs::SloObjectiveStatus& objective,
                         std::string* out) {
  *out += "{\"enabled\": ";
  *out += objective.enabled ? "true" : "false";
  *out += ", \"objective\": ";
  obs::AppendJsonDouble(objective.objective, out);
  *out += ", \"observed\": ";
  obs::AppendJsonDouble(objective.observed, out);
  *out += ", \"events_total\": " + std::to_string(objective.events_total) +
          ", \"events_bad\": " + std::to_string(objective.events_bad) +
          ", \"burn\": ";
  obs::AppendJsonDouble(objective.burn, out);
  *out += ", \"compliant\": ";
  *out += objective.compliant ? "true" : "false";
  *out += "}";
}

}  // namespace

std::string RepairServer::AdminStatus() const {
  struct TenantView {
    std::string name;
    ServerStats stats;
    std::string request_seconds_series;
  };
  std::vector<TenantView> views;
  ServerStats global;
  bool started = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    started = started_ && !stopping_;
    global = stats_;
    views.reserve(tenants_.size());
    for (const std::unique_ptr<Tenant>& tenant : tenants_) {
      views.push_back(
          {tenant->name, tenant->stats, tenant->request_seconds_series});
    }
  }

  const obs::MetricsSnapshot snapshot = run_.metrics().Snapshot();
  // Feed the SLO windows from this snapshot too, so status reflects the
  // latest activity even when no exporter is ticking.
  slo_.Ingest(snapshot);
  std::map<std::string, obs::SloStatus> slo_by_tenant;
  for (obs::SloStatus& status : slo_.Status()) {
    std::string key = status.tenant;
    slo_by_tenant.emplace(std::move(key), std::move(status));
  }

  std::string out;
  out.reserve(2048);
  out += "{\n  \"schema\": \"";
  out += kServeStatusSchema;
  out += "\",\n  \"schema_version\": ";
  out += std::to_string(kServeStatusSchemaVersion);
  out += ",\n  \"started\": ";
  out += started ? "true" : "false";
  out += ",\n  \"queue_capacity\": " + std::to_string(options_.queue_capacity);
  out += ",\n  \"admission\": ";
  AppendAdmissionJson(global, /*with_depth=*/true, &out);
  out += ",\n  \"tenants\": [";
  bool first = true;
  for (const TenantView& view : views) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"tenant\": ";
    obs::AppendJsonString(view.name, &out);
    out += ", \"queue_depth\": " + std::to_string(view.stats.queue_depth);
    out += ", \"admission\": ";
    AppendAdmissionJson(view.stats, /*with_depth=*/false, &out);

    out += ", \"latency\": {\"count\": ";
    const auto hist_it = snapshot.histograms.find(view.request_seconds_series);
    if (hist_it != snapshot.histograms.end()) {
      const obs::HistogramSnapshot& h = hist_it->second;
      out += std::to_string(h.count) + ", \"sum\": ";
      obs::AppendJsonDouble(h.sum, &out);
      out += ", \"p50\": ";
      obs::AppendJsonDouble(h.Quantile(0.5), &out);
      out += ", \"p99\": ";
      obs::AppendJsonDouble(h.Quantile(0.99), &out);
    } else {
      out += "0, \"sum\": 0, \"p50\": 0, \"p99\": 0";
    }
    out += "}";

    const auto slo_it = slo_by_tenant.find(view.name);
    if (slo_it != slo_by_tenant.end()) {
      const obs::SloStatus& slo = slo_it->second;
      out += ", \"slo\": {\"latency_quantile\": ";
      obs::AppendJsonDouble(slo.latency_quantile, &out);
      out += ", \"latency\": ";
      AppendObjectiveJson(slo.latency, &out);
      out += ", \"availability\": ";
      AppendObjectiveJson(slo.availability, &out);
      out += ", \"budget_remaining\": ";
      obs::AppendJsonDouble(slo.budget_remaining, &out);
      out += ", \"window_ticks_used\": " +
             std::to_string(slo.window_ticks_used) + "}";
    }
    out += "}";
  }
  out += first ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

ServerStats RepairServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t RepairServer::num_tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

int64_t RetryAfterMillis(const Status& status) {
  if (status.code() != StatusCode::kUnavailable) return -1;
  const std::string& message = status.message();
  const size_t pos = message.find(kRetryAfterKey);
  if (pos == std::string::npos) return -1;
  return std::atoll(message.c_str() + pos + sizeof(kRetryAfterKey) - 1);
}

}  // namespace dart::serve
