#include "tracer.h"

#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

Tracer::Span::Span(Tracer* tracer, std::string name, int64_t parent,
                   int64_t request)
    : tracer_(tracer),
      name_(std::move(name)),
      id_(tracer->NextId()),
      parent_(parent),
      request_(request),
      start_(Clock::now()) {}

double Tracer::Span::start_s() const {
  return std::chrono::duration<double>(start_ - tracer_->epoch_).count();
}

double Tracer::Span::End() {
  if (duration_s_ >= 0) return duration_s_;
  duration_s_ = SecondsSince(start_);
  tracer_->spans_.push_back(
      {id_, parent_, request_, std::move(name_), start_s(), duration_s_});
  return duration_s_;
}

int64_t Tracer::Record(std::string name, int64_t parent, int64_t request,
                       double start_s, double duration_s) {
  const int64_t id = NextId();
  spans_.push_back({id, parent, request, std::move(name), start_s, duration_s});
  return id;
}

std::vector<LayerTotals> Tracer::Totals() const {
  std::map<int64_t, double> child_s;  // span id → its children's durations
  for (const SpanRecord& span : spans_) {
    if (span.parent != 0) child_s[span.parent] += span.duration_s;
  }
  std::vector<LayerTotals> totals;
  std::map<std::string, size_t> index;
  for (const SpanRecord& span : spans_) {
    auto [it, inserted] = index.emplace(span.name, totals.size());
    if (inserted) totals.push_back({span.name, 0, 0, 0, false});
    LayerTotals& layer = totals[it->second];
    ++layer.spans;
    layer.total_s += span.duration_s;
    const auto children = child_s.find(span.id);
    if (children != child_s.end()) {
      layer.has_children = true;
      layer.self_s += span.duration_s - children->second;
    } else {
      layer.self_s += span.duration_s;
    }
  }
  return totals;
}

void Tracer::PrintTable(const std::string& workload, int64_t requests) const {
  const double per = requests > 0 ? static_cast<double>(requests) : 1.0;
  std::printf("# %s per-layer spans (%lld traced requests; ms per request)\n",
              workload.c_str(), static_cast<long long>(requests));
  std::printf("# %-14s %8s %12s %12s  %s\n", "span", "count", "total_ms",
              "self_ms", "flag");
  for (const LayerTotals& layer : Totals()) {
    const bool flagged =
        layer.has_children && layer.self_s > 0.10 * layer.total_s;
    std::printf("# %-14s %8lld %12.4f %12.4f  %s\n", layer.name.c_str(),
                static_cast<long long>(layer.spans), layer.total_s * 1e3 / per,
                layer.self_s * 1e3 / per,
                flagged ? "self > 10% of total" : "");
  }
}

void Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%lld,\"parent\":%lld,\"request\":%lld,"
                  "\"name\":\"%s\",\"start_s\":%.9f,\"duration_s\":%.9f}%s\n",
                  static_cast<long long>(span.id),
                  static_cast<long long>(span.parent),
                  static_cast<long long>(span.request), span.name.c_str(),
                  span.start_s, span.duration_s,
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
}

}  // namespace perfbench
