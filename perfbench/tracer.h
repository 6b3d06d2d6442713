#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

/// \file tracer.h
/// Benchmark-side spans for the traced run. Each span times one call into a
/// layer's public function from the benchmark's own code; spans of one
/// request share a request id. A span's children are the stages its call
/// runs internally, each replayed on the same input right after the call
/// (the benchmark cannot open spans inside the library), so a span's self
/// time is its duration minus its children's durations. Spans stay in memory
/// and are written out when the run ends.

namespace perfbench {

struct SpanRecord {
  int64_t id = 0;
  int64_t parent = 0;  ///< 0 for a request's root span.
  int64_t request = 0;
  std::string name;
  double start_s = 0;  ///< since the tracer was created.
  double duration_s = 0;
};

/// Per-name totals over every recorded span.
struct LayerTotals {
  std::string name;
  int64_t spans = 0;
  double total_s = 0;
  double self_s = 0;
  bool has_children = false;
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// RAII span: starts on construction, records on End() or destruction.
  class Span {
   public:
    Span(Tracer* tracer, std::string name, int64_t parent, int64_t request);
    ~Span() { End(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Records the span (idempotent) and returns its duration in seconds.
    double End();
    int64_t id() const { return id_; }
    /// Start time since the tracer was created, in seconds.
    double start_s() const;

   private:
    Tracer* tracer_;
    std::string name_;
    int64_t id_;
    int64_t parent_;
    int64_t request_;
    Clock::time_point start_;
    double duration_s_ = -1;
  };

  /// Records a span timed elsewhere (e.g. read back from the library's own
  /// trace); returns its id.
  int64_t Record(std::string name, int64_t parent, int64_t request,
                 double start_s, double duration_s);

  int64_t NewRequest() { return ++last_request_; }

  /// Totals per span name, in first-seen order.
  std::vector<LayerTotals> Totals() const;
  /// Prints the per-layer table: per-request mean total and self time of
  /// every span name, flagging non-leaf spans whose self time exceeds 10% of
  /// their total.
  void PrintTable(const std::string& workload, int64_t requests) const;

  /// Writes every span as JSON (one object per line inside an array).
  void WriteJson(const std::string& path) const;

 private:
  int64_t NextId() { return ++last_id_; }

  Clock::time_point epoch_;
  int64_t last_id_ = 0;
  int64_t last_request_ = 0;
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench
