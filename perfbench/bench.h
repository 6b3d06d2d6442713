#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

/// \file bench.h
/// Shared plumbing of the perfbench binary: run options, the metric record
/// every workload returns, the closed-loop timing loop, set-up timing, and
/// order statistics. See README.md for the metric definitions.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run reports. `end_to_end` is filled by untraced runs,
/// `per_layer` by traced ones.
struct WorkloadResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

/// Linear-interpolated percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// Set-up time of a deployment, as the median of many full build/tear-down
/// repetitions. `build` builds one deployment, returns the seconds its build
/// part took, and tears it down untimed. Workloads sample between timed
/// passes, so the median spans the same stretch of the run as the request
/// latencies.
class SetupTimer {
 public:
  /// Runs two untimed repetitions: they pay one-time lazy initialization
  /// (allocator arenas, static tables) that no later deployment pays.
  explicit SetupTimer(std::function<double()> build);
  /// Runs repetitions for about `seconds`, and at least `min_reps`.
  void Sample(double seconds, int min_reps = 3);
  double MedianSeconds() const { return Median(samples_); }

 private:
  std::function<double()> build_;
  std::vector<double> samples_;
};

/// Outcome of one timed request: its latency and whether its output passed
/// the workload's check.
struct RequestSample {
  double seconds = 0;
  bool ok = false;
  /// A per-request count the workload reports as a mean (e.g. updates).
  double value = 0;
};

/// Samples of a closed-loop run: whole passes over the same inputs.
struct LoopStats {
  std::vector<double> latencies_s;  ///< one per timed request, pass by pass.
  /// Whether each pass's latencies are in input order (input i at position
  /// i of its pass), so one input's latencies can be compared across passes.
  bool input_order = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0;  ///< wall time of the timed requests, checks included.
  /// Wall time of each pass; every pass has latencies_s.size() / passes
  /// requests.
  std::vector<double> pass_wall_s;
  double value_sum = 0;  ///< sum of RequestSample::value over timed requests.

  size_t passes() const { return pass_wall_s.size(); }

  double MeanValue() const {
    return attempted == 0 ? 0.0 : value_sum / static_cast<double>(attempted);
  }
};

/// One closed-loop client over a pool of `pool_size` inputs. The first
/// `warmup` requests are run and discarded; then whole passes over the pool
/// (inputs 0, 1, …, pool_size − 1) are timed, at least kMinPasses, and more
/// while another pass of the mean pass length fits in `seconds`, so every
/// input carries the same weight in the percentiles whatever the program's
/// speed. `request(i)` serves input i and checks it. With a `setup` timer,
/// set-up is sampled every kSetupEverySeconds of requests, outside the timed
/// wall.
LoopStats RunClosedLoop(size_t pool_size, size_t warmup, double seconds,
                        const std::function<RequestSample(size_t)>& request,
                        SetupTimer* setup = nullptr);

/// Passes a closed loop times at least: an input's best of three or more
/// passes ignores a burst of host noise that slows some of them.
inline constexpr size_t kMinPasses = 3;

/// Set-up is sampled for kSetupSliceSeconds after every kSetupEverySeconds
/// of timed requests.
inline constexpr double kSetupSliceSeconds = 0.01;
inline constexpr double kSetupEverySeconds = 0.25;

/// The traced phase of a single-client workload: inputs 0, 1, … in order
/// (wrapping) until `seconds` have passed, at least one. `traced(i)` runs
/// input i with its spans and returns the request's own latency. The
/// tracing overhead compares those latencies with `untraced`, whose first
/// pass timed input i at position i: median traced ÷ median untraced over
/// the same inputs − 1.
struct TracedPhase {
  int64_t requests = 0;
  double overhead_frac = 0;
};
TracedPhase RunTracedPhase(size_t pool_size, double seconds,
                           const LoopStats& untraced,
                           const std::function<double(size_t)>& traced);

/// Adds the end-to-end latency/throughput/correctness metrics of a timed
/// loop (and its counts to `result`'s totals), logging the sample count
/// next to the percentiles. The host only ever adds time to a request, so
/// each figure is the run's best. Throughput is the highest over the passes
/// of a pass's `items` ÷ passes documents per second of its wall time. For a
/// loop in input order, each input's latency is its lowest over the passes,
/// and p50 and p90 are taken over the inputs (p90 names the slow inputs, not
/// the unluckiest requests); for any other loop they are the lowest over the
/// passes of each pass's percentile. The pooled percentiles of every timed
/// request are logged next to them.
void AddLoopMetrics(const std::string& workload, const LoopStats& loop,
                    double items, WorkloadResult* result);

/// Prints one line, prefixed so it never parses as the result line.
void Log(const std::string& line);

}  // namespace perfbench
