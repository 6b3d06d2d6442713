#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0;
}

SetupTimer::SetupTimer(std::function<double()> build)
    : build_(std::move(build)) {
  build_();
  build_();
}

void SetupTimer::Sample(double seconds, int min_reps) {
  const Clock::time_point start = Clock::now();
  for (int reps = 0; reps < min_reps || SecondsSince(start) < seconds;
       ++reps) {
    samples_.push_back(build_());
  }
}

LoopStats RunClosedLoop(size_t pool_size, size_t warmup, double seconds,
                        const std::function<RequestSample(size_t)>& request,
                        SetupTimer* setup) {
  LoopStats stats;
  stats.input_order = true;
  for (size_t i = 0; i < warmup; ++i) request(i % pool_size);
  double next_setup_s = 0;
  do {
    const double pass_start_s = stats.wall_s;
    for (size_t i = 0; i < pool_size; ++i) {
      if (setup != nullptr && stats.wall_s >= next_setup_s) {
        setup->Sample(kSetupSliceSeconds);
        next_setup_s = stats.wall_s + kSetupEverySeconds;
      }
      const Clock::time_point start = Clock::now();
      const RequestSample sample = request(i);
      stats.wall_s += SecondsSince(start);
      stats.latencies_s.push_back(sample.seconds);
      stats.value_sum += sample.value;
      ++stats.attempted;
      if (!sample.ok) ++stats.failed;
    }
    stats.pass_wall_s.push_back(stats.wall_s - pass_start_s);
  } while (stats.passes() < kMinPasses ||
           stats.wall_s * (1 + 1.0 / static_cast<double>(stats.passes())) <=
               seconds);
  return stats;
}

TracedPhase RunTracedPhase(size_t pool_size, double seconds,
                           const LoopStats& untraced,
                           const std::function<double(size_t)>& traced) {
  std::vector<double> traced_s, untraced_s;
  const Clock::time_point start = Clock::now();
  do {
    const size_t i = traced_s.size() % pool_size;
    traced_s.push_back(traced(i));
    untraced_s.push_back(untraced.latencies_s[i]);
  } while (SecondsSince(start) < seconds);
  return {static_cast<int64_t>(traced_s.size()),
          Median(traced_s) / Median(untraced_s) - 1};
}

void AddLoopMetrics(const std::string& workload, const LoopStats& loop,
                    double items, WorkloadResult* result) {
  const size_t passes = loop.passes();
  const size_t per_pass = passes == 0 ? 0 : loop.latencies_s.size() / passes;
  // latency(pass, i): the latency of the pass's i-th request, in ms.
  const auto latency = [&](size_t pass, size_t i) {
    return loop.latencies_s[pass * per_pass + i] * 1e3;
  };
  double throughput = 0;
  for (size_t pass = 0; pass < passes; ++pass) {
    throughput = std::max(throughput, items / static_cast<double>(passes) /
                                          loop.pass_wall_s[pass]);
  }
  double p50 = 0, p90 = 0;
  char counts[96];
  if (loop.input_order) {
    std::vector<double> per_input;
    for (size_t i = 0; i < per_pass; ++i) {
      double best = latency(0, i);
      for (size_t pass = 1; pass < passes; ++pass) {
        best = std::min(best, latency(pass, i));
      }
      per_input.push_back(best);
    }
    p50 = Percentile(per_input, 0.5);
    p90 = Percentile(std::move(per_input), 0.9);
    std::snprintf(counts, sizeof(counts),
                  "over n=%zu inputs of each input's best of %zu passes",
                  per_pass, passes);
  } else {
    for (size_t pass = 0; pass < passes; ++pass) {
      std::vector<double> latencies;
      for (size_t i = 0; i < per_pass; ++i) {
        latencies.push_back(latency(pass, i));
      }
      const double pass_p50 = Percentile(latencies, 0.5);
      const double pass_p90 = Percentile(std::move(latencies), 0.9);
      p50 = pass == 0 ? pass_p50 : std::min(p50, pass_p50);
      p90 = pass == 0 ? pass_p90 : std::min(p90, pass_p90);
    }
    std::snprintf(counts, sizeof(counts),
                  "best of %zu passes of n=%zu timed requests", passes,
                  per_pass);
  }
  char line[384];
  std::snprintf(line, sizeof(line),
                "%s: latency p50=%.3f ms p90=%.3f ms (%s; pooled p50=%.3f "
                "p90=%.3f), %.2f s",
                workload.c_str(), p50, p90, counts,
                Percentile(loop.latencies_s, 0.5) * 1e3,
                Percentile(loop.latencies_s, 0.9) * 1e3, loop.wall_s);
  Log(line);
  result->attempted += loop.attempted;
  result->failed += loop.failed;
  result->end_to_end.push_back({"latency_p50_ms", p50, "ms"});
  result->end_to_end.push_back({"latency_p90_ms", p90, "ms"});
  result->end_to_end.push_back({"throughput_per_s", throughput, "1/s"});
  result->end_to_end.push_back(
      {"ok_frac",
       loop.attempted == 0
           ? 0.0
           : static_cast<double>(loop.attempted - loop.failed) /
                 static_cast<double>(loop.attempted),
       "fraction"});
}

void Log(const std::string& line) {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
