#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

/// \file task_pool.h
/// The fan-out shared by the parallel stages — batch document acquisition,
/// per-document translation and decomposition, concurrent component
/// searches (DESIGN.md, "Batch ingestion").
///
/// ParallelFor runs a fixed set of independent items and returns when all of
/// them are done:
///   - items are claimed in the given order by one atomic counter, so
///     dealing the biggest items first starts them first;
///   - items are coarse (an HTML document, a component's whole
///     branch-and-bound search), so one claim per item costs nothing;
///   - the calling thread is worker 0; min(num_threads, |order|) − 1 more
///     threads are started and joined, so no thread outlives the call.
///
/// Per-worker busy time is the time a worker spent claiming and running
/// items, giving the utilization figure the batch-ingestion benchmark gates
/// on.

namespace dart::util {

/// Wall/busy accounting of one ParallelFor: utilization() is the busy
/// fraction of the workers, 1.0 = every worker ran items for the whole call.
struct TaskPoolStats {
  double wall_seconds = 0;
  std::vector<double> busy_seconds;  ///< per worker.

  double utilization() const {
    if (wall_seconds <= 0 || busy_seconds.empty()) return 0;
    double busy = 0;
    for (double b : busy_seconds) busy += b;
    return busy / (wall_seconds * static_cast<double>(busy_seconds.size()));
  }
};

/// Runs `fn(index)` for every index of `order` (a permutation or subset of
/// work items, started in the given order — put the biggest items first) on
/// min(num_threads, |order|) workers, the caller among them. `fn` is invoked
/// concurrently and must be thread-safe; anything that depends on the
/// calling thread (a span parent, say) must be captured before the call.
/// With one worker or one item everything runs inline on the calling thread,
/// in order.
template <typename Fn>
TaskPoolStats ParallelFor(int num_threads, const std::vector<size_t>& order,
                          Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point begin) {
    return std::chrono::duration<double>(Clock::now() - begin).count();
  };
  const size_t workers = std::min<size_t>(
      static_cast<size_t>(std::max(1, num_threads)), order.size());
  const Clock::time_point t_begin = Clock::now();
  TaskPoolStats stats;
  if (workers <= 1) {
    for (size_t index : order) fn(index);
    stats.wall_seconds = seconds_since(t_begin);
    stats.busy_seconds.assign(1, stats.wall_seconds);
    return stats;
  }
  stats.busy_seconds.assign(workers, 0);
  std::atomic<size_t> next{0};
  const auto work = [&](size_t worker) {
    const Clock::time_point begin = Clock::now();
    for (size_t k = next++; k < order.size(); k = next++) fn(order[k]);
    stats.busy_seconds[worker] = seconds_since(begin);
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t worker = 1; worker < workers; ++worker) {
    threads.emplace_back(work, worker);
  }
  work(0);
  for (std::thread& thread : threads) thread.join();
  stats.wall_seconds = seconds_since(t_begin);
  return stats;
}

}  // namespace dart::util
