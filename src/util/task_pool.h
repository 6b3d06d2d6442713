#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

/// \file task_pool.h
/// A small task pool shared by the fan-out stages — batch document
/// acquisition, per-document translation, concurrent component searches
/// (ParallelFor) — and the serving layer's long-lived worker pool
/// (DESIGN.md, "Batch ingestion").
///
/// Shape and invariants:
///   - one FIFO queue of independent tasks, taken in the order they were
///     seeded (seed largest-first and the big tasks start first);
///   - tasks are coarse (an HTML document, a component's whole
///     branch-and-bound search), so one mutex is uncontended in practice;
///   - termination via one atomic count of *open* tasks (queued + in
///     flight): a worker that finds the queue empty exits once the count is
///     zero. Hold() keeps the count positive for pools that outlive their
///     current backlog;
///   - an idle worker spins (yield ×64, then 50 µs sleeps) rather than
///     blocking.
///
/// Per-worker busy time is recorded between successful Next() calls, giving
/// the utilization figure the batch-ingestion benchmark gates on.

namespace dart::util {

/// Wall/busy accounting of one Run(): utilization() is the busy fraction of
/// the pool, 1.0 = every worker processed tasks for the whole run.
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

template <typename Task>
class TaskPool {
 public:
  explicit TaskPool(int num_threads)
      : num_workers_(num_threads < 1 ? 1 : num_threads) {}

  int num_workers() const { return num_workers_; }

  /// Enqueues a task at the back of the queue. Safe to call concurrently
  /// with Run() from any producer thread (the serving layer submits while
  /// workers drain), as long as the pool is held open — without a Hold(),
  /// Run() may have already observed open == 0 and returned.
  void Seed(Task task) {
    open_.fetch_add(1, std::memory_order_acq_rel);
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }

  /// Keeps Run() alive while no task is queued: each Hold() adds one
  /// phantom entry to the open-task count, so workers idle (through the
  /// spin/sleep backoff) instead of terminating, and external producers may
  /// keep Seed()ing. Unhold() releases it; when the last hold is released
  /// and no task remains, Run() drains and returns. This is how a
  /// long-lived server runs one pool for its whole lifetime: Hold() before
  /// Run(), Unhold() at shutdown — the pool then finishes every admitted
  /// task before the worker threads exit.
  void Hold() { open_.fetch_add(1, std::memory_order_acq_rel); }
  void Unhold() { open_.fetch_sub(1, std::memory_order_acq_rel); }

  /// One worker's handle into the pool; the Run() body receives one and owns
  /// it for the duration:
  ///
  ///   Task t;
  ///   while (worker.Next(&t)) {
  ///     ... process t ...
  ///     worker.Retire();
  ///   }
  class Worker {
   public:
    int id() const { return id_; }

    /// Takes the task at the front of the queue. Blocks through the idle
    /// backoff until a task arrives or every open task is retired; returns
    /// false on the latter. Does NOT retire the previously returned task —
    /// that is Retire()'s job.
    bool Next(Task* out) {
      AccumulateBusy();
      int idle_spins = 0;
      while (!pool_->TryPop(out)) {
        if (pool_->open_.load(std::memory_order_acquire) == 0) return false;
        if (++idle_spins > 64) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        } else {
          std::this_thread::yield();
        }
      }
      busy_since_ = std::chrono::steady_clock::now();
      running_ = true;
      return true;
    }

    /// Retires the task most recently returned by Next() (open count −1).
    void Retire() {
      pool_->open_.fetch_sub(1, std::memory_order_acq_rel);
    }

    double busy_seconds() const { return busy_seconds_; }

   private:
    friend class TaskPool;
    Worker(TaskPool* pool, int id) : pool_(pool), id_(id) {}

    void AccumulateBusy() {
      if (!running_) return;
      running_ = false;
      busy_seconds_ += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - busy_since_)
                           .count();
    }

    TaskPool* pool_;
    int id_;
    bool running_ = false;
    std::chrono::steady_clock::time_point busy_since_;
    double busy_seconds_ = 0;
  };

  /// Runs `body(worker)` on num_workers() threads and joins them. The same
  /// callable is invoked concurrently from every worker thread; anything it
  /// captures must tolerate that (per-worker state belongs inside the body,
  /// keyed by worker.id()).
  template <typename Body>
  void Run(Body&& body) {
    const auto t_begin = std::chrono::steady_clock::now();
    const int n = num_workers();
    std::vector<Worker> workers;
    workers.reserve(static_cast<size_t>(n));
    for (int id = 0; id < n; ++id) workers.push_back(Worker(this, id));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(n));
    for (int id = 0; id < n; ++id) {
      threads.emplace_back(
          [&body, &workers, id] { body(workers[static_cast<size_t>(id)]); });
    }
    for (std::thread& thread : threads) thread.join();
    stats_.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t_begin)
                              .count();
    stats_.busy_seconds.resize(static_cast<size_t>(n));
    for (int id = 0; id < n; ++id) {
      workers[static_cast<size_t>(id)].AccumulateBusy();
      stats_.busy_seconds[static_cast<size_t>(id)] =
          workers[static_cast<size_t>(id)].busy_seconds();
    }
  }

  /// Valid after Run() returns.
  const TaskPoolStats& stats() const { return stats_; }

 private:
  bool TryPop(Task* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    *out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

  const int num_workers_;
  std::mutex mu_;
  std::deque<Task> queue_;  // guarded by mu_
  std::atomic<int64_t> open_{0};
  TaskPoolStats stats_;
};

/// Convenience fan-out over the pool: runs `fn(index)` for every index of
/// `order` (a permutation or subset of work items, started in the given
/// order — put the biggest items first) on min(num_threads, |order|)
/// workers. `fn` is invoked concurrently and must be thread-safe. With one
/// worker or one item everything runs inline on the calling thread.
template <typename Fn>
TaskPoolStats ParallelFor(int num_threads, const std::vector<size_t>& order,
                          Fn&& fn) {
  const int workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(num_threads < 1 ? 1 : num_threads),
                       order.size()));
  if (workers <= 1) {
    const auto t_begin = std::chrono::steady_clock::now();
    for (size_t index : order) fn(index);
    TaskPoolStats stats;
    stats.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t_begin)
                             .count();
    stats.busy_seconds.assign(1, stats.wall_seconds);
    return stats;
  }
  TaskPool<size_t> pool(workers);
  for (size_t index : order) pool.Seed(index);
  pool.Run([&fn](typename TaskPool<size_t>::Worker& worker) {
    size_t index = 0;
    while (worker.Next(&index)) {
      fn(index);
      worker.Retire();
    }
  });
  return pool.stats();
}

}  // namespace dart::util
