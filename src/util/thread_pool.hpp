#pragma once

/// \file thread_pool.hpp
/// A small fixed-size thread pool for deterministic fan-out/join phases.
///
/// Design goals (in priority order):
///   1. *Deterministic join*: `wait()` returns only after every task
///      submitted so far has finished, and the destructor drains the queue
///      before the workers exit — no task is ever dropped.
///   2. *Exception propagation*: a task that throws does not kill the
///      process; `wait()` rethrows the exception of the earliest-submitted
///      failed task (submission order, so the surfaced error is the same
///      regardless of worker interleaving).
///   3. No work stealing, no futures, no task priorities — callers that
///      need a reduction keep per-task output slots and reduce after
///      `wait()`, which is how bit-reproducible parallel sweeps are
///      built (see modeldb::Campaign).
///
/// The pool is internally synchronized: `submit` may be called from any
/// thread, including from inside a task. `wait` must not be called from
/// inside a task (it would deadlock on the caller's own slot).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.hpp"

namespace aeva::util {

/// Fixed-size worker pool with deterministic join semantics.
class ThreadPool {
 public:
  /// Spawns `workers` threads (≥ 1; use `recommended_workers` to size from
  /// the hardware). Throws std::invalid_argument on 0 workers.
  explicit ThreadPool(std::size_t workers);

  /// Drains every queued task, then joins all workers. Pending exceptions
  /// that were never observed via `wait()` are discarded (they cannot be
  /// thrown from a destructor).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Tasks are picked up by workers in FIFO order.
  /// Throws std::invalid_argument on a null task.
  void submit(std::function<void()> task) AEVA_EXCLUDES(mutex_);

  /// Blocks until every task submitted before this call has completed.
  /// If any of them threw, rethrows the exception of the earliest-submitted
  /// failed task and clears the recorded failures. The pool remains usable
  /// afterwards.
  void wait() AEVA_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

  /// Number of tasks that have fully completed (including failed ones).
  [[nodiscard]] std::uint64_t completed_count() const AEVA_EXCLUDES(mutex_);

  /// Worker count to use for `requested`: 0 → hardware concurrency
  /// (at least 1), otherwise `requested` itself.
  [[nodiscard]] static std::size_t recommended_workers(
      std::size_t requested) noexcept;

 private:
  struct Pending {
    std::uint64_t index = 0;  ///< submission index, for deterministic rethrow
    std::function<void()> task;
  };

  void worker_loop() AEVA_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  CondVar work_available_;
  CondVar all_done_;
  std::deque<Pending> queue_ AEVA_GUARDED_BY(mutex_);
  /// Written by the constructing thread only (ctor fills, dtor joins);
  /// never touched by workers, so it needs no capability.
  std::vector<std::thread> workers_;
  std::uint64_t submitted_ AEVA_GUARDED_BY(mutex_) = 0;
  std::uint64_t completed_ AEVA_GUARDED_BY(mutex_) = 0;
  /// (submission index, exception) of failed tasks awaiting a `wait()`.
  std::vector<std::pair<std::uint64_t, std::exception_ptr>> failures_
      AEVA_GUARDED_BY(mutex_);
  bool stopping_ AEVA_GUARDED_BY(mutex_) = false;
};

}  // namespace aeva::util
