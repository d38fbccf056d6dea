#pragma once

/// \file mutex.hpp
/// Annotated synchronization primitives (docs/STATIC_ANALYSIS.md,
/// "Thread-safety annotations").
///
/// `util::Mutex`, `util::MutexGuard`, and `util::CondVar` are thin
/// wrappers over the std primitives that carry clang thread-safety
/// capability annotations (util/thread_annotations.hpp), so the compiler
/// can prove — not test — that every `AEVA_GUARDED_BY` field is only
/// touched under its lock. They are the *only* sanctioned locking
/// primitives outside src/util/: a raw `std::mutex` is invisible to the
/// analysis, so tools/lint/aeva_lint.py (`raw-mutex`) rejects it.
///
/// Usage pattern (see obs::Histogram or obs::MetricsRegistry):
///
///     struct Shard {
///       mutable util::Mutex mutex;
///       std::vector<int> counts AEVA_GUARDED_BY(mutex);
///     };
///     void touch(Shard& s) {
///       const util::MutexGuard lock(s.mutex);
///       s.counts.push_back(1);  // proven-locked access
///     }
///
/// Condition waits go through `CondVar::wait(Mutex&)`, which declares
/// AEVA_REQUIRES on the mutex; write the predicate as an explicit
/// `while (!pred) cv.wait(mu);` loop in the locked scope so the analysis
/// sees the guarded reads under the held capability (lambda predicates
/// are opaque to it).

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace aeva::util {

/// Exclusive lock capability wrapping `std::mutex`.
class AEVA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() AEVA_ACQUIRE() { mutex_.lock(); }
  void unlock() AEVA_RELEASE() { mutex_.unlock(); }
  [[nodiscard]] bool try_lock() AEVA_TRY_ACQUIRE(true) {
    return mutex_.try_lock();
  }

 private:
  friend class CondVar;
  std::mutex mutex_;
};

/// RAII scoped lock over `Mutex` (the annotated `std::lock_guard`).
class AEVA_SCOPED_CAPABILITY MutexGuard {
 public:
  explicit MutexGuard(Mutex& mutex) AEVA_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexGuard() AEVA_RELEASE() { mutex_.unlock(); }

  MutexGuard(const MutexGuard&) = delete;
  MutexGuard& operator=(const MutexGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable paired with `Mutex`. `wait` atomically releases and
/// reacquires the mutex through the std implementation; the capability is
/// held again when it returns, which is exactly what AEVA_REQUIRES
/// states, so callers' guarded accesses around the wait stay provable.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified. The release/reacquire happens inside
  /// std::condition_variable; analysis of this body is disabled (the one
  /// sanctioned escape hatch, see thread_annotations.hpp).
  void wait(Mutex& mutex) AEVA_REQUIRES(mutex) AEVA_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> relock(mutex.mutex_, std::adopt_lock);
    cv_.wait(relock);
    relock.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace aeva::util
