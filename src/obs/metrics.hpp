#pragma once

/// \file metrics.hpp
/// Metric primitives for the observability layer (docs/OBSERVABILITY.md).
///
/// Three shapes, mirroring production metric systems:
///
///  * `Counter`  — monotonically increasing unsigned tally (relaxed atomic;
///                 the hot path is one uncontended fetch_add).
///  * `Gauge`    — last-written double (relaxed atomic store).
///  * `Histogram`— fixed-bucket distribution plus Welford summary stats.
///                 Recording lands on one of several thread-striped shards
///                 (thread-id hash picks the stripe), so concurrent
///                 recorders almost never touch the same lock;
///                 `snapshot()` merges the shards with
///                 `util::RunningStats::merge`.
///
/// Metric objects are created by and owned by a `MetricsRegistry`;
/// references returned by the registry stay valid for the registry's
/// lifetime, so instrumented components resolve their handles once and
/// pay only the update cost afterwards. Everything here is thread-safe.
/// None of it reads any clock — metrics are deterministic given a
/// deterministic workload (CONTRIBUTING.md).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/stats.hpp"

namespace aeva::obs {

/// Monotonically increasing tally. Updates are relaxed atomics: counts
/// never order anything, they are only read at snapshot time.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (e.g. a cache hit rate or a worker count).
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with Welford summary statistics.
class Histogram {
 public:
  /// `bounds` are strictly increasing upper bucket bounds; a value lands
  /// in the first bucket whose bound is >= value, or in the implicit
  /// overflow bucket past the last bound (so there are bounds.size() + 1
  /// buckets). Throws std::invalid_argument on unsorted bounds.
  explicit Histogram(std::vector<double> bounds, std::size_t shard_count = 8);

  /// Records one observation (thread-safe, stripe-local lock).
  void record(double value) noexcept;

  /// Merged view of all shards.
  struct Snapshot {
    util::RunningStats stats;
    std::vector<double> bounds;           ///< upper bounds, ascending
    std::vector<std::uint64_t> buckets;   ///< bounds.size() + 1 counts
  };
  [[nodiscard]] Snapshot snapshot() const;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }

 private:
  struct Shard {
    mutable util::Mutex mutex;
    util::RunningStats stats AEVA_GUARDED_BY(mutex);
    std::vector<std::uint64_t> buckets AEVA_GUARDED_BY(mutex);
  };

  std::vector<double> bounds_;
  /// unique_ptr keeps shard addresses stable (Shard holds a mutex).
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Named metric store. Lookup by name takes a registry-wide lock and is
/// meant for handle resolution at setup time, not for hot paths; the
/// returned references are stable for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named counter.
  [[nodiscard]] Counter& counter(const std::string& name)
      AEVA_EXCLUDES(mutex_);

  /// Finds or creates the named gauge.
  [[nodiscard]] Gauge& gauge(const std::string& name) AEVA_EXCLUDES(mutex_);

  /// Finds or creates the named histogram. On first creation the bucket
  /// bounds are taken from `bounds`; later calls return the existing
  /// histogram regardless of the bounds passed.
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::vector<double> bounds)
      AEVA_EXCLUDES(mutex_);

  /// Point-in-time copy of every metric, name-sorted (deterministic).
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
  };
  [[nodiscard]] Snapshot snapshot() const AEVA_EXCLUDES(mutex_);

 private:
  mutable util::Mutex mutex_;  ///< guards the maps, not the metric values
  std::map<std::string, std::unique_ptr<Counter>> counters_
      AEVA_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      AEVA_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      AEVA_GUARDED_BY(mutex_);
};

}  // namespace aeva::obs
