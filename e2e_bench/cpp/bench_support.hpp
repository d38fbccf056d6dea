#pragma once

/// \file bench_support.hpp
/// Building blocks of the end-to-end benchmark: wall-clock timing, sample
/// percentiles, the timing decorator around core::Allocator, the output
/// checks, and the metric list printed as the result line.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "datacenter/simulator.hpp"
#include "modeldb/database.hpp"
#include "obs/session.hpp"
#include "serve/service.hpp"

namespace aeva::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t ns_between(Clock::time_point begin,
                                              Clock::time_point end) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
          .count());
}

[[nodiscard]] inline double seconds_since(Clock::time_point begin) {
  return static_cast<double>(ns_between(begin, Clock::now())) * 1e-9;
}

struct Report;

/// Paces a run so that set-up, measured passes and closing checks
/// together take about --seconds of wall-clock time.
class RunBudget {
 public:
  explicit RunBudget(double seconds) : seconds_(seconds) {}

  /// Whether a step of about `step_s` that starts now ends within `share`
  /// of the budget and still leaves `reserve_s` after it.
  [[nodiscard]] bool fits(double share, double step_s,
                          double reserve_s) const {
    return seconds_since(begin_) + step_s + reserve_s <= share * seconds_;
  }

 private:
  Clock::time_point begin_ = Clock::now();
  double seconds_;
};

/// The host-speed reference. On a shared host the speed of this kind of
/// code moves in regimes: for tens of seconds to minutes every workload
/// runs up to ~1.6x slower or faster. measure() sorts a fixed
/// pseudo-random array of kKeys keys, then builds a hash index over
/// kIndexed of them and looks up twice as many; its time tracks those
/// regimes (see README.md, "Noise"). The code lives here, outside src/, so
/// a change to the program never moves it. Throughput per reference (VMs
/// in the time of one reference) divides the regime out while a change to
/// the program still shows in full.
class HostReference {
 public:
  static constexpr std::size_t kKeys = 200000;
  static constexpr std::uint32_t kIndexed = 60000;

  /// Runs the reference once; returns the host seconds it took.
  [[nodiscard]] double measure();

 private:
  std::vector<std::uint32_t> keys_ = std::vector<std::uint32_t>(kKeys);
  std::uint64_t hits_ = 0;  ///< keeps the lookups observable
};

/// Median of a sample (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// Throughputs of a run's untraced passes, each with the reference time
/// measured just before it.
class Throughput {
 public:
  void add(double vms, double requests, double run_s, double reference_s) {
    vms_per_s_.push_back(vms / run_s);
    requests_per_s_.push_back(requests / run_s);
    reference_s_.push_back(reference_s);
  }
  /// Untraced: the per-reference throughputs (end to end). Traced: the
  /// host throughputs and the reference time. Medians over passes.
  void report(Report& report, bool trace) const;

 private:
  std::vector<double> vms_per_s_;
  std::vector<double> requests_per_s_;
  std::vector<double> reference_s_;
};

/// Wall-clock durations of one kind of call, in nanoseconds.
class Samples {
 public:
  void add(std::uint64_t ns) {
    ns_.push_back(ns);
    total_ns_ += ns;
  }
  void append(const Samples& other);
  [[nodiscard]] std::size_t count() const noexcept { return ns_.size(); }
  [[nodiscard]] double total_s() const noexcept {
    return static_cast<double>(total_ns_) * 1e-9;
  }
  /// Nearest-rank quantile in microseconds (0 when empty).
  [[nodiscard]] double quantile_us(double q) const;

 private:
  std::vector<std::uint64_t> ns_;
  std::uint64_t total_ns_ = 0;
};

/// What the timing decorator saw over one or more runs.
struct AllocateStats {
  Samples time;
  std::uint64_t incomplete = 0;
  std::uint64_t partitions_examined = 0;

  void append(const AllocateStats& other) {
    time.append(other.time);
    incomplete += other.incomplete;
    partitions_examined += other.partitions_examined;
  }
};

/// Times every call into the wrapped allocator. It forwards both entry
/// points unchanged and reports the inner name(), which the simulator
/// hashes into the snapshot config fingerprint.
class TimedAllocator final : public core::Allocator {
 public:
  TimedAllocator(const core::Allocator& inner, AllocateStats& stats)
      : inner_(inner), stats_(stats) {}

  [[nodiscard]] core::AllocationResult allocate(
      std::span<const core::VmRequest> vms,
      std::span<const core::ServerState> servers) const override {
    const Clock::time_point begin = Clock::now();
    core::AllocationResult result = inner_.allocate(vms, servers);
    record(begin, result);
    return result;
  }

  void allocate_into(std::span<const core::VmRequest> vms,
                     std::span<const core::ServerState> servers,
                     core::AllocationResult& out) const override {
    const Clock::time_point begin = Clock::now();
    inner_.allocate_into(vms, servers, out);
    record(begin, out);
  }

  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  void record(Clock::time_point begin,
              const core::AllocationResult& result) const {
    stats_.time.add(ns_between(begin, Clock::now()));
    stats_.incomplete += result.complete ? 0 : 1;
    stats_.partitions_examined += result.partitions_examined;
  }

  const core::Allocator& inner_;
  AllocateStats& stats_;
};

/// Names of the fields in which two simulator results differ, comparing
/// doubles bit for bit (empty when identical).
[[nodiscard]] std::vector<std::string> diff_sim_metrics(
    const datacenter::SimMetrics& a, const datacenter::SimMetrics& b);

/// Same for two service results: metrics and the full decision log.
[[nodiscard]] std::vector<std::string> diff_serve_results(
    const serve::ServeResult& a, const serve::ServeResult& b);

/// The output checks of one benchmark run. Every failed check is printed
/// to stderr and counted; any failure makes the run incorrect.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  /// Records `diffs` (from a diff_* helper) as one check.
  void expect_same(const std::vector<std::string>& diffs,
                   const std::string& what);
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t failed_ = 0;
};

/// One metric of the result line: its name in BENCHMARK.json and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics of an untraced run (BENCHMARK.json "end_to_end").
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// The metrics of a traced run (BENCHMARK.json "per_layer"). A workload
/// that does not exercise a layer reports 0 for its metrics.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// Everything a workload reports.
struct Report {
  Checks checks;
  std::uint64_t attempted = 0;  ///< VMs (sim) or requests (serve) offered
  std::uint64_t failed = 0;     ///< abandoned VMs or unplaced requests
  std::map<std::string, double> values;  ///< by MetricSpec::name

  void set(const std::string& name, double value) { values[name] = value; }
};

/// Wall-clock split of one set-up.
struct SetupTimes {
  double total_s = 0.0;
  double campaign_s = 0.0;  ///< building the model database
  double prepare_s = 0.0;   ///< synthesizing the trace or request stream
};

/// Runs `make` once, appends its times to `times`, and returns its result.
/// A run sets up once before its passes and again after every untraced
/// pass, so that setup_s, the median, samples the whole run and not only
/// the host's speed at its start.
template <typename Make>
auto timed_setup(const Make& make, std::vector<SetupTimes>& times) {
  SetupTimes t;
  const Clock::time_point begin = Clock::now();
  auto setup = make(t);
  t.total_s = seconds_since(begin);
  times.push_back(t);
  return setup;
}

/// setup_s (untraced) or its split modeldb.campaign_s / trace.prepare_s
/// (traced): medians over the repetitions.
void set_setup_metrics(Report& report, const std::vector<SetupTimes>& times,
                       bool trace);

/// The model database from the default campaign, built on one thread so
/// set-up time does not depend on how many cores are idle.
[[nodiscard]] modeldb::ModelDatabase build_database();

// --- readers of an obs::Session --------------------------------------------

[[nodiscard]] std::shared_ptr<obs::Session> make_session();
[[nodiscard]] std::uint64_t counter_of(const obs::MetricsRegistry::Snapshot& s,
                                       std::string_view name);
[[nodiscard]] double gauge_of(const obs::MetricsRegistry::Snapshot& s,
                              std::string_view name);
void merge_histogram(const obs::MetricsRegistry::Snapshot& s,
                     std::string_view name, util::RunningStats& into);
/// Appends the real-time durations of every span called `name`.
void collect_spans(const obs::TraceLog& log, std::string_view name,
                   Samples& into);

/// Mean of merged histogram statistics (0 when empty).
[[nodiscard]] inline double mean_of(const util::RunningStats& stats) {
  return stats.count() > 0 ? stats.mean() : 0.0;
}

/// num / den, or 0 when den is not positive.
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Prints the spread of per-pass host times to stderr, for diagnosis.
void log_pass_times(const std::string& what, const std::vector<double>& s);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace aeva::e2e
