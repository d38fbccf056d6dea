#include "bench_support.hpp"

#include <sys/resource.h>

#include <bit>
#include <iostream>
#include <unordered_map>

#include "modeldb/campaign.hpp"
#include "testbed/server_config.hpp"

namespace aeva::e2e {

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double HostReference::measure() {
  const Clock::time_point begin = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t& key : keys_) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    key = static_cast<std::uint32_t>(x >> 33);
  }
  std::sort(keys_.begin(), keys_.end());
  // Node-based hashing: allocation and pointer chasing, as in the
  // simulator's own bookkeeping.
  std::unordered_map<std::uint32_t, std::uint32_t> index;
  for (std::uint32_t k = 0; k < kIndexed; ++k) {
    index[keys_[k] ^ k] = k;
  }
  std::uint64_t hits = 0;
  for (std::uint32_t k = 0; k < 2 * kIndexed; ++k) {
    hits += index.count(keys_[k] ^ (k % kIndexed));
  }
  hits_ = hits;
  return seconds_since(begin);
}

void Throughput::report(Report& report, bool trace) const {
  if (trace) {
    report.set("host.sim_vms_per_s", median(vms_per_s_));
    report.set("host.serve_requests_per_s", median(requests_per_s_));
    report.set("host.reference_ms", median(reference_s_) * 1e3);
    return;
  }
  std::vector<double> vms_per_ref;
  std::vector<double> requests_per_ref;
  for (std::size_t i = 0; i < reference_s_.size(); ++i) {
    vms_per_ref.push_back(vms_per_s_[i] * reference_s_[i]);
    requests_per_ref.push_back(requests_per_s_[i] * reference_s_[i]);
  }
  report.set("sim_vms_per_ref", median(vms_per_ref));
  report.set("serve_requests_per_ref", median(requests_per_ref));
}

void Samples::append(const Samples& other) {
  ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
  total_ns_ += other.total_ns_;
}

double Samples::quantile_us(double q) const {
  if (ns_.empty()) {
    return 0.0;
  }
  std::vector<std::uint64_t> sorted = ns_;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(index),
                   sorted.end());
  return static_cast<double>(sorted[index]) * 1e-3;
}

namespace {

/// Collects the names of differing fields; doubles compare by bits.
class FieldDiff {
 public:
  void same(const char* field, double a, double b) {
    if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b)) {
      diffs_.emplace_back(field);
    }
  }
  template <typename T>
  void same(const char* field, const T& a, const T& b) {
    if (!(a == b)) {
      diffs_.emplace_back(field);
    }
  }
  [[nodiscard]] std::vector<std::string> take() { return std::move(diffs_); }

 private:
  std::vector<std::string> diffs_;
};

}  // namespace

std::vector<std::string> diff_sim_metrics(const datacenter::SimMetrics& a,
                                          const datacenter::SimMetrics& b) {
  FieldDiff d;
  d.same("makespan_s", a.makespan_s, b.makespan_s);
  d.same("energy_j", a.energy_j, b.energy_j);
  d.same("sla_violation_pct", a.sla_violation_pct, b.sla_violation_pct);
  d.same("jobs", a.jobs, b.jobs);
  d.same("vms", a.vms, b.vms);
  d.same("sla_violations", a.sla_violations, b.sla_violations);
  d.same("mean_response_s", a.mean_response_s, b.mean_response_s);
  d.same("mean_wait_s", a.mean_wait_s, b.mean_wait_s);
  d.same("mean_job_wait_s", a.mean_job_wait_s, b.mean_job_wait_s);
  d.same("mean_busy_servers", a.mean_busy_servers, b.mean_busy_servers);
  d.same("peak_busy_servers", a.peak_busy_servers, b.peak_busy_servers);
  d.same("servers_powered", a.servers_powered, b.servers_powered);
  d.same("migrations", a.migrations, b.migrations);
  d.same("migration_transfer_s", a.migration_transfer_s,
         b.migration_transfer_s);
  d.same("failures", a.failures, b.failures);
  d.same("vm_restarts", a.vm_restarts, b.vm_restarts);
  d.same("vms_abandoned", a.vms_abandoned, b.vms_abandoned);
  d.same("lost_work_s", a.lost_work_s, b.lost_work_s);
  d.same("goodput_fraction", a.goodput_fraction, b.goodput_fraction);
  d.same("correlated_failures", a.correlated_failures,
         b.correlated_failures);
  d.same("blast_radius_vms_max", a.blast_radius_vms_max,
         b.blast_radius_vms_max);
  d.same("blast_radius_vms_mean", a.blast_radius_vms_mean,
         b.blast_radius_vms_mean);
  d.same("lost_work_correlated_s", a.lost_work_correlated_s,
         b.lost_work_correlated_s);
  d.same("fallback_allocations", a.fallback_allocations,
         b.fallback_allocations);
  d.same("rejects_by_reason", a.rejects_by_reason, b.rejects_by_reason);
  d.same("completions", a.completions.size(), b.completions.size());
  return d.take();
}

std::vector<std::string> diff_serve_results(const serve::ServeResult& a,
                                            const serve::ServeResult& b) {
  FieldDiff d;
  // serve_metrics_json renders every field with exact %.17g doubles.
  d.same("metrics", serve::serve_metrics_json(a.metrics),
         serve::serve_metrics_json(b.metrics));
  d.same("log", serve::render_decision_log(a.log),
         serve::render_decision_log(b.log));
  d.same("drained", a.drained, b.drained);
  return d.take();
}

void Checks::expect(bool ok, const std::string& what) {
  if (ok) {
    return;
  }
  ++failed_;
  std::cerr << "e2e_bench: check failed: " << what << "\n";
}

void Checks::expect_same(const std::vector<std::string>& diffs,
                         const std::string& what) {
  std::string fields;
  for (const std::string& field : diffs) {
    fields += (fields.empty() ? "" : ", ") + field;
  }
  expect(diffs.empty(), what + " (differs in: " + fields + ")");
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"sim_vms_per_ref", "1/ref"},
      {"serve_requests_per_ref", "1/ref"},
      {"peak_rss_mb", "MB"},
      {"makespan_s", "sim_s"},
      {"goodput_fraction", "fraction"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"core.allocate.calls", "count"},
      {"core.allocate.us_p50", "us"},
      {"core.allocate.us_p99", "us"},
      {"core.allocate.share", "fraction"},
      {"core.allocate.reject_ratio", "fraction"},
      {"core.partitions_examined_per_call", "count"},
      {"core.search.candidates_per_call", "count"},
      {"core.search.pruned_bound", "count"},
      {"modeldb.lookups", "count"},
      {"modeldb.memo_hit_rate", "fraction"},
      {"datacenter.run_s", "s"},
      {"datacenter.loop_self_s", "s"},
      {"datacenter.events", "count"},
      {"datacenter.ns_per_event", "ns"},
      {"datacenter.queue_depth_mean", "count"},
      {"datacenter.energy_mj", "MJ"},
      {"datacenter.sla_violation_pct", "%"},
      {"failure.crashes", "count"},
      {"failure.correlated", "count"},
      {"failure.restarts", "count"},
      {"failure.restart_us_p50", "us"},
      {"persist.snapshots", "count"},
      {"persist.snapshot_bytes", "bytes"},
      {"persist.encode_us_p50", "us"},
      {"persist.capture_us_p50", "us"},
      {"core.fleet_plan.calls", "count"},
      {"core.fleet_plan.us_p50", "us"},
      {"core.fleet_plan.us_p99", "us"},
      {"core.fleet_delta.us_p50", "us"},
      {"core.fleet_up_servers.us_p50", "us"},
      {"serve.run_s", "s"},
      {"serve.self_s", "s"},
      {"serve.queue_depth_mean", "count"},
      {"serve.decisions_incremental", "count"},
      {"serve.retries", "count"},
      {"modeldb.campaign_s", "s"},
      {"trace.prepare_s", "s"},
      {"obs.overhead_ratio", "ratio"},
      {"host.sim_vms_per_s", "1/s"},
      {"host.serve_requests_per_s", "1/s"},
      {"host.reference_ms", "ms"},
  };
  return specs;
}

void set_setup_metrics(Report& report, const std::vector<SetupTimes>& times,
                       bool trace) {
  std::vector<double> total;
  std::vector<double> campaign;
  std::vector<double> prepare;
  for (const SetupTimes& t : times) {
    total.push_back(t.total_s);
    campaign.push_back(t.campaign_s);
    prepare.push_back(t.prepare_s);
  }
  if (trace) {
    report.set("modeldb.campaign_s", median(campaign));
    report.set("trace.prepare_s", median(prepare));
  } else {
    report.set("setup_s", median(total));
  }
}

modeldb::ModelDatabase build_database() {
  modeldb::CampaignConfig config;
  config.server = testbed::testbed_server();
  config.threads = 1;
  return modeldb::Campaign(config).build();
}

std::shared_ptr<obs::Session> make_session() {
  obs::ObsConfig config;
  config.enabled = true;
  return obs::Session::create(config);
}

std::uint64_t counter_of(const obs::MetricsRegistry::Snapshot& s,
                         std::string_view name) {
  for (const auto& [key, value] : s.counters) {
    if (key == name) return value;
  }
  return 0;
}

double gauge_of(const obs::MetricsRegistry::Snapshot& s,
                std::string_view name) {
  for (const auto& [key, value] : s.gauges) {
    if (key == name) return value;
  }
  return 0.0;
}

void merge_histogram(const obs::MetricsRegistry::Snapshot& s,
                     std::string_view name, util::RunningStats& into) {
  for (const auto& [key, value] : s.histograms) {
    if (key == name) into.merge(value.stats);
  }
}

void collect_spans(const obs::TraceLog& log, std::string_view name,
                   Samples& into) {
  for (const obs::TraceEvent& event : log.events()) {
    if (event.name == name && event.real_us >= 0.0) {
      into.add(static_cast<std::uint64_t>(event.real_us * 1e3));
    }
  }
}

void log_pass_times(const std::string& what, const std::vector<double>& s) {
  if (s.empty()) return;
  const auto [lo, hi] = std::minmax_element(s.begin(), s.end());
  std::cerr << "e2e_bench: " << s.size() << " " << what << ", host s min "
            << *lo << " median " << median(s) << " max " << *hi << "\n";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace aeva::e2e
