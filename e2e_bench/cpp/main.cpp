/// aeva_e2e_bench: the end-to-end benchmark binary (README.md in this
/// directory). Usually launched through run.py, which builds it first.
///
/// Usage:
///   aeva_e2e_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
///                  [--small]
///   aeva_e2e_bench --self-check
///
/// The last line of standard output is one JSON object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
/// with the end-to-end metrics when --trace is 0 and the per-layer metrics
/// when it is 1. A failed output check prints the line with "correct":
/// false and exits 1; a bad argument or an exception exits 2 without it.

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "workloads.hpp"

namespace {

using namespace aeva;
using namespace aeva::e2e;

e2e::Options parse_args(int argc, char** argv, bool& self_check) {
  e2e::Options o;
  o.workload.clear();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") throw std::invalid_argument("--trace 0|1");
      o.trace = t == "1";
    } else if (arg == "--small") {
      o.small = true;
    } else if (arg == "--self-check") {
      self_check = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

/// The comparison helpers must catch a planted one-field mismatch, and a
/// caught mismatch must fail its check. Returns the number of misses.
int self_check() {
  int misses = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      ++misses;
      std::cerr << "self-check: missed " << what << "\n";
    }
  };
  datacenter::SimMetrics a;
  a.energy_j = 1.0e9;
  a.makespan_s = 5.0e4;
  datacenter::SimMetrics b = a;
  expect(diff_sim_metrics(a, b).empty(), "identical metrics");
  b.energy_j = std::nextafter(a.energy_j, 2.0e9);
  expect(diff_sim_metrics(a, b) == std::vector<std::string>{"energy_j"},
         "a one-ulp energy difference");
  b = a;
  b.rejects_by_reason[1] = 1;
  expect(!diff_sim_metrics(a, b).empty(), "a reject-tally difference");

  serve::ServeResult x;
  x.log.resize(2);
  x.log[1].servers = {3, 4};
  serve::ServeResult y = x;
  expect(diff_serve_results(x, y).empty(), "identical serve results");
  y.log[1].servers[1] = 5;
  expect(diff_serve_results(x, y) == std::vector<std::string>{"log"},
         "a one-server log difference");
  y = x;
  y.metrics.placed = 1;
  expect(diff_serve_results(x, y) == std::vector<std::string>{"metrics"},
         "a serve metrics difference");

  Checks checks;
  std::cerr << "self-check: the next line is a planted failure\n";
  checks.expect_same({"energy_j"}, "planted mismatch");
  expect(checks.failed() == 1, "a failed check being counted");
  return misses;
}

/// Prints the result line; returns the number of failed checks.
std::uint64_t print_result(const Report& report, bool trace) {
  const std::vector<MetricSpec>& specs =
      trace ? per_layer_metrics() : end_to_end_metrics();
  std::uint64_t bad_metrics = 0;
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    const auto it = report.values.find(spec.name);
    // A traced run reports 0 for the layers its workload does not use.
    double value = it != report.values.end() ? it->second : 0.0;
    if ((!trace && it == report.values.end()) || !std::isfinite(value)) {
      std::cerr << "e2e_bench: no finite value for " << spec.name << "\n";
      ++bad_metrics;
      value = 0.0;
    }
    char number[40];
    std::snprintf(number, sizeof number, "%.17g", value);
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + spec.name +
               "\": {\"value\": " + number + ", \"unit\": \"" + spec.unit +
               "\"}";
  }
  for (const auto& [name, value] : report.values) {
    bool known = false;
    for (const MetricSpec& spec : specs) known = known || name == spec.name;
    if (!known) {
      std::cerr << "e2e_bench: metric " << name << " is not in the list\n";
      ++bad_metrics;
    }
  }
  const std::uint64_t failed_checks = report.checks.failed() + bad_metrics;
  std::cout << "{\"correct\": " << (failed_checks == 0 ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed + failed_checks
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return failed_checks;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bool run_self_check = false;
    const e2e::Options options = parse_args(argc, argv, run_self_check);
    if (run_self_check) {
      const int misses = self_check();
      std::cout << "self-check: " << (misses == 0 ? "ok" : "FAILED") << "\n";
      return misses == 0 ? 0 : 1;
    }
    Report report;
    if (options.workload == "serve_churn_20k") {
      report = run_serve(options);
    } else if (options.workload == "paper_matrix" ||
               options.workload == "sim_fleet_10k" ||
               options.workload == "sim_faults_1k") {
      report = run_sim(options);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "'");
    }
    return print_result(report, options.trace) == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "e2e_bench: " << error.what() << "\n";
    return 2;
  }
}
