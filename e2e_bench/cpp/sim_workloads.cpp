/// The simulator workloads: paper_matrix, sim_fleet_10k, sim_faults_1k.
/// A pass calls datacenter::Simulator::run once per cell on one input;
/// untraced passes give the end-to-end numbers and traced passes (obs
/// session plus the timing decorator) the per-layer breakdown.

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness_common.hpp"
#include "core/first_fit.hpp"
#include "core/proactive.hpp"
#include "datacenter/simulator.hpp"
#include "datacenter/topology.hpp"
#include "persist/snapshot.hpp"
#include "workloads.hpp"

namespace aeva::e2e {
namespace {

/// One allocation strategy of the paper (Sect. IV-D).
struct Strategy {
  bool proactive = false;
  int multiplex = 1;   ///< first-fit VMs per CPU
  double alpha = 1.0;  ///< proactive energy weight
};

const Strategy kPa1{true, 1, 1.0};

/// One Simulator::run call of a pass.
struct SimCell {
  std::string label;  ///< "<cloud>/<strategy>" or the strategy alone
  datacenter::CloudConfig cloud;
  Strategy strategy;
};

/// What the snapshot hook saw: every snapshot is encoded in memory with
/// persist::encode_snapshot, and the encode is timed.
struct SnapshotSink {
  std::uint64_t snapshots = 0;
  std::uint64_t bytes = 0;
  Samples encode;
};

struct SimSetup {
  explicit SimSetup(modeldb::ModelDatabase database)
      : db(std::move(database)) {}

  modeldb::ModelDatabase db;
  std::unique_ptr<datacenter::Topology> topology;
  core::SpreadConfig spread;
  std::unique_ptr<SnapshotSink> sink = std::make_unique<SnapshotSink>();
  std::vector<SimCell> cells;
};

/// One input: a trace, and one simulator per cell. Fault samples are
/// seeded per input, so the simulators are too.
struct SimInput {
  std::size_t index = 0;
  trace::PreparedWorkload workload;
  std::vector<std::unique_ptr<datacenter::Simulator>> sims;
};

std::unique_ptr<core::Allocator> make_allocator(
    const Strategy& strategy, const modeldb::ModelDatabase& db,
    const core::SpreadConfig& spread, std::shared_ptr<obs::Session> session) {
  if (!strategy.proactive) {
    return std::make_unique<core::FirstFitAllocator>(strategy.multiplex);
  }
  core::ProactiveConfig config;
  config.alpha = strategy.alpha;
  config.search_threads = 1;
  config.spread = spread;
  config.obs = std::move(session);
  return std::make_unique<core::ProactiveAllocator>(db, config);
}

/// The six strategies on the SMALLER and LARGER clouds (figs 5-7).
void add_paper_cells(SimSetup& s, bool small) {
  const std::vector<std::pair<std::string, Strategy>> strategies = {
      {"FF", {false, 1, 0.0}},   {"FF-2", {false, 2, 0.0}},
      {"FF-3", {false, 3, 0.0}}, {"PA-1", kPa1},
      {"PA-0", {true, 1, 0.0}},  {"PA-0.5", {true, 1, 0.5}},
  };
  // The reduced input keeps the paper's load per server.
  const std::vector<std::pair<std::string, int>> clouds = {
      {"SMALLER", small ? 12 : bench::smaller_cloud().server_count},
      {"LARGER", small ? 14 : bench::larger_cloud().server_count},
  };
  for (const auto& [cloud_name, servers] : clouds) {
    for (const auto& [strategy_name, strategy] : strategies) {
      SimCell cell;
      cell.label = cloud_name + "/" + strategy_name;
      cell.cloud.server_count = servers;
      cell.strategy = strategy;
      s.cells.push_back(std::move(cell));
    }
  }
}

void add_fleet_cell(SimSetup& s, bool small) {
  SimCell cell;
  cell.label = "PA-1";
  cell.cloud.server_count = small ? 1000 : 10000;
  cell.strategy = kPa1;
  s.cells.push_back(std::move(cell));
}

/// PA-1 with rack spread on a rack/PDU/ToR fleet under sampled faults,
/// checkpoint-restart recovery and in-memory snapshots.
void add_faults_cell(SimSetup& s, bool small) {
  datacenter::SyntheticTopologyConfig topo;
  topo.server_count = small ? 200 : 1000;
  s.topology = std::make_unique<datacenter::Topology>(
      datacenter::make_synthetic_topology(topo));
  s.spread = datacenter::spread_by_rack(*s.topology, 2);

  SimCell cell;
  cell.label = "PA-1";
  cell.strategy = kPa1;
  datacenter::CloudConfig& cloud = cell.cloud;
  cloud.server_count = topo.server_count;
  datacenter::FailureConfig& failure = cloud.failure;
  failure.enabled = true;
  failure.mtbf_s = 2e5;
  failure.mttr_s = 1800.0;
  failure.topology = s.topology.get();
  failure.domains.pdu_mtbf_s = 4e4;
  failure.domains.tor_mtbf_s = 4e4;
  failure.recovery.policy = datacenter::RecoveryPolicy::kCheckpointRestart;
  cloud.snapshot.every_s = 2000.0;
  SnapshotSink* sink = s.sink.get();
  cloud.snapshot.hook = [sink](const persist::SimSnapshot& snapshot) {
    const Clock::time_point begin = Clock::now();
    const std::string bytes = persist::encode_snapshot(snapshot);
    sink->encode.add(ns_between(begin, Clock::now()));
    sink->bytes += bytes.size();
    ++sink->snapshots;
  };
  s.cells.push_back(std::move(cell));
}

/// Input `index` of the run: the trace, and per cell a simulator whose
/// fault samples (if any) use the input's seed.
SimInput make_input(const SimSetup& s, const Options& o, std::size_t index) {
  SimInput in;
  in.index = index;
  const std::uint64_t seed = input_seed(o.seed, index);
  in.workload = bench::standard_workload(s.db, seed, o.small ? 2000 : 10000);
  for (const SimCell& cell : s.cells) {
    datacenter::CloudConfig cloud = cell.cloud;
    cloud.failure.seed = seed;
    in.sims.push_back(std::make_unique<datacenter::Simulator>(s.db, cloud));
  }
  return in;
}

/// What one set-up builds: the model database, the cells, the first input.
struct SimPrepared {
  std::unique_ptr<SimSetup> setup;
  SimInput first;
};

SimPrepared make_sim_setup(const Options& o, SetupTimes& t) {
  SimPrepared p;
  Clock::time_point begin = Clock::now();
  p.setup = std::make_unique<SimSetup>(build_database());
  t.campaign_s = seconds_since(begin);

  if (o.workload == "paper_matrix") {
    add_paper_cells(*p.setup, o.small);
  } else if (o.workload == "sim_fleet_10k") {
    add_fleet_cell(*p.setup, o.small);
  } else {
    add_faults_cell(*p.setup, o.small);
  }
  begin = Clock::now();
  p.first = make_input(*p.setup, o, 0);
  t.prepare_s = seconds_since(begin);
  return p;
}

/// Outputs and host time of one pass: every cell on one input.
struct SimPass {
  std::size_t input = 0;
  double vms = 0.0;   ///< VMs offered, summed over cells
  double jobs = 0.0;  ///< jobs (allocation requests), summed over cells
  std::vector<datacenter::SimMetrics> metrics;
  double run_s = 0.0;  ///< Σ wall-clock seconds inside Simulator::run
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_bytes = 0;
};

/// What the traced passes saw, summed over passes.
struct SimLayers {
  int passes = 0;
  double run_s = 0.0;
  AllocateStats allocate;
  std::uint64_t events = 0;
  std::uint64_t lookups = 0;
  std::uint64_t pruned_bound = 0;
  double memo_hits = 0.0;
  double memo_misses = 0.0;
  util::RunningStats candidates;
  util::RunningStats queue_depth;
  Samples restart;
  Samples capture;
  Samples encode;
};

/// One pass. With `layers`, each cell runs with an obs session and the
/// timing decorator, and what they saw is added there. Allocators are
/// built fresh per run, so every run starts with the proactive search's
/// memo cache cold.
SimPass run_sim_pass(SimSetup& s, const SimInput& in, SimLayers* layers) {
  SimPass pass;
  pass.input = in.index;
  const auto cells = static_cast<double>(s.cells.size());
  pass.vms = in.workload.total_vms * cells;
  pass.jobs = static_cast<double>(in.workload.jobs.size()) * cells;
  for (std::size_t i = 0; i < s.cells.size(); ++i) {
    const SimCell& cell = s.cells[i];
    *s.sink = SnapshotSink{};
    if (layers == nullptr) {
      const std::unique_ptr<core::Allocator> allocator =
          make_allocator(cell.strategy, s.db, s.spread, nullptr);
      const Clock::time_point begin = Clock::now();
      pass.metrics.push_back(in.sims[i]->run(in.workload, *allocator));
      pass.run_s += seconds_since(begin);
    } else {
      const std::shared_ptr<obs::Session> session = make_session();
      const std::unique_ptr<core::Allocator> inner =
          make_allocator(cell.strategy, s.db, s.spread, session);
      AllocateStats stats;
      const TimedAllocator timed(*inner, stats);
      datacenter::CloudConfig cloud = in.sims[i]->cloud();
      cloud.obs = session;
      const datacenter::Simulator sim(s.db, cloud);
      const Clock::time_point begin = Clock::now();
      pass.metrics.push_back(sim.run(in.workload, timed));
      const double run_s = seconds_since(begin);
      pass.run_s += run_s;

      layers->run_s += run_s;
      layers->allocate.append(stats);
      const obs::MetricsRegistry::Snapshot m = session->metrics().snapshot();
      layers->events += counter_of(m, "sim.events");
      layers->lookups += counter_of(m, "sim.modeldb.lookups");
      layers->pruned_bound += counter_of(m, "pa.search.pruned_bound");
      layers->memo_hits += gauge_of(m, "pa.memo.hits");
      layers->memo_misses += gauge_of(m, "pa.memo.misses");
      merge_histogram(m, "pa.search.candidates_per_call", layers->candidates);
      merge_histogram(m, "sim.queue_depth", layers->queue_depth);
      collect_spans(session->trace(), "restart", layers->restart);
      collect_spans(session->trace(), "snapshot", layers->capture);
      layers->encode.append(s.sink->encode);
    }
    pass.snapshots += s.sink->snapshots;
    pass.snapshot_bytes += s.sink->bytes;
  }
  if (layers != nullptr) {
    ++layers->passes;
  }
  return pass;
}

std::string input_label(const SimPass& pass) {
  return "input " + std::to_string(pass.input) + " ";
}

/// The paper's shape (figs 5-6) on each cloud, as the repository's
/// integration test states it: PA-1 uses less energy than the first-fit
/// family on average, and the time-optimal PA-0 finishes before FF-3.
void check_paper_shape(const SimSetup& s, const SimPass& pass,
                       Checks& checks) {
  const auto find = [&](const std::string& label) {
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
      if (s.cells[i].label == label) return pass.metrics[i];
    }
    throw std::logic_error("no cell " + label);
  };
  for (const std::string cloud : {"SMALLER", "LARGER"}) {
    double ff_family_j = 0.0;
    for (const std::string ff : {"FF", "FF-2", "FF-3"}) {
      ff_family_j += find(cloud + "/" + ff).energy_j / 3.0;
    }
    checks.expect(find(cloud + "/PA-1").energy_j < ff_family_j,
                  input_label(pass) + cloud +
                      ": PA-1 energy below the first-fit family mean");
    checks.expect(
        find(cloud + "/PA-0").makespan_s < find(cloud + "/FF-3").makespan_s,
        input_label(pass) + cloud + ": PA-0 makespan below FF-3");
  }
}

/// Conservation of one pass; tallies the offered VMs.
void check_sim_pass(const SimSetup& s, const SimInput& in,
                    const SimPass& pass, Report& report) {
  const auto offered = static_cast<std::size_t>(in.workload.total_vms);
  for (std::size_t i = 0; i < s.cells.size(); ++i) {
    const datacenter::SimMetrics& m = pass.metrics[i];
    report.checks.expect(m.vms + m.vms_abandoned == offered,
                         input_label(pass) + s.cells[i].label +
                             ": completed + abandoned VMs = offered VMs");
    report.attempted += offered;
    report.failed += m.vms_abandoned;
  }
}

/// A second pass over the same input must repeat the first bit for bit.
void check_repeat(const SimSetup& s, const SimPass& pass,
                  const SimPass& first, const std::string& what,
                  Checks& checks) {
  for (std::size_t i = 0; i < s.cells.size(); ++i) {
    checks.expect_same(diff_sim_metrics(pass.metrics[i], first.metrics[i]),
                       input_label(pass) + s.cells[i].label + ": " + what +
                           " repeats the first pass");
  }
  checks.expect(pass.snapshots == first.snapshots &&
                    pass.snapshot_bytes == first.snapshot_bytes,
                input_label(pass) + what + ": snapshot count and bytes repeat");
}

void set_layer_metrics(const SimSetup& s,
                       const std::vector<SimPass>& outcomes,
                       const SimLayers& layers, Report& report) {
  const auto passes = static_cast<double>(layers.passes);
  const AllocateStats& a = layers.allocate;
  const auto calls = static_cast<double>(a.time.count());
  const double loop_self_s = layers.run_s - a.time.total_s();
  // Simulated outcomes: per input, mean over the outcome inputs.
  double energy_j = 0.0;
  double sla_pct = 0.0;
  double crashes = 0.0;
  double correlated = 0.0;
  double restarts = 0.0;
  double snapshots = 0.0;
  double snapshot_bytes = 0.0;
  for (const SimPass& pass : outcomes) {
    for (const datacenter::SimMetrics& m : pass.metrics) {
      energy_j += m.energy_j;
      sla_pct += m.sla_violation_pct / static_cast<double>(s.cells.size());
      crashes += static_cast<double>(m.failures);
      correlated += static_cast<double>(m.correlated_failures);
      restarts += static_cast<double>(m.vm_restarts);
    }
    snapshots += static_cast<double>(pass.snapshots);
    snapshot_bytes += static_cast<double>(pass.snapshot_bytes);
  }
  const auto inputs = static_cast<double>(outcomes.size());

  report.set("core.allocate.calls", calls / passes);
  report.set("core.allocate.us_p50", a.time.quantile_us(0.50));
  report.set("core.allocate.us_p99", a.time.quantile_us(0.99));
  report.set("core.allocate.share", ratio(a.time.total_s(), layers.run_s));
  report.set("core.allocate.reject_ratio",
             ratio(static_cast<double>(a.incomplete), calls));
  report.set("core.partitions_examined_per_call",
             ratio(static_cast<double>(a.partitions_examined), calls));
  report.set("core.search.candidates_per_call", mean_of(layers.candidates));
  report.set("core.search.pruned_bound",
             static_cast<double>(layers.pruned_bound) / passes);
  report.set("modeldb.lookups", static_cast<double>(layers.lookups) / passes);
  report.set("modeldb.memo_hit_rate",
             ratio(layers.memo_hits, layers.memo_hits + layers.memo_misses));
  report.set("datacenter.run_s", layers.run_s / passes);
  report.set("datacenter.loop_self_s", loop_self_s / passes);
  report.set("datacenter.events",
             static_cast<double>(layers.events) / passes);
  report.set("datacenter.ns_per_event",
             ratio(loop_self_s * 1e9, static_cast<double>(layers.events)));
  report.set("datacenter.queue_depth_mean", mean_of(layers.queue_depth));
  report.set("datacenter.energy_mj", energy_j * 1e-6 / inputs);
  report.set("datacenter.sla_violation_pct", sla_pct / inputs);
  report.set("failure.crashes", crashes / inputs);
  report.set("failure.correlated", correlated / inputs);
  report.set("failure.restarts", restarts / inputs);
  report.set("failure.restart_us_p50", layers.restart.quantile_us(0.50));
  report.set("persist.snapshots", snapshots / inputs);
  report.set("persist.snapshot_bytes", snapshot_bytes / inputs);
  report.set("persist.encode_us_p50", layers.encode.quantile_us(0.50));
  report.set("persist.capture_us_p50", layers.capture.quantile_us(0.50));
}

}  // namespace

Report run_sim(const Options& o) {
  const RunBudget budget(o.seconds);
  Report report;
  std::vector<SetupTimes> setup_times;
  const auto set_up = [&](SetupTimes& t) { return make_sim_setup(o, t); };
  SimPrepared prepared = timed_setup(set_up, setup_times);
  SimSetup& s = *prepared.setup;
  SimInput input = std::move(prepared.first);

  // Untraced passes give the end-to-end numbers: one new input per pass,
  // the outcome inputs first, each after a reference measurement and
  // before one more set-up. They leave room for the closing repeat and
  // traced pass of input 0; a traced run gives them half its time, for the
  // tracing-overhead ratio.
  HostReference reference;
  Throughput throughput;
  std::vector<SimPass> passes;
  std::vector<double> step_s;  ///< wall s per pass, input generation too
  do {
    const Clock::time_point step = Clock::now();
    if (input.index != passes.size()) {
      input = make_input(s, o, passes.size());
    }
    const double reference_s = reference.measure();
    passes.push_back(run_sim_pass(s, input, nullptr));
    const SimPass& pass = passes.back();
    check_sim_pass(s, input, pass, report);
    throughput.add(pass.vms, pass.jobs, pass.run_s, reference_s);
    timed_setup(set_up, setup_times);
    step_s.push_back(seconds_since(step));
  } while (passes.size() < kOutcomeInputs ||
           budget.fits(o.trace ? 0.5 : 1.0, median(step_s),
                       2.0 * median(step_s)));
  const double rss_mb = peak_rss_mb();
  const std::vector<SimPass> outcomes(passes.begin(),
                                      passes.begin() + kOutcomeInputs);
  if (o.workload == "paper_matrix") {
    for (const SimPass& pass : outcomes) {
      check_paper_shape(s, pass, report.checks);
    }
  }

  // Input 0 again, untraced and then traced: both must repeat the first
  // pass bit for bit. With --trace 1, traced passes then continue over
  // the outcome inputs, for the per-layer numbers.
  input = make_input(s, o, 0);
  const SimPass repeat = run_sim_pass(s, input, nullptr);
  check_repeat(s, repeat, passes.front(), "untraced pass", report.checks);
  SimLayers layers;
  std::vector<double> traced_s;
  std::vector<double> traced_ratio;  ///< traced ÷ untraced s, same input
  std::vector<double> traced_step_s;
  do {
    const Clock::time_point step = Clock::now();
    const std::size_t index = traced_s.size() % kOutcomeInputs;
    if (input.index != index) {
      input = make_input(s, o, index);
    }
    const SimPass pass = run_sim_pass(s, input, &layers);
    check_repeat(s, pass, passes[index], "traced pass", report.checks);
    traced_s.push_back(pass.run_s);
    traced_ratio.push_back(pass.run_s / passes[index].run_s);
    traced_step_s.push_back(seconds_since(step));
  } while (o.trace && budget.fits(1.0, median(traced_step_s), 0.0));

  std::vector<double> pass_s;
  for (const SimPass& pass : passes) {
    pass_s.push_back(pass.run_s);
  }
  log_pass_times("untraced passes", pass_s);
  log_pass_times("traced passes", traced_s);
  throughput.report(report, o.trace);
  if (o.trace) {
    set_layer_metrics(s, outcomes, layers, report);
    set_setup_metrics(report, setup_times, true);
    report.set("obs.overhead_ratio", median(traced_ratio));
    return report;
  }

  double makespan_s = 0.0;
  double goodput = 0.0;
  double runs = 0.0;
  for (const SimPass& pass : outcomes) {
    for (const datacenter::SimMetrics& m : pass.metrics) {
      makespan_s += m.makespan_s;
      goodput += m.goodput_fraction;
      runs += 1.0;
    }
  }
  set_setup_metrics(report, setup_times, false);
  report.set("peak_rss_mb", rss_mb);
  report.set("makespan_s", makespan_s / runs);
  report.set("goodput_fraction", goodput / runs);
  return report;
}

}  // namespace aeva::e2e
