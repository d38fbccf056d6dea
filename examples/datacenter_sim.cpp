/// Example: trace-driven cloud simulation under a chosen strategy.
///
/// Builds the empirical model database from the (simulated) testbed
/// campaign, synthesizes an EGEE-like workload, and replays it on a cloud
/// of rack servers under one of the paper's allocation strategies.
///
/// Usage:
///   datacenter_sim [--strategy FF|FF-2|FF-3|PA-1|PA-0|PA-0.5]
///                  [--servers 60] [--vms 10000] [--seed 2026]
///                  [--obs] [--trace-out=run.jsonl] [--chrome-out=run.json]
///                  [--metrics-out=metrics.json]
///                  [--snapshot-every=3600] [--snapshot-out=run.snap]
///                  [--restore-from=run.snap]
///                  [--final-metrics-out=final.json]
///                  [--snapshot-sleep-ms=0]
///
/// `--obs`/`--trace-out`/`--chrome-out`/`--metrics-out` turn on the
/// observability layer (docs/OBSERVABILITY.md): `--obs` collects and
/// prints a metrics summary, the `*-out` options export the trace/metrics
/// to files (each implies `--obs`).
///
/// `--snapshot-every` periodically checkpoints the full simulator state to
/// `--snapshot-out` (crash-safe: temp + fsync + rename), and
/// `--restore-from` resumes a killed run from such a checkpoint with
/// bit-identical final metrics (docs/RESILIENCE.md, "Process-level
/// durability"). `--final-metrics-out` writes the run's SimMetrics as
/// round-trip-exact JSON, so a resumed run can be diffed byte-for-byte
/// against an uninterrupted reference (tools/kill_resume_smoke.sh).
/// `--snapshot-sleep-ms` holds the process for N real milliseconds at
/// every checkpoint — the simulation itself is untouched (checkpoints are
/// not events), it only stretches wall time so the smoke test can SIGKILL
/// the process reliably *between* two checkpoints.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "core/first_fit.hpp"
#include "core/proactive.hpp"
#include "datacenter/simulator.hpp"
#include "modeldb/campaign.hpp"
#include "obs/export.hpp"
#include "obs/session.hpp"
#include "persist/snapshot.hpp"
#include "trace/generator.hpp"
#include "trace/prepare.hpp"
#include "util/args.hpp"
#include "util/atomic_file.hpp"
#include "util/strings.hpp"

namespace {

std::unique_ptr<aeva::core::Allocator> make_strategy(
    const std::string& name, const aeva::modeldb::ModelDatabase& db,
    std::shared_ptr<aeva::obs::Session> obs) {
  using namespace aeva::core;
  if (name == "FF") return std::make_unique<FirstFitAllocator>(1);
  if (name == "FF-2") return std::make_unique<FirstFitAllocator>(2);
  if (name == "FF-3") return std::make_unique<FirstFitAllocator>(3);
  ProactiveConfig config;
  config.obs = std::move(obs);
  if (name == "PA-1") {
    config.alpha = 1.0;
  } else if (name == "PA-0") {
    config.alpha = 0.0;
  } else if (name == "PA-0.5") {
    config.alpha = 0.5;
  } else {
    throw std::invalid_argument("unknown strategy: " + name);
  }
  return std::make_unique<ProactiveAllocator>(db, config);
}

/// Round-trip-exact (%.17g) JSON rendering of every scalar SimMetrics
/// field, in declaration order. Deliberately byte-stable so the
/// kill-and-resume smoke test can `cmp` a resumed run against an
/// uninterrupted reference.
std::string final_metrics_json(const aeva::datacenter::SimMetrics& m) {
  const auto num = [](double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return std::string(buffer);
  };
  std::ostringstream out;
  out << "{\n"
      << "  \"makespan_s\": " << num(m.makespan_s) << ",\n"
      << "  \"energy_j\": " << num(m.energy_j) << ",\n"
      << "  \"sla_violation_pct\": " << num(m.sla_violation_pct) << ",\n"
      << "  \"jobs\": " << m.jobs << ",\n"
      << "  \"vms\": " << m.vms << ",\n"
      << "  \"sla_violations\": " << m.sla_violations << ",\n"
      << "  \"mean_response_s\": " << num(m.mean_response_s) << ",\n"
      << "  \"mean_wait_s\": " << num(m.mean_wait_s) << ",\n"
      << "  \"mean_busy_servers\": " << num(m.mean_busy_servers) << ",\n"
      << "  \"peak_busy_servers\": " << num(m.peak_busy_servers) << ",\n"
      << "  \"servers_powered\": " << m.servers_powered << ",\n"
      << "  \"migrations\": " << m.migrations << ",\n"
      << "  \"migration_transfer_s\": " << num(m.migration_transfer_s)
      << ",\n"
      << "  \"failures\": " << m.failures << ",\n"
      << "  \"vm_restarts\": " << m.vm_restarts << ",\n"
      << "  \"vms_abandoned\": " << m.vms_abandoned << ",\n"
      << "  \"lost_work_s\": " << num(m.lost_work_s) << ",\n"
      << "  \"goodput_fraction\": " << num(m.goodput_fraction) << ",\n"
      << "  \"fallback_allocations\": " << m.fallback_allocations << ",\n"
      << "  \"rejects_by_reason\": {";
  for (std::size_t i = 0; i < aeva::core::kRejectReasonCount; ++i) {
    out << (i == 0 ? "" : ", ") << '"'
        << aeva::core::to_string(static_cast<aeva::core::RejectReason>(i))
        << "\": " << m.rejects_by_reason[i];
  }
  out << "}\n"
      << "}\n";
  return out.str();
}

/// Final-report table of allocator rejection events, one row per reason
/// that fired, with its retryable/terminal classification.
std::string reject_reason_table(const aeva::datacenter::SimMetrics& m) {
  std::ostringstream out;
  std::size_t total = 0;
  for (const std::size_t tally : m.rejects_by_reason) {
    total += tally;
  }
  out << "  rejections      : " << total << " event"
      << (total == 1 ? "" : "s") << "\n";
  for (std::size_t i = 0; i < aeva::core::kRejectReasonCount; ++i) {
    if (m.rejects_by_reason[i] == 0) {
      continue;
    }
    const auto reason = static_cast<aeva::core::RejectReason>(i);
    out << "    " << aeva::core::to_string(reason) << " ("
        << aeva::core::retry_class(reason)
        << "): " << m.rejects_by_reason[i] << "\n";
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aeva;
  const util::Args args(
      argc, argv,
      "trace-driven cloud simulation under one of the paper's strategies",
      {
          {"strategy", "NAME", "FF | FF-2 | FF-3 | PA-1 | PA-0 | PA-0.5"},
          {"servers", "N", "cloud size in rack servers"},
          {"vms", "N", "target workload size in VMs"},
          {"seed", "N", "workload synthesis seed"},
          {"obs", "", "collect and print an observability summary"},
          {"trace-out", "path", "export the event trace as JSONL"},
          {"chrome-out", "path", "export a chrome://tracing trace"},
          {"metrics-out", "path", "export the obs metrics as JSON"},
          {"snapshot-every", "seconds",
           "checkpoint the simulator state periodically"},
          {"snapshot-out", "path", "checkpoint target file"},
          {"restore-from", "path", "resume from a checkpoint file"},
          {"final-metrics-out", "path",
           "write the final SimMetrics as round-trip-exact JSON"},
          {"snapshot-sleep-ms", "N",
           "hold the process N real ms at every checkpoint (smoke tests)"},
      });
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }
  const std::string strategy_name = args.get_string("strategy", "PA-0.5");
  const int servers = static_cast<int>(args.get_int("servers", 60));
  const int target_vms = static_cast<int>(args.get_int("vms", 10000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2026));
  const double snapshot_every = args.get_double("snapshot-every", 0.0);
  const std::string snapshot_out = args.get_string("snapshot-out", "");
  const std::string restore_from = args.get_string("restore-from", "");
  const std::string final_metrics_out =
      args.get_string("final-metrics-out", "");
  const long long snapshot_sleep_ms = args.get_int("snapshot-sleep-ms", 0);

  obs::ObsConfig obs_config;
  obs_config.trace_jsonl_path = args.get_string("trace-out", "");
  obs_config.chrome_trace_path = args.get_string("chrome-out", "");
  obs_config.metrics_json_path = args.get_string("metrics-out", "");
  obs_config.enabled = args.has("obs") ||
                       !obs_config.trace_jsonl_path.empty() ||
                       !obs_config.chrome_trace_path.empty() ||
                       !obs_config.metrics_json_path.empty();
  const std::shared_ptr<obs::Session> obs = obs::Session::create(obs_config);

  std::cout << "building model database from the testbed campaign...\n";
  modeldb::CampaignConfig campaign_config;
  campaign_config.server = testbed::testbed_server();
  const modeldb::ModelDatabase db =
      modeldb::Campaign(campaign_config).build();
  std::cout << "  " << db.size() << " records, grid extent ("
            << db.grid_extent().cpu << "," << db.grid_extent().mem << ","
            << db.grid_extent().io << ")\n";

  std::cout << "synthesizing and preparing the EGEE-like workload...\n";
  util::Rng rng(seed);
  trace::GeneratorConfig gen;
  trace::SwfTrace raw = trace::generate_egee_like(gen, rng);
  const trace::CleanStats cleaned = trace::clean(raw);
  std::cout << "  cleaned: " << cleaned.failed << " failed, "
            << cleaned.cancelled << " cancelled, " << cleaned.anomalies
            << " anomalies removed; " << raw.jobs.size() << " jobs kept\n";

  trace::PreparationConfig prep;
  prep.target_total_vms = target_vms;
  for (const workload::ProfileClass profile : workload::kAllProfileClasses) {
    prep.solo_time_s[static_cast<std::size_t>(profile)] =
        db.base().of(profile).solo_time_s;
  }
  const trace::PreparedWorkload workload =
      trace::prepare_workload(raw, prep, rng);
  std::cout << "  " << workload.jobs.size() << " job requests, "
            << workload.total_vms << " VMs (CPU/MEM/IO = "
            << workload.vm_mix.cpu << "/" << workload.vm_mix.mem << "/"
            << workload.vm_mix.io << ")\n";

  const auto strategy = make_strategy(strategy_name, db, obs);
  datacenter::CloudConfig cloud;
  cloud.server_count = servers;
  cloud.obs = obs;
  cloud.snapshot.every_s = snapshot_every;
  cloud.snapshot.path = snapshot_out;
  if (snapshot_sleep_ms > 0) {
    cloud.snapshot.hook = [snapshot_sleep_ms](const persist::SimSnapshot&) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(snapshot_sleep_ms));
    };
  }
  const datacenter::Simulator sim(db, cloud);

  datacenter::SimMetrics metrics;
  if (!restore_from.empty()) {
    std::cout << "restoring checkpoint " << restore_from << "...\n";
    const persist::SimSnapshot snapshot =
        persist::read_snapshot_file(restore_from);
    std::cout << "resuming strategy " << strategy->name() << " on "
              << servers << " servers from t=" << snapshot.now << " s...\n";
    metrics = sim.resume(workload, *strategy, snapshot);
  } else {
    std::cout << "simulating strategy " << strategy->name() << " on "
              << servers << " servers...\n";
    metrics = sim.run(workload, *strategy);
  }

  std::cout << "\nresults (" << strategy->name() << ", " << servers
            << " servers):\n"
            << "  makespan        : " << util::format_fixed(metrics.makespan_s, 0)
            << " s\n"
            << "  energy          : " << util::format_fixed(metrics.energy_j / 1e6, 2)
            << " MJ\n"
            << "  SLA violations  : "
            << util::format_fixed(metrics.sla_violation_pct, 2) << " % ("
            << metrics.sla_violations << "/" << metrics.vms << " VMs)\n"
            << "  mean response   : "
            << util::format_fixed(metrics.mean_response_s, 0) << " s\n"
            << "  mean wait       : "
            << util::format_fixed(metrics.mean_wait_s, 0) << " s\n"
            << "  busy servers    : mean "
            << util::format_fixed(metrics.mean_busy_servers, 1) << ", peak "
            << util::format_fixed(metrics.peak_busy_servers, 0) << "\n"
            << reject_reason_table(metrics);

  if (obs != nullptr) {
    std::cout << "\nobservability snapshot ("
              << obs->trace().size() << " trace events):\n"
              << obs::metrics_summary_table(obs->metrics().snapshot());
    obs->export_files();
    if (!obs_config.trace_jsonl_path.empty()) {
      std::cout << "wrote " << obs_config.trace_jsonl_path << "\n";
    }
    if (!obs_config.chrome_trace_path.empty()) {
      std::cout << "wrote " << obs_config.chrome_trace_path
                << " (open in chrome://tracing)\n";
    }
    if (!obs_config.metrics_json_path.empty()) {
      std::cout << "wrote " << obs_config.metrics_json_path << "\n";
    }
  }
  if (!final_metrics_out.empty()) {
    util::write_file_atomic(final_metrics_out, final_metrics_json(metrics));
    std::cout << "wrote " << final_metrics_out << "\n";
  }
  return 0;
}
