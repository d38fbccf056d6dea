/// \file proactive_adapter_sim_test.cpp
/// Simulator-level differential test of ProactiveAllocator under faults.
/// PA-1 runs on a 200-server rack/PDU/ToR fleet with sampled and scripted
/// server crashes, PDU feed faults and ToR isolations, checkpoint-restart
/// recovery and a snapshot hook — once without spread and once with rack
/// spread (the shape of the `sim_faults_1k` benchmark workload). The
/// default allocator (a FleetState synced to the simulator's fleet view by
/// crash/repair/allocate/deallocate deltas) and the plain reference scorer
/// (testing/reference_pa.hpp) must produce bit-identical SimMetrics and
/// bit-identical encoded snapshots.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/proactive.hpp"
#include "datacenter/failure.hpp"
#include "datacenter/simulator.hpp"
#include "datacenter/topology.hpp"
#include "obs/session.hpp"
#include "persist/snapshot.hpp"
#include "testing/reference_pa.hpp"
#include "testing/shared_db.hpp"
#include "trace/prepare.hpp"
#include "util/rng.hpp"

namespace aeva::datacenter {
namespace {

using trace::JobRequest;
using trace::PreparedWorkload;
using workload::ProfileClass;

constexpr int kServers = 200;

/// Bursty arrivals dense enough to keep a few dozen servers busy, so the
/// faults hit residents.
PreparedWorkload busy_workload(std::uint64_t seed) {
  util::Rng rng(seed);
  PreparedWorkload workload;
  double t = 0.0;
  for (long long id = 1; id <= 500; ++id) {
    JobRequest job;
    job.id = id;
    job.submit_s = t;
    job.profile = static_cast<ProfileClass>(rng.uniform_int(0, 2));
    job.vm_count = static_cast<int>(rng.uniform_int(1, 4));
    job.runtime_scale = rng.uniform(0.4, 2.5);
    job.deadline_s = rng.uniform(3000.0, 20000.0);
    job.max_exec_stretch = rng.uniform(1.5, 3.0);
    workload.total_vms += job.vm_count;
    workload.vm_mix.of(job.profile) += job.vm_count;
    workload.jobs.push_back(job);
    t += rng.exponential(1.0 / 10.0);
  }
  return workload;
}

CloudConfig faulty_cloud(const Topology& topo, std::uint64_t seed) {
  CloudConfig cloud;
  cloud.server_count = kServers;
  FailureConfig& failure = cloud.failure;
  failure.enabled = true;
  failure.seed = seed;
  failure.mtbf_s = 3e4;
  failure.mttr_s = 1200.0;
  failure.topology = &topo;
  failure.domains.pdu_mtbf_s = 1.5e4;
  failure.domains.pdu_mttr_s = 1500.0;
  failure.domains.tor_mtbf_s = 1e4;
  failure.domains.tor_mttr_s = 600.0;
  failure.recovery.policy = RecoveryPolicy::kCheckpointRestart;
  failure.recovery.checkpoint_period_s = 600.0;
  // Scripted domain faults early in the run, where the fleet is busy, so
  // every seed covers a PDU crash-and-repair and a ToR vanish-and-return.
  FailureEvent pdu;
  pdu.kind = FailureKind::kPduFault;
  pdu.server = 0;
  pdu.at_s = 900.0;
  pdu.duration_s = 1200.0;
  FailureEvent tor;
  tor.kind = FailureKind::kTorFault;
  tor.server = 1;
  tor.at_s = 1300.0;
  tor.duration_s = 500.0;
  failure.script = {pdu, tor};
  return cloud;
}

struct SimRun {
  SimMetrics metrics;
  std::vector<std::string> snapshots;  ///< encoded, in capture order
};

SimRun run_with(const PreparedWorkload& workload, const Topology& topo,
                std::uint64_t seed, const core::Allocator& allocator) {
  SimRun run;
  CloudConfig cloud = faulty_cloud(topo, seed);
  cloud.snapshot.every_s = 1500.0;
  cloud.snapshot.hook = [&run](const persist::SimSnapshot& snapshot) {
    run.snapshots.push_back(persist::encode_snapshot(snapshot));
  };
  run.metrics = Simulator(testing::shared_db(), cloud).run(workload, allocator);
  return run;
}

void expect_identical(const SimMetrics& a, const SimMetrics& b) {
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.sla_violation_pct, b.sla_violation_pct);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.vms, b.vms);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
  EXPECT_EQ(a.mean_response_s, b.mean_response_s);
  EXPECT_EQ(a.mean_wait_s, b.mean_wait_s);
  EXPECT_EQ(a.mean_job_wait_s, b.mean_job_wait_s);
  EXPECT_EQ(a.mean_busy_servers, b.mean_busy_servers);
  EXPECT_EQ(a.peak_busy_servers, b.peak_busy_servers);
  EXPECT_EQ(a.servers_powered, b.servers_powered);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.vm_restarts, b.vm_restarts);
  EXPECT_EQ(a.vms_abandoned, b.vms_abandoned);
  EXPECT_EQ(a.lost_work_s, b.lost_work_s);
  EXPECT_EQ(a.goodput_fraction, b.goodput_fraction);
  EXPECT_EQ(a.correlated_failures, b.correlated_failures);
  EXPECT_EQ(a.blast_radius_vms_max, b.blast_radius_vms_max);
  EXPECT_EQ(a.blast_radius_vms_mean, b.blast_radius_vms_mean);
  EXPECT_EQ(a.lost_work_correlated_s, b.lost_work_correlated_s);
  EXPECT_EQ(a.fallback_allocations, b.fallback_allocations);
  EXPECT_EQ(a.rejects_by_reason, b.rejects_by_reason);
}

class ProactiveAdapterSim : public ::testing::TestWithParam<std::uint64_t> {};

/// Runs PA-1 under `spread` through the allocator and the reference and
/// compares metrics and snapshots bit for bit.
void expect_parity(std::uint64_t seed, bool rack_spread) {
  const Topology topo =
      make_synthetic_topology(SyntheticTopologyConfig{kServers, 10, 2, 1});
  const PreparedWorkload workload = busy_workload(seed);

  core::ProactiveConfig config;
  config.alpha = 1.0;  // PA-1
  config.degrade_to_first_fit = seed % 2 == 0;
  if (rack_spread) {
    config.spread = spread_by_rack(topo, 2);
  }
  core::ProactiveConfig observed = config;
  obs::ObsConfig obs_on;
  obs_on.enabled = true;
  observed.obs = obs::Session::create(obs_on);
  const core::ProactiveAllocator allocator(testing::shared_db(), observed);
  const testing::ReferenceProactiveAllocator reference(testing::shared_db(),
                                                       config);

  const SimRun got = run_with(workload, topo, seed, allocator);
  const SimRun want = run_with(workload, topo, seed, reference);

  // The run must exercise what this test exists for.
  EXPECT_GT(want.metrics.failures, 0u);
  EXPECT_GT(want.metrics.correlated_failures, 0u);
  EXPECT_GT(want.metrics.vm_restarts, 0u);
  EXPECT_GE(want.snapshots.size(), 2u);

  expect_identical(got.metrics, want.metrics);
  ASSERT_EQ(got.snapshots.size(), want.snapshots.size());
  for (std::size_t i = 0; i < got.snapshots.size(); ++i) {
    EXPECT_TRUE(got.snapshots[i] == want.snapshots[i]) << "snapshot " << i;
  }

  // Crashes, repairs and ToR returns with residents synced by deltas:
  // the fleet was rebuilt only on the first call and for what deltas
  // cannot express (a powered but empty server returning from a ToR
  // isolation).
  obs::MetricsRegistry& m = observed.obs->metrics();
  const std::uint64_t calls = m.counter("pa.allocate.calls").value();
  const std::uint64_t resyncs = m.counter("pa.fleet.resyncs").value();
  EXPECT_GT(calls, 500u);
  EXPECT_GE(resyncs, 1u);
  EXPECT_LT(resyncs * 10, calls);
}

TEST_P(ProactiveAdapterSim, FaultyRunMatchesReferenceScorer) {
  expect_parity(GetParam(), false);
}

TEST_P(ProactiveAdapterSim, RackSpreadRunMatchesReferenceScorer) {
  expect_parity(GetParam(), true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProactiveAdapterSim,
                         ::testing::Values<std::uint64_t>(11, 12, 13));

}  // namespace
}  // namespace aeva::datacenter
