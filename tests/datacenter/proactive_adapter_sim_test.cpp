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
///
/// The simulator hands the allocator a core::ViewDelta with every call, so
/// the default run syncs only the changed servers. The same allocator
/// behind a decorator that drops the delta walks the whole view on every
/// call; the two paths must agree bit for bit — plain PA-1, rack spread
/// under faults, and a snapshot resume — and one allocator shared by two
/// interleaved simulations must answer each as a private one would.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/proactive.hpp"
#include "datacenter/failure.hpp"
#include "datacenter/simulator.hpp"
#include "datacenter/topology.hpp"
#include "obs/session.hpp"
#include "persist/snapshot.hpp"
#include "testing/full_walk.hpp"
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

/// An observed PA-1 allocator and its `pa.*` counters.
struct ObservedPa {
  std::shared_ptr<obs::Session> session;
  std::optional<core::ProactiveAllocator> allocator;

  explicit ObservedPa(core::ProactiveConfig config) {
    obs::ObsConfig obs_on;
    obs_on.enabled = true;
    session = obs::Session::create(obs_on);
    config.obs = session;
    allocator.emplace(testing::shared_db(), config);
  }

  std::uint64_t counter(const char* name) const {
    return session->metrics().counter(name).value();
  }
};

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

/// Runs `workload` through the delta path and the full-walk path and
/// expects bit-identical metrics and snapshots; the delta path must walk
/// the view only on its first call.
void expect_delta_parity(const PreparedWorkload& workload,
                         const CloudConfig& base,
                         const core::ProactiveConfig& config) {
  const auto run = [&](const core::Allocator& allocator) {
    SimRun out;
    CloudConfig cloud = base;
    cloud.snapshot.every_s = 1500.0;
    cloud.snapshot.hook = [&out](const persist::SimSnapshot& snapshot) {
      out.snapshots.push_back(persist::encode_snapshot(snapshot));
    };
    out.metrics =
        Simulator(testing::shared_db(), cloud).run(workload, allocator);
    return out;
  };
  const ObservedPa delta(config);
  const ObservedPa walk(config);
  const SimRun got = run(*delta.allocator);
  const SimRun want = run(testing::FullWalkAllocator(*walk.allocator));

  expect_identical(got.metrics, want.metrics);
  ASSERT_EQ(got.snapshots.size(), want.snapshots.size());
  EXPECT_GE(want.snapshots.size(), 2u);
  for (std::size_t i = 0; i < got.snapshots.size(); ++i) {
    EXPECT_TRUE(got.snapshots[i] == want.snapshots[i]) << "snapshot " << i;
  }
  const std::uint64_t calls = delta.counter("pa.allocate.calls");
  EXPECT_EQ(calls, walk.counter("pa.allocate.calls"));
  EXPECT_GE(calls, workload.jobs.size());
  EXPECT_EQ(walk.counter("pa.fleet.walks"), calls);
  EXPECT_EQ(delta.counter("pa.fleet.walks"), 1u)
      << "the delta path walks the view only on its first call";
  EXPECT_EQ(delta.counter("pa.fleet.resyncs"),
            walk.counter("pa.fleet.resyncs"));
}

TEST_P(ProactiveAdapterSim, ChangedIdsMatchFullWalkOnPlainPa1) {
  core::ProactiveConfig config;
  config.alpha = 1.0;  // PA-1
  CloudConfig cloud;
  cloud.server_count = kServers;
  expect_delta_parity(busy_workload(GetParam()), cloud, config);
}

TEST_P(ProactiveAdapterSim, ChangedIdsMatchFullWalkUnderRackSpreadAndFaults) {
  const Topology topo =
      make_synthetic_topology(SyntheticTopologyConfig{kServers, 10, 2, 1});
  core::ProactiveConfig config;
  config.alpha = 1.0;  // PA-1
  config.degrade_to_first_fit = GetParam() % 2 == 0;
  config.spread = spread_by_rack(topo, 2);
  expect_delta_parity(busy_workload(GetParam()),
                      faulty_cloud(topo, GetParam()), config);
}

TEST_P(ProactiveAdapterSim, ResumeOnTheDeltaPathMatchesTheUninterruptedRun) {
  const Topology topo =
      make_synthetic_topology(SyntheticTopologyConfig{kServers, 10, 2, 1});
  const PreparedWorkload workload = busy_workload(GetParam());
  core::ProactiveConfig config;
  config.alpha = 1.0;  // PA-1
  config.spread = spread_by_rack(topo, 2);
  CloudConfig cloud = faulty_cloud(topo, GetParam());
  cloud.snapshot.every_s = 1500.0;
  std::vector<persist::SimSnapshot> snapshots;
  cloud.snapshot.hook = [&snapshots](const persist::SimSnapshot& snapshot) {
    snapshots.push_back(snapshot);
  };
  const ObservedPa pa(config);
  const SimMetrics whole =
      Simulator(testing::shared_db(), cloud).run(workload, *pa.allocator);
  ASSERT_GE(snapshots.size(), 2u);
  const persist::SimSnapshot mid = snapshots[snapshots.size() / 2];

  cloud.snapshot = SnapshotConfig{};
  const Simulator sim(testing::shared_db(), cloud);
  // The allocator that ran the whole simulation follows that (finished)
  // view; the restored fleet is a new view, so it walks once and then
  // continues on deltas. A fresh allocator and the full-walk path agree.
  const std::uint64_t walks_before = pa.counter("pa.fleet.walks");
  expect_identical(sim.resume(workload, *pa.allocator, mid), whole);
  EXPECT_EQ(pa.counter("pa.fleet.walks"), walks_before + 1);
  const ObservedPa fresh(config);
  expect_identical(sim.resume(workload, *fresh.allocator, mid), whole);
  expect_identical(
      sim.resume(workload, testing::FullWalkAllocator(*fresh.allocator), mid),
      whole);
}

TEST_P(ProactiveAdapterSim, SharedAllocatorAnswersInterleavedSimulations) {
  // Simulation A (the faulty rack fleet) lends its allocator to a second,
  // smaller simulation B every 40 intervals, between two of its own
  // calls. Each switch must be noticed: a delta that does not continue
  // the view the allocator's fleet mirrors is never applied.
  const Topology topo =
      make_synthetic_topology(SyntheticTopologyConfig{kServers, 10, 2, 1});
  const PreparedWorkload workload_a = busy_workload(GetParam());
  PreparedWorkload workload_b = busy_workload(GetParam() + 100);
  workload_b.jobs.resize(60);
  workload_b.total_vms = 0;
  workload_b.vm_mix = workload::ClassCounts{};
  for (const JobRequest& job : workload_b.jobs) {
    workload_b.total_vms += job.vm_count;
    workload_b.vm_mix.of(job.profile) += job.vm_count;
  }
  CloudConfig cloud_b;
  cloud_b.server_count = 60;
  const Simulator sim_a(testing::shared_db(), faulty_cloud(topo, GetParam()));
  const Simulator sim_b(testing::shared_db(), cloud_b);
  core::ProactiveConfig config;
  config.alpha = 1.0;  // PA-1

  const core::ProactiveAllocator alone_a(testing::shared_db(), config);
  const SimMetrics want_a = sim_a.run(workload_a, alone_a);
  const core::ProactiveAllocator alone_b(testing::shared_db(), config);
  const SimMetrics want_b = sim_b.run(workload_b, alone_b);

  const core::ProactiveAllocator shared(testing::shared_db(), config);
  std::size_t intervals = 0;
  std::vector<SimMetrics> got_b;
  const SimMetrics got_a = sim_a.run(
      workload_a, shared, [&](double, double, const std::vector<double>&) {
        if (++intervals % 40 == 0) {
          got_b.push_back(sim_b.run(workload_b, shared));
        }
      });
  expect_identical(got_a, want_a);
  ASSERT_GE(got_b.size(), 3u);
  for (const SimMetrics& b : got_b) {
    expect_identical(b, want_b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProactiveAdapterSim,
                         ::testing::Values<std::uint64_t>(11, 12, 13));

}  // namespace
}  // namespace aeva::datacenter
