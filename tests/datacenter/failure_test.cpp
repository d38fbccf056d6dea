/// Fault injection & recovery semantics (docs/RESILIENCE.md): scripted and
/// sampled failures, the three failure modes, the recovery policies, and
/// the bit-identity guarantee when the subsystem is disabled.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "core/first_fit.hpp"
#include "datacenter/failure.hpp"
#include "datacenter/simulator.hpp"
#include "datacenter/topology.hpp"
#include "obs/session.hpp"
#include "testing/shared_db.hpp"

namespace aeva::datacenter {
namespace {

using trace::JobRequest;
using trace::PreparedWorkload;
using workload::ProfileClass;

const modeldb::ModelDatabase& db() { return testing::shared_db(); }

double solo_s() { return db().base().of(ProfileClass::kCpu).solo_time_s; }

/// Power of a server hosting one solo CPU VM (record mean, floored at the
/// 125 W powered-on baseline).
double solo_power_w() {
  workload::ClassCounts mix;
  ++mix.of(ProfileClass::kCpu);
  return std::max(db().estimate(mix).avg_power_w(), 125.0);
}

PreparedWorkload one_vm(double runtime_scale = 1.0) {
  PreparedWorkload workload;
  JobRequest job;
  job.id = 1;
  job.submit_s = 0.0;
  job.profile = ProfileClass::kCpu;
  job.vm_count = 1;
  job.runtime_scale = runtime_scale;
  job.deadline_s = 1e12;
  workload.jobs.push_back(job);
  workload.total_vms = 1;
  return workload;
}

PreparedWorkload staggered(int jobs_n) {
  PreparedWorkload workload;
  for (int i = 0; i < jobs_n; ++i) {
    JobRequest job;
    job.id = i + 1;
    job.submit_s = i * 15.0;
    job.profile = ProfileClass::kCpu;
    job.vm_count = 1;
    job.runtime_scale = (i % 3 == 0) ? 2.0 : 0.7;
    job.deadline_s = 1e12;
    workload.jobs.push_back(job);
    workload.total_vms += 1;
  }
  return workload;
}

CloudConfig cloud_of(int servers) {
  CloudConfig cloud;
  cloud.server_count = servers;
  return cloud;
}

FailureEvent crash(int server, double at_s, double repair_s) {
  FailureEvent event;
  event.kind = FailureKind::kCrash;
  event.server = server;
  event.at_s = at_s;
  event.duration_s = repair_s;
  return event;
}

void expect_identical(const SimMetrics& a, const SimMetrics& b) {
  EXPECT_EQ(a.energy_j, b.energy_j);  // bitwise, not approximate
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.mean_response_s, b.mean_response_s);
  EXPECT_EQ(a.mean_wait_s, b.mean_wait_s);
  EXPECT_EQ(a.vms, b.vms);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
  EXPECT_EQ(a.servers_powered, b.servers_powered);
}

TEST(Failure, DisabledConfigIsBitIdentical) {
  // The resilience layer must be inert when disabled: a config carrying a
  // script, MTBF, and a recovery policy — but enabled = false — produces
  // the exact run a default config does (no RNG or accounting perturbation).
  const core::FirstFitAllocator ff(2);
  const SimMetrics plain =
      Simulator(db(), cloud_of(4)).run(staggered(10), ff);
  CloudConfig loaded = cloud_of(4);
  loaded.failure.script.push_back(crash(0, 5.0, 100.0));
  loaded.failure.mtbf_s = 100.0;
  loaded.failure.recovery.policy = RecoveryPolicy::kCheckpointRestart;
  const SimMetrics with_config =
      Simulator(db(), loaded).run(staggered(10), ff);
  expect_identical(plain, with_config);
  EXPECT_EQ(with_config.failures, 0u);
  EXPECT_EQ(with_config.vm_restarts, 0u);
  EXPECT_DOUBLE_EQ(with_config.lost_work_s, 0.0);
  EXPECT_DOUBLE_EQ(with_config.goodput_fraction, 1.0);
}

TEST(Failure, ScriptedCrashLosesHandComputedWork) {
  // One VM at rate 1/solo crashes a quarter of the way in; under
  // restart-from-zero the lost work is exactly 0.25 solo-seconds and the
  // VM re-runs in full on the surviving server.
  const double T = 0.25 * solo_s();
  CloudConfig cloud = cloud_of(2);
  cloud.failure.enabled = true;
  cloud.failure.script.push_back(crash(0, T, 1e12));  // never repaired
  const core::FirstFitAllocator ff(1);
  const SimMetrics m = Simulator(db(), cloud).run(one_vm(), ff);
  EXPECT_EQ(m.failures, 1u);
  EXPECT_EQ(m.vm_restarts, 1u);
  EXPECT_EQ(m.vms, 1u);
  EXPECT_NEAR(m.lost_work_s, 0.25 * solo_s(), 1e-6 * solo_s());
  EXPECT_NEAR(m.makespan_s, 1.25 * solo_s(), 1e-6 * solo_s());
  EXPECT_NEAR(m.goodput_fraction, 1.0 / 1.25, 1e-9);
  // Energy: one server drawing solo power for 0.25·solo, then the
  // replacement drawing the same for a full solo run.
  EXPECT_NEAR(m.energy_j, solo_power_w() * 1.25 * solo_s(),
              1e-6 * solo_power_w() * solo_s());
}

TEST(Failure, CheckpointRestartResumesFromBoundary) {
  // Tax 0 keeps the arithmetic exact: checkpoints at 0.1·solo intervals,
  // crash at 0.25·solo → the VM resumes from 0.2 and loses only 0.05.
  const double T = 0.25 * solo_s();
  CloudConfig cloud = cloud_of(2);
  cloud.failure.enabled = true;
  cloud.failure.script.push_back(crash(0, T, 1e12));
  cloud.failure.recovery.policy = RecoveryPolicy::kCheckpointRestart;
  cloud.failure.recovery.checkpoint_period_s = 0.1 * solo_s();
  cloud.failure.recovery.checkpoint_tax = 0.0;
  const core::FirstFitAllocator ff(1);
  const SimMetrics m = Simulator(db(), cloud).run(one_vm(), ff);
  EXPECT_EQ(m.vm_restarts, 1u);
  EXPECT_NEAR(m.lost_work_s, 0.05 * solo_s(), 1e-6 * solo_s());
  EXPECT_NEAR(m.makespan_s, (0.25 + 0.8) * solo_s(), 1e-6 * solo_s());
  EXPECT_NEAR(m.goodput_fraction, 1.0 / 1.05, 1e-9);
}

TEST(Failure, CheckpointTaxSlowsFailFreeRun) {
  CloudConfig cloud = cloud_of(1);
  cloud.failure.enabled = true;
  cloud.failure.recovery.policy = RecoveryPolicy::kCheckpointRestart;
  cloud.failure.recovery.checkpoint_tax = 0.10;
  const core::FirstFitAllocator ff(1);
  const SimMetrics m = Simulator(db(), cloud).run(one_vm(), ff);
  EXPECT_EQ(m.failures, 0u);
  EXPECT_NEAR(m.makespan_s, solo_s() / 0.9, 1e-6 * solo_s());
}

TEST(Failure, AbandonAfterRetriesDropsTheVm) {
  // max_retries = 0: the first loss abandons the VM; nothing completes,
  // but the simulation terminates and accounts the loss.
  CloudConfig cloud = cloud_of(1);
  cloud.failure.enabled = true;
  cloud.failure.script.push_back(crash(0, 0.5 * solo_s(), 1e12));
  cloud.failure.recovery.policy = RecoveryPolicy::kAbandonAfterRetries;
  cloud.failure.recovery.max_retries = 0;
  const core::FirstFitAllocator ff(1);
  const SimMetrics m = Simulator(db(), cloud).run(one_vm(), ff);
  EXPECT_EQ(m.failures, 1u);
  EXPECT_EQ(m.vms_abandoned, 1u);
  EXPECT_EQ(m.vm_restarts, 0u);
  EXPECT_EQ(m.vms, 0u);
  EXPECT_NEAR(m.lost_work_s, 0.5 * solo_s(), 1e-6 * solo_s());
  EXPECT_DOUBLE_EQ(m.goodput_fraction, 0.0);
}

TEST(Failure, AbandonReleasesWorkflowDependents) {
  PreparedWorkload workload = one_vm();
  JobRequest dependent;
  dependent.id = 2;
  dependent.submit_s = 1.0;
  dependent.profile = ProfileClass::kCpu;
  dependent.vm_count = 1;
  dependent.runtime_scale = 0.1;
  dependent.deadline_s = 1e12;
  dependent.depends_on = 1;
  workload.jobs.push_back(dependent);
  workload.total_vms = 2;

  CloudConfig cloud = cloud_of(2);
  cloud.failure.enabled = true;
  cloud.failure.script.push_back(crash(0, 0.5 * solo_s(), 1e12));
  cloud.failure.recovery.policy = RecoveryPolicy::kAbandonAfterRetries;
  cloud.failure.recovery.max_retries = 0;
  const core::FirstFitAllocator ff(1);
  const SimMetrics m = Simulator(db(), cloud).run(workload, ff);
  EXPECT_EQ(m.vms_abandoned, 1u);
  EXPECT_EQ(m.vms, 1u);  // the dependent still ran to completion
}

TEST(Failure, DegradeWindowSlowsThenRecovers) {
  // Rate halved over [0, 0.5·solo]: progress 0.25 inside the window, the
  // remaining 0.75 at full rate → completion at 1.25·solo.
  CloudConfig cloud = cloud_of(1);
  cloud.failure.enabled = true;
  FailureEvent degrade;
  degrade.kind = FailureKind::kDegrade;
  degrade.server = 0;
  degrade.at_s = 0.0;
  degrade.duration_s = 0.5 * solo_s();
  degrade.magnitude = 0.5;
  cloud.failure.script.push_back(degrade);
  const core::FirstFitAllocator ff(1);
  const SimMetrics m = Simulator(db(), cloud).run(one_vm(), ff);
  EXPECT_EQ(m.failures, 0u);  // degradation is not a crash
  EXPECT_EQ(m.vms, 1u);
  EXPECT_NEAR(m.makespan_s, 1.25 * solo_s(), 1e-6 * solo_s());
  EXPECT_DOUBLE_EQ(m.goodput_fraction, 1.0);
}

TEST(Failure, BrownoutCapsPowerProportionally) {
  // A cap at half the solo draw halves the progress rate; the energy under
  // the cap integrates to the same total (half power, twice the time).
  const double cap = 0.5 * solo_power_w();
  CloudConfig cloud = cloud_of(1);
  cloud.failure.enabled = true;
  FailureEvent brownout;
  brownout.kind = FailureKind::kBrownout;
  brownout.server = 0;
  brownout.at_s = 0.0;
  brownout.duration_s = 1e12;  // covers the whole run
  brownout.magnitude = cap;
  cloud.failure.script.push_back(brownout);
  const core::FirstFitAllocator ff(1);
  const SimMetrics m = Simulator(db(), cloud).run(one_vm(), ff);
  EXPECT_NEAR(m.makespan_s, 2.0 * solo_s(), 1e-6 * solo_s());
  EXPECT_NEAR(m.energy_j, cap * m.makespan_s, 1e-6 * cap * solo_s());
}

TEST(Failure, CrashedServerIsMaskedUntilRepair) {
  // Server 0 dies before the job arrives; first-fit must route to server 1
  // even though 0 comes first in the list.
  CloudConfig cloud = cloud_of(2);
  cloud.failure.enabled = true;
  cloud.failure.script.push_back(crash(0, 0.0, 1e12));
  cloud.record_completions = true;
  const core::FirstFitAllocator ff(1);
  const SimMetrics m = Simulator(db(), cloud).run(one_vm(), ff);
  ASSERT_EQ(m.completions.size(), 1u);
  EXPECT_EQ(m.completions.front().server, 1);
  EXPECT_EQ(m.failures, 1u);
  EXPECT_EQ(m.vm_restarts, 0u);  // nothing was running when it died
}

TEST(Failure, SingleServerCloudWaitsOutTheRepair) {
  // The only server is down when the job arrives: the queue must wait for
  // the repair instead of deadlocking, and the server returns cold.
  const double repair = 500.0;
  CloudConfig cloud = cloud_of(1);
  cloud.failure.enabled = true;
  cloud.failure.script.push_back(crash(0, 0.0, repair));
  const core::FirstFitAllocator ff(1);
  const SimMetrics m = Simulator(db(), cloud).run(one_vm(), ff);
  EXPECT_EQ(m.vms, 1u);
  EXPECT_NEAR(m.makespan_s, repair + solo_s(), 1e-6 * solo_s());
  EXPECT_NEAR(m.mean_wait_s, repair, 1e-6);
  EXPECT_EQ(m.servers_powered, 1u);
}

TEST(Failure, RestartCountsAgainstRetryBudget) {
  // Two crashes with max_retries = 1: the first loss restarts the VM, the
  // second abandons it.
  CloudConfig cloud = cloud_of(1);
  cloud.failure.enabled = true;
  cloud.failure.script.push_back(crash(0, 0.25 * solo_s(), 1.0));
  cloud.failure.script.push_back(crash(0, 0.5 * solo_s(), 1.0));
  cloud.failure.recovery.policy = RecoveryPolicy::kAbandonAfterRetries;
  cloud.failure.recovery.max_retries = 1;
  const core::FirstFitAllocator ff(1);
  const SimMetrics m = Simulator(db(), cloud).run(one_vm(), ff);
  EXPECT_EQ(m.failures, 2u);
  EXPECT_EQ(m.vm_restarts, 1u);
  EXPECT_EQ(m.vms_abandoned, 1u);
  EXPECT_EQ(m.vms, 0u);
}

TEST(Failure, SampledCrashesAreReproducible) {
  CloudConfig cloud = cloud_of(4);
  cloud.failure.enabled = true;
  cloud.failure.mtbf_s = 2000.0;
  cloud.failure.mttr_s = 300.0;
  const core::FirstFitAllocator ff(2);
  const Simulator sim(db(), cloud);
  const SimMetrics a = sim.run(staggered(12), ff);
  const SimMetrics b = sim.run(staggered(12), ff);
  expect_identical(a, b);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.vm_restarts, b.vm_restarts);
  EXPECT_EQ(a.lost_work_s, b.lost_work_s);
  EXPECT_GT(a.failures, 0u);
}

TEST(Failure, SampledCrashesFollowTheFailureSeed) {
  CloudConfig cloud = cloud_of(4);
  cloud.failure.enabled = true;
  cloud.failure.mtbf_s = 2000.0;
  cloud.failure.mttr_s = 300.0;
  const core::FirstFitAllocator ff(2);
  const SimMetrics a = Simulator(db(), cloud).run(staggered(12), ff);
  cloud.failure.seed = 7;
  const SimMetrics b = Simulator(db(), cloud).run(staggered(12), ff);
  EXPECT_TRUE(a.failures != b.failures || a.lost_work_s != b.lost_work_s ||
              a.makespan_s != b.makespan_s)
      << "different failure seeds should yield different fault histories";
}

TEST(Failure, MidTransferCrashOfDestinationAbortsCleanly) {
  // Satellite regression: a migration in flight toward a server that dies
  // mid-copy must abort cleanly — the VM stays whole on its source, the
  // reservation is dropped, and nothing is double-accounted. With crashes
  // scripted onto every server in turn (transfers slowed to hours), any
  // mis-accounting shows up as a lost VM, a stuck queue, or an invariant
  // failure.
  for (int victim = 0; victim < 8; ++victim) {
    PreparedWorkload workload;
    for (int i = 0; i < 12; ++i) {
      JobRequest job;
      job.id = i + 1;
      job.submit_s = i * 10.0;
      job.profile = ProfileClass::kCpu;
      job.vm_count = 1;
      job.runtime_scale = (i % 4 == 0) ? 3.0 : 0.5;
      job.deadline_s = 1e12;
      workload.jobs.push_back(job);
      workload.total_vms += 1;
    }
    CloudConfig cloud = cloud_of(8);
    cloud.migration.enabled = true;
    cloud.migration.check_interval_s = 300.0;
    cloud.migration.transfer_mbps = 0.01;  // transfers outlive the run
    cloud.failure.enabled = true;
    cloud.failure.script.push_back(crash(victim, 350.0, 1e12));
    const core::FirstFitAllocator ff(1);
    const SimMetrics m = Simulator(db(), cloud).run(workload, ff);
    EXPECT_EQ(m.vms + m.vms_abandoned, 12u) << "victim server " << victim;
    EXPECT_EQ(m.vms_abandoned, 0u) << "victim server " << victim;
    EXPECT_GE(m.goodput_fraction, 0.0);
    EXPECT_LE(m.goodput_fraction, 1.0);
  }
}

TEST(Failure, RejectsInvalidConfigs) {
  const core::FirstFitAllocator ff(1);
  CloudConfig bad = cloud_of(2);
  bad.failure.enabled = true;
  bad.failure.script.push_back(crash(5, 0.0, 1.0));  // server out of range
  EXPECT_THROW((void)Simulator(db(), bad).run(one_vm(), ff),
               std::invalid_argument);

  bad = cloud_of(2);
  bad.failure.enabled = true;
  FailureEvent degrade;
  degrade.kind = FailureKind::kDegrade;
  degrade.magnitude = 0.0;  // multiplier out of (0, 1]
  bad.failure.script.push_back(degrade);
  EXPECT_THROW((void)Simulator(db(), bad).run(one_vm(), ff),
               std::invalid_argument);

  bad = cloud_of(2);
  bad.failure.enabled = true;
  bad.failure.mtbf_s = 100.0;
  bad.failure.mttr_s = 0.0;  // sampling needs a positive MTTR
  EXPECT_THROW((void)Simulator(db(), bad).run(one_vm(), ff),
               std::invalid_argument);

  bad = cloud_of(2);
  bad.failure.enabled = true;
  bad.failure.recovery.checkpoint_tax = 1.0;  // out of [0, 1)
  EXPECT_THROW((void)Simulator(db(), bad).run(one_vm(), ff),
               std::invalid_argument);

  bad = cloud_of(2);
  bad.failure.enabled = true;
  bad.failure.recovery.max_retries = -1;
  EXPECT_THROW((void)Simulator(db(), bad).run(one_vm(), ff),
               std::invalid_argument);
}

TEST(WindowDeadlines, PopsLiveDeadlinesAscendingAndDropsStaleOnes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> down(4, 0);
  std::vector<double> repair_s(4, kInf);
  std::vector<double> degrade_until(4, -kInf);
  std::vector<double> brownout_until(4, -kInf);
  std::vector<double> tor_heal_s(2, kInf);
  WindowDeadlines deadlines(WindowDeadlines::Columns{
      &down, &repair_s, &degrade_until, &brownout_until, &tor_heal_s});
  deadlines.reserve();
  degrade_until[2] = 5.0;
  deadlines.on_window(2, 5.0);
  degrade_until[1] = 5.0;
  deadlines.on_window(1, 5.0);
  brownout_until[1] = 3.0;
  deadlines.on_window(1, 3.0);
  brownout_until[1] = 8.0;  // overwritten: the 3.0 entry goes stale
  deadlines.on_window(1, 8.0);
  down[3] = 1;
  repair_s[3] = 4.0;
  deadlines.on_repair(3);
  tor_heal_s[1] = 6.0;
  deadlines.on_heal(1);

  EXPECT_EQ(deadlines.next(0.0), 4.0) << "the stale 3.0 window is skipped";
  EXPECT_TRUE(deadlines.windows_due(4.0).empty());
  EXPECT_EQ(deadlines.repairs_due(4.0), std::vector<int>({3}));
  down[3] = 0;
  repair_s[3] = kInf;
  EXPECT_EQ(deadlines.next(4.0), 5.0);

  // A zero-length window opened at t = 5 is no future event: next(5)
  // steps over every window ending at 5 and the expiry pass reports them.
  degrade_until[0] = 5.0;
  deadlines.on_window(0, 5.0);
  EXPECT_EQ(deadlines.next(5.0), 6.0);
  EXPECT_EQ(deadlines.windows_due(5.0), std::vector<int>({0, 1, 2}));
  EXPECT_EQ(deadlines.heals_due(6.0), std::vector<int>({1}));

  // A restore re-derives the entries from the fields.
  tor_heal_s[1] = kInf;
  degrade_until = {-kInf, -kInf, -kInf, -kInf};
  WindowDeadlines restored(WindowDeadlines::Columns{
      &down, &repair_s, &degrade_until, &brownout_until, &tor_heal_s});
  restored.rebuild();
  EXPECT_EQ(restored.next(5.0), 8.0);
  EXPECT_EQ(restored.windows_due(8.0), std::vector<int>({1}));
}

TEST(FailureSchedule, MergesScriptInTimeOrder) {
  FailureConfig config;
  config.enabled = true;
  config.script.push_back(crash(1, 100.0, 5.0));
  config.script.push_back(crash(0, 50.0, 5.0));
  FailureSchedule schedule(config, 2, 0.0);
  EXPECT_DOUBLE_EQ(schedule.next_time(), 50.0);
  const auto first = schedule.pop_due(50.0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first.front().server, 0);
  EXPECT_DOUBLE_EQ(schedule.next_time(), 100.0);
}

TEST(FailureSchedule, DisabledConfigHasNoEvents) {
  FailureConfig config;
  config.script.push_back(crash(0, 1.0, 1.0));
  config.mtbf_s = 10.0;
  FailureSchedule schedule(config, 4, 0.0);
  EXPECT_TRUE(std::isinf(schedule.next_time()));
  EXPECT_TRUE(schedule.pop_due(1e18).empty());
}

TEST(FailureScript, RoundTripsThroughText) {
  std::vector<FailureEvent> events;
  events.push_back(crash(3, 120.5, 900.0));
  FailureEvent degrade;
  degrade.kind = FailureKind::kDegrade;
  degrade.server = 1;
  degrade.at_s = 10.0;
  degrade.duration_s = 60.0;
  degrade.magnitude = 0.25;
  events.push_back(degrade);
  FailureEvent brownout;
  brownout.kind = FailureKind::kBrownout;
  brownout.server = 0;
  brownout.at_s = 30.0;
  brownout.duration_s = 300.0;
  brownout.magnitude = 140.0;
  events.push_back(brownout);

  std::ostringstream out;
  write_failure_script(out, events);
  const std::vector<FailureEvent> parsed = parse_failure_script(out.str());
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, events[i].kind);
    EXPECT_EQ(parsed[i].server, events[i].server);
    EXPECT_DOUBLE_EQ(parsed[i].at_s, events[i].at_s);
    EXPECT_DOUBLE_EQ(parsed[i].duration_s, events[i].duration_s);
  }
}

// --- correlated failure domains --------------------------------------------

FailureEvent domain_fault(FailureKind kind, int domain, double at_s,
                          double window_s) {
  FailureEvent event;
  event.kind = kind;
  event.server = domain;
  event.at_s = at_s;
  event.duration_s = window_s;
  return event;
}

/// rack 0 = {0, 1} on pdu/tor 0, rack 1 = {2} on pdu/tor 1.
Topology small_topology() {
  return Topology::from_racks(
      {RackSpec{0, 0, 0, {0, 1}}, RackSpec{1, 1, 1, {2}}});
}

TEST(DomainFailure, PduFaultCrashesTheWholeFeed) {
  // The VM runs on server 0; feed 0 also powers the idle server 1. One
  // pdu event must crash both at once, and the blast radius counts only
  // the resident VM. The orphan restarts on server 2 (feed 1).
  const Topology topo = small_topology();
  const double T = 0.25 * solo_s();
  CloudConfig cloud = cloud_of(3);
  cloud.failure.enabled = true;
  cloud.failure.topology = &topo;
  cloud.failure.script.push_back(
      domain_fault(FailureKind::kPduFault, 0, T, 1e12));
  cloud.record_completions = true;
  const core::FirstFitAllocator ff(1);
  const SimMetrics m = Simulator(db(), cloud).run(one_vm(), ff);
  EXPECT_EQ(m.failures, 2u) << "both servers on the feed crash";
  EXPECT_EQ(m.correlated_failures, 1u) << "but it is one correlated fault";
  EXPECT_EQ(m.blast_radius_vms_max, 1u);
  EXPECT_DOUBLE_EQ(m.blast_radius_vms_mean, 1.0);
  EXPECT_EQ(m.vm_restarts, 1u);
  EXPECT_EQ(m.vms, 1u);
  EXPECT_NEAR(m.lost_work_s, 0.25 * solo_s(), 1e-6 * solo_s());
  EXPECT_EQ(m.lost_work_correlated_s, m.lost_work_s)
      << "all lost work came from the PDU fault";
  EXPECT_NEAR(m.makespan_s, 1.25 * solo_s(), 1e-6 * solo_s());
  ASSERT_EQ(m.completions.size(), 1u);
  EXPECT_EQ(m.completions.front().server, 2) << "restarted off the dead feed";
}

TEST(DomainFailure, TorFaultStallsResidentsWithoutLosingWork) {
  // An isolated rack freezes its residents: no crash, no lost work, no
  // restart — the VM simply finishes one window later.
  const Topology topo =
      Topology::from_racks({RackSpec{0, 0, 0, {0}}, RackSpec{1, 1, 1, {1}}});
  const double window = 500.0;
  CloudConfig cloud = cloud_of(2);
  cloud.failure.enabled = true;
  cloud.failure.topology = &topo;
  cloud.failure.script.push_back(
      domain_fault(FailureKind::kTorFault, 0, 0.25 * solo_s(), window));
  const core::FirstFitAllocator ff(1);
  const SimMetrics m = Simulator(db(), cloud).run(one_vm(), ff);
  EXPECT_EQ(m.failures, 0u) << "isolation is not a crash";
  EXPECT_EQ(m.correlated_failures, 1u);
  EXPECT_EQ(m.blast_radius_vms_max, 1u);
  EXPECT_EQ(m.vm_restarts, 0u);
  EXPECT_DOUBLE_EQ(m.lost_work_s, 0.0);
  EXPECT_DOUBLE_EQ(m.lost_work_correlated_s, 0.0);
  EXPECT_EQ(m.vms, 1u);
  EXPECT_NEAR(m.makespan_s, solo_s() + window, 1e-6 * solo_s());
  EXPECT_DOUBLE_EQ(m.goodput_fraction, 1.0);
}

TEST(DomainFailure, IsolatedRackIsMaskedFromTheAllocator) {
  // Rack 0 is isolated before the job arrives: first-fit must route to
  // the reachable server even though the isolated one comes first.
  const Topology topo =
      Topology::from_racks({RackSpec{0, 0, 0, {0}}, RackSpec{1, 1, 1, {1}}});
  PreparedWorkload workload = one_vm();
  workload.jobs.front().submit_s = 50.0;  // mid-outage
  CloudConfig cloud = cloud_of(2);
  cloud.failure.enabled = true;
  cloud.failure.topology = &topo;
  cloud.failure.script.push_back(
      domain_fault(FailureKind::kTorFault, 0, 0.0, 300.0));
  cloud.record_completions = true;
  const core::FirstFitAllocator ff(1);
  const SimMetrics m = Simulator(db(), cloud).run(workload, ff);
  ASSERT_EQ(m.completions.size(), 1u);
  EXPECT_EQ(m.completions.front().server, 1);
  EXPECT_EQ(m.correlated_failures, 1u);
  EXPECT_EQ(m.blast_radius_vms_max, 0u) << "nothing was resident at fault";
}

TEST(DomainFailure, TorHealReleasesTheWholeRackAtOnce) {
  // Two VMs co-resident on one rack stall together and resume together:
  // the makespan extends by exactly one window, not two.
  const Topology topo = small_topology();
  PreparedWorkload workload;
  for (int i = 0; i < 2; ++i) {
    JobRequest job;
    job.id = i + 1;
    job.submit_s = 0.0;
    job.profile = ProfileClass::kCpu;
    job.vm_count = 1;
    job.runtime_scale = 1.0;
    job.deadline_s = 1e12;
    workload.jobs.push_back(job);
    workload.total_vms += 1;
  }
  const double window = 400.0;
  CloudConfig cloud = cloud_of(3);
  cloud.failure.enabled = true;
  cloud.failure.topology = &topo;
  cloud.failure.script.push_back(
      domain_fault(FailureKind::kTorFault, 0, 0.25 * solo_s(), window));
  const core::FirstFitAllocator ff(1);
  const SimMetrics m = Simulator(db(), cloud).run(workload, ff);
  EXPECT_EQ(m.vms, 2u);
  EXPECT_EQ(m.correlated_failures, 1u);
  EXPECT_EQ(m.blast_radius_vms_max, 2u) << "both residents in the blast";
  EXPECT_DOUBLE_EQ(m.blast_radius_vms_mean, 2.0);
  EXPECT_EQ(m.vm_restarts, 0u);
  EXPECT_GE(m.makespan_s, solo_s() + window - 1e-6 * solo_s());
}

/// Overlapping windows on one server: a degrade overwritten by a shorter
/// one, a brownout across both, a ToR isolation whose window a second
/// fault extends, a crash inside the isolation (repaired while the rack
/// is still cut off), zero-length degrade/brownout windows and a crash
/// with zero repair time. Every next-window instant and every expiry,
/// repair and heal must land exactly where the per-server scans of the
/// reference loop put them: the metrics are pinned bit for bit, and the
/// event and interval counts pin that no stale deadline adds an event.
TEST(DomainFailure, OverlappingWindowsReplayPinnedMetrics) {
  const Topology topo = small_topology();
  const double S = solo_s();
  const auto window = [](FailureKind kind, int server, double at_s,
                         double duration_s, double magnitude) {
    FailureEvent event;
    event.kind = kind;
    event.server = server;
    event.at_s = at_s;
    event.duration_s = duration_s;
    event.magnitude = magnitude;
    return event;
  };
  CloudConfig cloud = cloud_of(3);
  cloud.failure.enabled = true;
  cloud.failure.topology = &topo;
  cloud.failure.recovery.policy = RecoveryPolicy::kCheckpointRestart;
  cloud.failure.recovery.checkpoint_period_s = 0.05 * S;
  obs::ObsConfig obs_on;
  obs_on.enabled = true;
  cloud.obs = obs::Session::create(obs_on);
  cloud.failure.script = {
      window(FailureKind::kDegrade, 0, 0.10 * S, 0.55 * S, 0.5),
      window(FailureKind::kBrownout, 0, 0.20 * S, 0.40 * S, 150.0),
      window(FailureKind::kDegrade, 0, 0.30 * S, 0.05 * S, 0.8),
      domain_fault(FailureKind::kTorFault, 0, 0.32 * S, 0.30 * S),
      crash(0, 0.40 * S, 0.10 * S),
      domain_fault(FailureKind::kTorFault, 0, 0.45 * S, 0.30 * S),
      window(FailureKind::kDegrade, 1, 0.80 * S, 0.0, 0.5),
      window(FailureKind::kBrownout, 2, 0.85 * S, 0.0, 130.0),
      crash(2, 0.90 * S, 0.0),
      crash(1, 1.00 * S, 0.20 * S),
      window(FailureKind::kDegrade, 1, 1.05 * S, 0.10 * S, 0.5),
      window(FailureKind::kBrownout, 2, 1.10 * S, 0.30 * S, 140.0),
  };
  const core::FirstFitAllocator ff(2);
  const SimMetrics m = Simulator(db(), cloud).run(staggered(40), ff);
  // Hex-float values of the full-scan event loop the deadline heaps
  // replaced (same workload, script and allocator).
  EXPECT_EQ(m.energy_j, 0x1.f52503381902bp+21);
  EXPECT_EQ(m.makespan_s, 0x1.c95bc3554ac21p+12);
  EXPECT_EQ(m.mean_response_s, 0x1.1726b010793c1p+12);
  EXPECT_EQ(m.mean_wait_s, 0x1.eca2c6dd36fdbp+9);
  EXPECT_EQ(m.lost_work_s, 0x1.06f4de9bd37acp+7);
  EXPECT_EQ(m.mean_busy_servers, 0x1.5db11100497c7p+1);
  EXPECT_EQ(m.failures, 3u);
  EXPECT_EQ(m.vm_restarts, 24u);
  EXPECT_EQ(m.correlated_failures, 2u);
  EXPECT_EQ(m.blast_radius_vms_max, 16u);
  EXPECT_EQ(m.vms, 40u);
  obs::MetricsRegistry& reg = cloud.obs->metrics();
  EXPECT_EQ(reg.counter("sim.events").value(), 91u);
  EXPECT_EQ(reg.counter("sim.intervals").value(), 90u);
  EXPECT_EQ(reg.counter("sim.events.window").value(), 4u);
}

TEST(DomainFailure, SampledDomainFaultsAreReproducible) {
  const Topology topo = make_synthetic_topology(
      SyntheticTopologyConfig{4, 2, 1, 1});
  CloudConfig cloud = cloud_of(4);
  cloud.failure.enabled = true;
  cloud.failure.topology = &topo;
  cloud.failure.domains.pdu_mtbf_s = 3000.0;
  cloud.failure.domains.pdu_mttr_s = 300.0;
  cloud.failure.domains.tor_mtbf_s = 2500.0;
  cloud.failure.domains.tor_mttr_s = 200.0;
  const core::FirstFitAllocator ff(2);
  const Simulator sim(db(), cloud);
  const SimMetrics a = sim.run(staggered(12), ff);
  const SimMetrics b = sim.run(staggered(12), ff);
  expect_identical(a, b);
  EXPECT_EQ(a.correlated_failures, b.correlated_failures);
  EXPECT_EQ(a.lost_work_correlated_s, b.lost_work_correlated_s);
  EXPECT_EQ(a.blast_radius_vms_mean, b.blast_radius_vms_mean);
  EXPECT_GT(a.correlated_failures, 0u);
}

TEST(DomainFailure, DomainSamplingNeverShiftsPerServerDraws) {
  // The "domain-failures" named stream is independent of the per-server
  // "failures" stream: wiring up PDU/ToR sampling must leave the sampled
  // per-server crash sequence untouched, draw for draw.
  const Topology topo = make_synthetic_topology(
      SyntheticTopologyConfig{4, 2, 1, 1});
  const auto crash_sequence = [&](bool with_domains) {
    FailureConfig config;
    config.enabled = true;
    config.mtbf_s = 2000.0;
    config.mttr_s = 300.0;
    config.topology = &topo;
    if (with_domains) {
      config.domains.pdu_mtbf_s = 4000.0;
      config.domains.tor_mtbf_s = 3500.0;
    }
    config.validate(4);
    FailureSchedule schedule(config, 4, 0.0);
    std::vector<FailureEvent> due;
    std::vector<std::pair<int, double>> crashes;
    std::size_t domain_events = 0;
    while (schedule.next_time() < 50000.0) {
      schedule.pop_due(schedule.next_time(), due);
      for (const FailureEvent& event : due) {
        if (event.kind == FailureKind::kCrash) {
          crashes.emplace_back(event.server, event.at_s);
          schedule.on_crash(event.server);
          schedule.on_repair(event.server, event.at_s + event.duration_s);
        } else {
          ++domain_events;
        }
      }
    }
    return std::make_pair(crashes, domain_events);
  };
  const auto [base, base_domain_events] = crash_sequence(false);
  const auto [mixed, mixed_domain_events] = crash_sequence(true);
  EXPECT_EQ(base_domain_events, 0u);
  EXPECT_GT(mixed_domain_events, 0u);
  ASSERT_EQ(base.size(), mixed.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].first, mixed[i].first);
    EXPECT_EQ(base[i].second, mixed[i].second);  // bitwise
  }
  EXPECT_FALSE(base.empty());
}

TEST(DomainFailure, SimultaneousFaultsPopInCanonicalOrder) {
  // Satellite regression: a batch of same-instant faults must come out in
  // (time, domain/server, kind) order no matter the script order.
  const Topology topo = small_topology();
  FailureConfig config;
  config.enabled = true;
  config.topology = &topo;
  config.script.push_back(crash(2, 100.0, 50.0));
  config.script.push_back(
      domain_fault(FailureKind::kTorFault, 1, 100.0, 50.0));
  config.script.push_back(
      domain_fault(FailureKind::kPduFault, 0, 100.0, 50.0));
  config.validate(3);
  FailureSchedule schedule(config, 3, 0.0);
  const std::vector<FailureEvent> due = schedule.pop_due(100.0);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].kind, FailureKind::kPduFault);
  EXPECT_EQ(due[0].server, 0);
  EXPECT_EQ(due[1].kind, FailureKind::kTorFault);
  EXPECT_EQ(due[1].server, 1);
  EXPECT_EQ(due[2].kind, FailureKind::kCrash);
  EXPECT_EQ(due[2].server, 2);
}

TEST(DomainFailure, ReplayIsByteEqualUnderScriptPermutation) {
  // Same fault set, permuted script order: the canonical event order must
  // make the two runs bitwise identical, correlated metrics included.
  const Topology topo = make_synthetic_topology(
      SyntheticTopologyConfig{4, 2, 1, 1});
  const std::vector<FailureEvent> events = {
      crash(3, 400.0, 100.0),
      domain_fault(FailureKind::kPduFault, 0, 400.0, 300.0),
      domain_fault(FailureKind::kTorFault, 1, 400.0, 200.0),
  };
  const core::FirstFitAllocator ff(2);
  CloudConfig forward = cloud_of(4);
  forward.failure.enabled = true;
  forward.failure.topology = &topo;
  forward.failure.script = events;
  const SimMetrics a = Simulator(db(), forward).run(staggered(8), ff);
  CloudConfig reversed = cloud_of(4);
  reversed.failure.enabled = true;
  reversed.failure.topology = &topo;
  reversed.failure.script.assign(events.rbegin(), events.rend());
  const SimMetrics b = Simulator(db(), reversed).run(staggered(8), ff);
  expect_identical(a, b);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.correlated_failures, b.correlated_failures);
  EXPECT_EQ(a.lost_work_s, b.lost_work_s);
  EXPECT_EQ(a.lost_work_correlated_s, b.lost_work_correlated_s);
  EXPECT_EQ(a.blast_radius_vms_mean, b.blast_radius_vms_mean);
  EXPECT_EQ(a.correlated_failures, 2u);
}

TEST(DomainFailure, RejectsDomainEventsWithoutOrOutsideTheTopology) {
  const core::FirstFitAllocator ff(1);
  const Topology topo = small_topology();

  CloudConfig bad = cloud_of(3);
  bad.failure.enabled = true;  // pdu event but no topology wired
  bad.failure.script.push_back(
      domain_fault(FailureKind::kPduFault, 0, 1.0, 1.0));
  EXPECT_THROW((void)Simulator(db(), bad).run(one_vm(), ff),
               std::invalid_argument);

  bad = cloud_of(3);
  bad.failure.enabled = true;
  bad.failure.topology = &topo;
  bad.failure.script.push_back(
      domain_fault(FailureKind::kPduFault, 2, 1.0, 1.0));  // feed range
  EXPECT_THROW((void)Simulator(db(), bad).run(one_vm(), ff),
               std::invalid_argument);

  bad = cloud_of(3);
  bad.failure.enabled = true;
  bad.failure.topology = &topo;
  bad.failure.script.push_back(
      domain_fault(FailureKind::kTorFault, 5, 1.0, 1.0));  // switch range
  EXPECT_THROW((void)Simulator(db(), bad).run(one_vm(), ff),
               std::invalid_argument);

  bad = cloud_of(2);  // topology covers 3 servers, cloud has 2
  bad.failure.enabled = true;
  bad.failure.topology = &topo;
  EXPECT_THROW((void)Simulator(db(), bad).run(one_vm(), ff),
               std::invalid_argument);
}

TEST(DomainFailure, ScriptRoundTripsDomainEvents) {
  std::vector<FailureEvent> events;
  events.push_back(domain_fault(FailureKind::kPduFault, 1, 10.0, 600.0));
  events.push_back(domain_fault(FailureKind::kTorFault, 0, 20.5, 90.0));
  std::ostringstream out;
  write_failure_script(out, events);
  const std::vector<FailureEvent> parsed = parse_failure_script(out.str());
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, events[i].kind);
    EXPECT_EQ(parsed[i].server, events[i].server);
    EXPECT_DOUBLE_EQ(parsed[i].at_s, events[i].at_s);
    EXPECT_DOUBLE_EQ(parsed[i].duration_s, events[i].duration_s);
  }
  EXPECT_THROW((void)parse_failure_script("pdu 0 1"), std::invalid_argument);
  EXPECT_THROW((void)parse_failure_script("tor 0 1 -2"),
               std::invalid_argument);
}

TEST(FailureScript, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_failure_script("explode 0 1 2"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_failure_script("crash 0 1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_failure_script("crash zero 1 2"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_failure_script("crash 0 -1 2"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_failure_script("degrade 0 1 2 1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_failure_script("brownout 0 1 2 -5"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_failure_script("crash 0 1 nan"),
               std::invalid_argument);
  // Comments and blank lines are fine.
  EXPECT_TRUE(parse_failure_script("# comment\n; other\n\n").empty());
}

}  // namespace
}  // namespace aeva::datacenter
