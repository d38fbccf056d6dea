#include "testbed/microsim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "workload/registry.hpp"

namespace aeva::testbed {
namespace {

using workload::AppSpec;
using workload::Demand;
using workload::Phase;
using workload::ProfileClass;

AppSpec simple_app(double cpu, double nominal_s, double footprint_mb = 64.0) {
  AppSpec app;
  app.name = "simple";
  app.profile = ProfileClass::kCpu;
  app.mem_footprint_mb = footprint_mb;
  app.phases = {Phase{"run", Demand{cpu, 0.0, 0.0, 0.0}, nominal_s}};
  return app;
}

TEST(MicroSim, SoloRunFinishesAtNominalTime) {
  const MicroSim sim(testbed_server());
  const SimResult result = sim.run({VmRun{simple_app(0.5, 500.0), 0.0}});
  ASSERT_EQ(result.vms.size(), 1u);
  EXPECT_NEAR(result.vms[0].finish_s, 500.0, 1e-6);
  EXPECT_NEAR(result.makespan_s, 500.0, 1e-6);
}

TEST(MicroSim, UncontendedVmsRunInParallelAtFullSpeed) {
  const MicroSim sim(testbed_server());
  // Two half-core VMs on four cores: no contention.
  const SimResult result = sim.run({VmRun{simple_app(0.5, 500.0), 0.0},
                                    VmRun{simple_app(0.5, 500.0), 0.0}});
  for (const VmOutcome& vm : result.vms) {
    EXPECT_NEAR(vm.runtime_s(), 500.0, 1e-6);
  }
}

TEST(MicroSim, CpuContentionStretchesRuntime) {
  ServerConfig config = testbed_server();
  config.per_vm_cpu_overhead = 0.0;
  config.sched_overhead = 0.0;
  const MicroSim sim(config);
  // Eight full-core VMs on four cores: proportional share halves progress.
  std::vector<VmRun> vms(8, VmRun{simple_app(1.0, 400.0), 0.0});
  const SimResult result = sim.run(vms);
  for (const VmOutcome& vm : result.vms) {
    EXPECT_NEAR(vm.runtime_s(), 800.0, 1e-6);
  }
}

TEST(MicroSim, MakespanIsMonotoneInVmCount) {
  const MicroSim sim(testbed_server());
  double previous = 0.0;
  for (int n = 1; n <= 12; ++n) {
    std::vector<VmRun> vms(static_cast<std::size_t>(n),
                           VmRun{workload::find_app("linpack"), 0.0});
    const SimResult result = sim.run(vms);
    EXPECT_GE(result.makespan_s, previous - 1e-9) << n;
    previous = result.makespan_s;
  }
}

TEST(MicroSim, StaggeredStartRespectsArrival) {
  const MicroSim sim(testbed_server());
  const SimResult result = sim.run({VmRun{simple_app(0.5, 100.0), 0.0},
                                    VmRun{simple_app(0.5, 100.0), 300.0}});
  EXPECT_NEAR(result.vms[0].finish_s, 100.0, 1e-6);
  // Second VM starts after an idle gap and is unconstrained.
  EXPECT_NEAR(result.vms[1].finish_s, 400.0, 1e-6);
  EXPECT_NEAR(result.makespan_s, 400.0, 1e-6);
}

TEST(MicroSim, IdleGapDrawsIdlePowerOnly) {
  const ServerConfig config = testbed_server();
  const MicroSim sim(config);
  const SimResult result = sim.run({VmRun{simple_app(1.0, 100.0), 0.0},
                                    VmRun{simple_app(1.0, 100.0), 500.0}});
  // Between t=100 and t=500 nothing runs.
  EXPECT_NEAR(result.power_w.value_at(300.0), config.power.idle_w, 1e-6);
  EXPECT_GT(result.power_w.value_at(50.0), config.power.idle_w);
}

TEST(MicroSim, PowerWithinModelBounds) {
  const ServerConfig config = testbed_server();
  const MicroSim sim(config);
  std::vector<VmRun> vms(10, VmRun{workload::find_app("linpack"), 0.0});
  const SimResult result = sim.run(vms);
  for (const auto& sample : result.power_w.samples()) {
    EXPECT_GE(sample.value, config.power.idle_w - 1e-9);
    EXPECT_LE(sample.value, config.power.peak_w() + 1e-9);
  }
  EXPECT_GT(result.max_power_w, config.power.idle_w);
  EXPECT_LE(result.max_power_w, config.power.peak_w());
}

TEST(MicroSim, EnergyEqualsPowerIntegral) {
  const MicroSim sim(testbed_server());
  const SimResult result =
      sim.run({VmRun{workload::find_app("sysbench"), 0.0}});
  EXPECT_NEAR(result.energy_j, result.power_w.integrate(), 1e-6);
  EXPECT_GT(result.energy_j, 0.0);
}

TEST(MicroSim, MultiPhaseAppCompletesAllPhases) {
  const MicroSim sim(testbed_server());
  const SimResult result = sim.run({VmRun{workload::find_app("fftw"), 0.0}});
  EXPECT_NEAR(result.vms[0].runtime_s(),
              workload::find_app("fftw").nominal_runtime_s(), 1e-6);
}

TEST(MicroSim, DiskContentionScalesWithDemand) {
  ServerConfig config = testbed_server();  // 180 MB/s aggregate
  const MicroSim sim(config);
  AppSpec io_app;
  io_app.name = "io";
  io_app.profile = ProfileClass::kIo;
  io_app.mem_footprint_mb = 32.0;
  io_app.phases = {Phase{"stream", Demand{0.05, 0.0, 90.0, 0.0}, 100.0}};
  // Four VMs demand 360 MB/s against 180 MB/s: progress halves.
  std::vector<VmRun> vms(4, VmRun{io_app, 0.0});
  const SimResult result = sim.run(vms);
  for (const VmOutcome& vm : result.vms) {
    EXPECT_NEAR(vm.runtime_s(), 200.0, 1.0);
  }
}

TEST(MicroSim, NetworkContentionScalesWithDemand) {
  const MicroSim sim(testbed_server());  // 250 MB/s aggregate
  AppSpec net_app;
  net_app.name = "net";
  net_app.profile = ProfileClass::kIo;
  net_app.mem_footprint_mb = 32.0;
  net_app.phases = {Phase{"xfer", Demand{0.05, 0.0, 0.0, 125.0}, 100.0}};
  std::vector<VmRun> vms(4, VmRun{net_app, 0.0});
  const SimResult result = sim.run(vms);
  for (const VmOutcome& vm : result.vms) {
    EXPECT_NEAR(vm.runtime_s(), 200.0, 1.0);
  }
}

TEST(MicroSim, MemoryOvercommitTriggersThrashing) {
  const ServerConfig config = testbed_server();
  const MicroSim sim(config);
  const double fits = config.guest_mem_mb() / 4.0 - 1.0;
  std::vector<VmRun> ok(4, VmRun{simple_app(0.2, 100.0, fits), 0.0});
  const double t_ok = sim.run(ok).makespan_s;

  std::vector<VmRun> over(
      4, VmRun{simple_app(0.2, 100.0, fits * 1.5), 0.0});
  const double t_over = sim.run(over).makespan_s;
  EXPECT_GT(t_over, t_ok * 1.5);
}

TEST(MicroSim, AvgTimePerVmMatchesPaperDefinition) {
  const MicroSim sim(testbed_server());
  std::vector<VmRun> vms(4, VmRun{workload::find_app("linpack"), 0.0});
  const SimResult result = sim.run(vms);
  double max_finish = 0.0;
  for (const VmOutcome& vm : result.vms) {
    max_finish = std::max(max_finish, vm.finish_s);
  }
  EXPECT_NEAR(result.avg_time_per_vm_s(), max_finish / 4.0, 1e-9);
}

TEST(MicroSim, RejectsEmptyInput) {
  const MicroSim sim(testbed_server());
  EXPECT_THROW((void)sim.run({}), std::invalid_argument);
}

TEST(MicroSim, RejectsNegativeStartTime) {
  const MicroSim sim(testbed_server());
  EXPECT_THROW((void)sim.run({VmRun{simple_app(0.5, 10.0), -1.0}}),
               std::invalid_argument);
}

TEST(MicroSim, RejectsInvalidAppSpec) {
  const MicroSim sim(testbed_server());
  workload::AppSpec bad;
  bad.name = "bad";
  EXPECT_THROW((void)sim.run({VmRun{bad, 0.0}}), std::invalid_argument);
}

TEST(MicroSim, DeterministicAcrossRuns) {
  const MicroSim sim(testbed_server());
  std::vector<VmRun> vms = {VmRun{workload::find_app("linpack"), 0.0},
                            VmRun{workload::find_app("sysbench"), 10.0},
                            VmRun{workload::find_app("beffio"), 20.0}};
  const SimResult a = sim.run(vms);
  const SimResult b = sim.run(vms);
  ASSERT_EQ(a.vms.size(), b.vms.size());
  for (std::size_t i = 0; i < a.vms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.vms[i].finish_s, b.vms[i].finish_s);
  }
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
}

TEST(MicroSim, UtilizationTracesCoverTheRun) {
  const MicroSim sim(testbed_server());
  const SimResult result =
      sim.run({VmRun{workload::find_app("beffio"), 0.0}});
  for (const workload::Subsystem s : workload::kAllSubsystems) {
    const auto& series = result.utilization.of(s);
    ASSERT_FALSE(series.empty());
    EXPECT_NEAR(series.end_time(), result.makespan_s, 1e-6);
    for (const auto& sample : series.samples()) {
      EXPECT_GE(sample.value, 0.0);
      EXPECT_LE(sample.value, 1.0 + 1e-9);
    }
  }
}

/// Property sweep: for any same-type pack of the canonical apps, the
/// average execution time follows the paper's metric and per-VM runtimes
/// are identical (symmetric VMs progress in lockstep). The app name is a
/// std::string so the printed parameter (and hence the discovered CTest
/// name) is the name itself rather than a per-process pointer address.
class MicroSimPackSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(MicroSimPackSweep, SymmetricVmsFinishTogether) {
  const auto [name, count] = GetParam();
  const MicroSim sim(testbed_server());
  std::vector<VmRun> vms(static_cast<std::size_t>(count),
                         VmRun{workload::find_app(name), 0.0});
  const SimResult result = sim.run(vms);
  ASSERT_EQ(result.vms.size(), static_cast<std::size_t>(count));
  for (const VmOutcome& vm : result.vms) {
    EXPECT_NEAR(vm.finish_s, result.vms[0].finish_s, 1e-6);
  }
  EXPECT_NEAR(result.avg_time_per_vm_s(), result.vms[0].finish_s / count,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Packs, MicroSimPackSweep,
    ::testing::Combine(::testing::Values(std::string("linpack"),
                                         std::string("sysbench"),
                                         std::string("beffio"),
                                         std::string("fftw")),
                       ::testing::Values(1, 2, 4, 8, 12)));

}  // namespace
}  // namespace aeva::testbed
