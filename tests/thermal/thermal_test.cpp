#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/first_fit.hpp"
#include "core/proactive.hpp"
#include "datacenter/simulator.hpp"
#include "obs/session.hpp"
#include "testing/reference_pa.hpp"
#include "testing/shared_db.hpp"
#include "thermal/thermal_guard.hpp"
#include "thermal/thermal_model.hpp"
#include "trace/prepare.hpp"
#include "util/rng.hpp"

namespace aeva::thermal {
namespace {

using core::ServerState;
using core::VmRequest;
using workload::ClassCounts;
using workload::ProfileClass;

TEST(ThermalMap, IdleRoomSitsAtColdAisleTemperature) {
  const ThermalMap map(4, ThermalConfig{});
  const std::vector<double> inlets = map.inlet_temps({0.0, 0.0, 0.0, 0.0});
  for (const double t : inlets) {
    EXPECT_DOUBLE_EQ(t, ThermalConfig{}.cold_aisle_c);
  }
}

TEST(ThermalMap, NoSelfHeating) {
  // A single hot server in an otherwise idle row does not raise its own
  // inlet (no direct self-recirculation in the model).
  const ThermalMap map(3, ThermalConfig{});
  const std::vector<double> inlets = map.inlet_temps({0.0, 400.0, 0.0});
  EXPECT_DOUBLE_EQ(inlets[1], ThermalConfig{}.cold_aisle_c);
  EXPECT_GT(inlets[0], ThermalConfig{}.cold_aisle_c);
  EXPECT_GT(inlets[2], ThermalConfig{}.cold_aisle_c);
}

TEST(ThermalMap, RecirculationDecaysWithDistance) {
  const ThermalMap map(5, ThermalConfig{});
  const std::vector<double> inlets =
      map.inlet_temps({0.0, 0.0, 0.0, 0.0, 500.0});
  // Closer neighbours of the hot server run hotter.
  EXPECT_GT(inlets[3], inlets[2]);
  EXPECT_GT(inlets[2], inlets[1]);
  EXPECT_GT(inlets[1], inlets[0]);
}

TEST(ThermalMap, InletRiseLinearInPower) {
  ThermalConfig config;
  const ThermalMap map(2, config);
  const double rise1 =
      map.inlet_temps({200.0, 0.0})[1] - config.cold_aisle_c;
  const double rise2 =
      map.inlet_temps({400.0, 0.0})[1] - config.cold_aisle_c;
  EXPECT_NEAR(rise2, 2.0 * rise1, 1e-12);
}

TEST(ThermalMap, PeakInletFindsHotspot) {
  const ThermalMap map(4, ThermalConfig{});
  const std::vector<double> power = {500.0, 500.0, 0.0, 0.0};
  const std::vector<double> inlets = map.inlet_temps(power);
  EXPECT_DOUBLE_EQ(map.peak_inlet_c(power),
                   *std::max_element(inlets.begin(), inlets.end()));
}

TEST(ThermalMap, CoolingPowerFollowsCop) {
  ThermalConfig config;
  config.crac_cop = 4.0;
  const ThermalMap map(1, config);
  EXPECT_DOUBLE_EQ(map.cooling_power_w(1000.0), 250.0);
  EXPECT_THROW((void)map.cooling_power_w(-1.0), std::invalid_argument);
}

TEST(ThermalMap, RejectsBadInputs) {
  EXPECT_THROW(ThermalMap(0, ThermalConfig{}), std::invalid_argument);
  ThermalConfig bad;
  bad.recirculation = 1.0;
  EXPECT_THROW(ThermalMap(2, bad), std::invalid_argument);
  bad = ThermalConfig{};
  bad.crac_cop = 0.0;
  EXPECT_THROW(ThermalMap(2, bad), std::invalid_argument);
  bad = ThermalConfig{};
  bad.inlet_limit_c = bad.cold_aisle_c;
  EXPECT_THROW(ThermalMap(2, bad), std::invalid_argument);
  const ThermalMap map(2, ThermalConfig{});
  EXPECT_THROW((void)map.inlet_temps({1.0}), std::invalid_argument);
}

class GuardFixture : public ::testing::Test {
 protected:
  const modeldb::ModelDatabase& db_ = testing::shared_db();
  ThermalMap map_{6, ThermalConfig{}};

  ThermalGuardAllocator make_guard(GuardConfig config = {}) {
    core::ProactiveConfig pc;
    pc.alpha = 0.0;
    return ThermalGuardAllocator(
        std::make_unique<core::ProactiveAllocator>(db_, pc), db_, map_,
        config);
  }
};

TEST_F(GuardFixture, NameWrapsInner) {
  EXPECT_EQ(make_guard().name(), "TG(PA-0)");
}

TEST_F(GuardFixture, PredictsInletsFromAllocations) {
  std::vector<ServerState> servers;
  for (int s = 0; s < 6; ++s) {
    servers.push_back(ServerState{s, ClassCounts{}, false, 0});
  }
  servers[2].allocated = ClassCounts{4, 0, 0};
  servers[2].powered = true;
  const ThermalGuardAllocator guard = make_guard();
  const std::vector<double> inlets = guard.predicted_inlets(servers);
  // Neighbours of the busy server are warmer than the far end.
  EXPECT_GT(inlets[1], inlets[5]);
  EXPECT_GT(inlets[3], inlets[5]);
}

TEST_F(GuardFixture, MasksHotNeighbourhood) {
  // Servers 0-2 run hot mixes; with a tight soft limit the guard must
  // steer the next VM to the cool end of the row.
  GuardConfig config;
  config.soft_limit_c = 20.0;  // aggressive masking
  const ThermalGuardAllocator guard = make_guard(config);

  std::vector<ServerState> servers;
  for (int s = 0; s < 6; ++s) {
    servers.push_back(ServerState{s, ClassCounts{}, false, 0});
  }
  for (int s = 0; s < 3; ++s) {
    servers[static_cast<std::size_t>(s)].allocated = ClassCounts{4, 0, 0};
    servers[static_cast<std::size_t>(s)].powered = true;
  }
  std::vector<VmRequest> vms = {VmRequest{1, ProfileClass::kIo, 1e12}};
  const auto result = guard.allocate(vms, servers);
  ASSERT_TRUE(result.complete);
  EXPECT_GE(result.placements[0].server_id, 4)
      << "guard should avoid the hot zone";
}

TEST_F(GuardFixture, FallsBackWhenEverythingIsHot) {
  GuardConfig config;
  config.soft_limit_c = 18.5;  // below any loaded prediction
  const ThermalGuardAllocator guard = make_guard(config);
  std::vector<ServerState> servers;
  for (int s = 0; s < 6; ++s) {
    servers.push_back(
        ServerState{s, ClassCounts{1, 1, 0}, true, 0});
  }
  std::vector<VmRequest> vms = {VmRequest{1, ProfileClass::kCpu, 1e12}};
  const auto result = guard.allocate(vms, servers);
  EXPECT_TRUE(result.complete) << "guard must not starve the queue";
}

TEST_F(GuardFixture, RejectsBadConstruction) {
  EXPECT_THROW(ThermalGuardAllocator(nullptr, db_, map_),
               std::invalid_argument);
  GuardConfig bad;
  bad.soft_limit_c = 10.0;  // below the cold aisle
  core::ProactiveConfig pc;
  EXPECT_THROW(ThermalGuardAllocator(
                   std::make_unique<core::ProactiveAllocator>(db_, pc), db_,
                   map_, bad),
               std::invalid_argument);
}

TEST(GuardedSimulation, ProactiveMatchesReferenceOnCoolestFirstSpans) {
  // The guard hands its inner allocator the cool servers coolest-first,
  // and PA breaks ties toward the front of that list: TG(PA-1) and
  // TG(reference) must run the same simulation bit for bit.
  const modeldb::ModelDatabase& db = testing::shared_db();
  util::Rng rng(2027);
  trace::PreparedWorkload workload;
  double t = 0.0;
  for (long long id = 1; id <= 150; ++id) {
    trace::JobRequest job;
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
    t += rng.exponential(1.0 / 40.0);
  }
  datacenter::CloudConfig cloud;
  cloud.server_count = 16;
  const datacenter::Simulator sim(db, cloud);
  const ThermalMap map(cloud.server_count, ThermalConfig{});
  GuardConfig guard_config;
  guard_config.soft_limit_c = 26.0;

  core::ProactiveConfig config;
  config.alpha = 1.0;  // PA-1
  core::ProactiveConfig observed = config;
  obs::ObsConfig obs_on;
  obs_on.enabled = true;
  observed.obs = obs::Session::create(obs_on);
  const ThermalGuardAllocator pa(
      std::make_unique<core::ProactiveAllocator>(db, observed), db, map,
      guard_config);
  const ThermalGuardAllocator reference(
      std::make_unique<testing::ReferenceProactiveAllocator>(db, config), db,
      map, guard_config);

  const datacenter::SimMetrics got = sim.run(workload, pa);
  const datacenter::SimMetrics want = sim.run(workload, reference);
  EXPECT_EQ(got.makespan_s, want.makespan_s);
  EXPECT_EQ(got.energy_j, want.energy_j);
  EXPECT_EQ(got.sla_violation_pct, want.sla_violation_pct);
  EXPECT_EQ(got.vms, want.vms);
  EXPECT_EQ(got.sla_violations, want.sla_violations);
  EXPECT_EQ(got.mean_response_s, want.mean_response_s);
  EXPECT_EQ(got.mean_wait_s, want.mean_wait_s);
  EXPECT_EQ(got.mean_busy_servers, want.mean_busy_servers);
  EXPECT_EQ(got.peak_busy_servers, want.peak_busy_servers);
  EXPECT_EQ(got.servers_powered, want.servers_powered);
  EXPECT_EQ(got.rejects_by_reason, want.rejects_by_reason);
  // The reordered spans rebuilt the fleet in their own order.
  EXPECT_GT(observed.obs->metrics().counter("pa.fleet.resyncs").value(), 1u);
}

}  // namespace
}  // namespace aeva::thermal
