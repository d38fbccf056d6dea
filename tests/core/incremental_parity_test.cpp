/// Incremental-vs-exhaustive parity: over 30 random seeds,
/// FleetState::plan must reproduce the plain reference scorer
/// (testing/reference_pa.hpp, which never touches a FleetState)
/// bit-for-bit — identical placements, scores, outcomes, and
/// search effort — both on drift-free snapshots and under sustained churn
/// (commits, releases, crashes, repairs) where the reference is re-pointed
/// at the fleet's own up-server view each round. The churn suite
/// additionally asserts the operational bound: accumulated planned energy
/// within 1% of the exhaustive baseline (exact parity makes it 0). The
/// spread suites repeat both with the failure-domain constraint on: caps
/// 1 and 2, blast penalty 0 and 0.3, servers outside the domain map, and
/// whole-domain crash_domain / repair_domain churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "core/incremental.hpp"
#include "core/proactive.hpp"
#include "testing/reference_pa.hpp"
#include "testing/shared_db.hpp"
#include "util/rng.hpp"

namespace aeva::core {
namespace {

using workload::ClassCounts;
using workload::ProfileClass;

const modeldb::ModelDatabase& db() { return testing::shared_db(); }

std::vector<VmRequest> random_request(util::Rng& rng, int max_vms = 5) {
  const int vm_count = static_cast<int>(rng.uniform_int(1, max_vms));
  std::vector<VmRequest> vms;
  for (int i = 0; i < vm_count; ++i) {
    VmRequest vm;
    vm.id = i + 1;
    vm.profile = workload::kAllProfileClasses[static_cast<std::size_t>(
        rng.uniform_int(0, 2))];
    vm.max_exec_time_s =
        rng.bernoulli(0.3) ? rng.uniform(1000.0, 4000.0) : 1e12;
    vms.push_back(vm);
  }
  return vms;
}

std::vector<ServerState> random_servers(util::Rng& rng, int count) {
  const auto& base = db().base();
  std::vector<ServerState> servers;
  for (int s = 0; s < count; ++s) {
    ServerState server;
    server.id = s;
    if (rng.bernoulli(0.5)) {
      server.allocated.cpu =
          static_cast<int>(rng.uniform_int(0, base.cpu.os()));
      server.allocated.mem =
          static_cast<int>(rng.uniform_int(0, base.mem.os()));
      server.allocated.io =
          static_cast<int>(rng.uniform_int(0, base.io.os()));
      server.powered = server.allocated.total() > 0;
    }
    servers.push_back(server);
  }
  return servers;
}

/// A spread constraint over `server_count` servers: 2–4 domains with ids
/// dealt round-robin, cap 1 or 2, blast penalty 0 or 0.3, and — half the
/// time — the last one or two ids left out of the map (unmapped servers
/// are never capped).
SpreadConfig random_spread(util::Rng& rng, int server_count) {
  SpreadConfig spread;
  spread.enabled = true;
  spread.max_vms_per_domain = static_cast<int>(rng.uniform_int(1, 2));
  spread.blast_penalty = rng.bernoulli(0.5) ? 0.3 : 0.0;
  spread.domain_count = static_cast<int>(rng.uniform_int(2, 4));
  int mapped = server_count;
  if (rng.bernoulli(0.5)) {
    mapped = std::max(0, server_count - static_cast<int>(rng.uniform_int(1, 2)));
  }
  for (int s = 0; s < mapped; ++s) {
    spread.domain_of_server.push_back(s % spread.domain_count);
  }
  return spread;
}

/// Full-result equality. The incremental planner relabels its successful
/// primary results kIncremental; everything else must match verbatim.
void expect_identical(const AllocationResult& inc,
                      const AllocationResult& batch) {
  EXPECT_EQ(inc.complete, batch.complete);
  EXPECT_EQ(inc.satisfied_qos, batch.satisfied_qos);
  EXPECT_EQ(inc.partitions_examined, batch.partitions_examined);
  const auto normalize = [](AllocationPath path) {
    return path == AllocationPath::kIncremental ? AllocationPath::kPrimary
                                                : path;
  };
  EXPECT_EQ(normalize(inc.outcome.path), normalize(batch.outcome.path));
  EXPECT_EQ(inc.outcome.reason, batch.outcome.reason);
  EXPECT_EQ(inc.outcome.search_truncated, batch.outcome.search_truncated);
  // Bitwise, not approximate: the planner reuses the exact expressions.
  EXPECT_EQ(inc.score.est_time_s, batch.score.est_time_s);
  EXPECT_EQ(inc.score.est_energy_j, batch.score.est_energy_j);
  EXPECT_EQ(inc.score.combined, batch.score.combined);
  ASSERT_EQ(inc.placements.size(), batch.placements.size());
  for (std::size_t i = 0; i < inc.placements.size(); ++i) {
    EXPECT_EQ(inc.placements[i].vm_id, batch.placements[i].vm_id);
    EXPECT_EQ(inc.placements[i].server_id, batch.placements[i].server_id);
  }
}

class IncrementalParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalParity, DriftFreeSnapshotsPlaceIdentically) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    ProactiveConfig config;
    config.alpha = rng.uniform(0.0, 1.0);
    if (rng.bernoulli(0.25)) {
      config.degrade_to_first_fit = true;
    }
    if (rng.bernoulli(0.15)) {
      config.max_partitions = static_cast<std::size_t>(
          rng.uniform_int(1, 5));  // budget-truncation parity too
    }
    const auto servers =
        random_servers(rng, static_cast<int>(rng.uniform_int(1, 10)));
    const auto vms = random_request(rng);

    FleetState fleet(db(), config);
    fleet.reset(servers);
    const testing::ReferenceProactiveAllocator batch(db(), config);
    expect_identical(fleet.plan(vms), batch.allocate(vms, servers));
  }
}

/// Commits, releases, crashes and repairs against one FleetState for 40
/// rounds, planning a random request each round and comparing it with the
/// reference over the fleet's own up-server view.
void churn_parity(util::Rng& rng, const ProactiveConfig& config,
                  int server_count) {
  FleetState fleet(db(), config);
  std::vector<ServerState> init;
  for (int s = 0; s < server_count; ++s) {
    init.push_back(ServerState{s, ClassCounts{}, false});
  }
  fleet.reset(init);
  const testing::ReferenceProactiveAllocator batch(db(), config);

  // Independent mirror of what should be committed, keyed by server id —
  // validates the delta bookkeeping, not just plan().
  std::map<int, ClassCounts> mirror;
  std::map<int, bool> down;
  for (int s = 0; s < server_count; ++s) {
    mirror[s] = ClassCounts{};
    down[s] = false;
  }
  struct Resident {
    int server_id = 0;
    ProfileClass profile = ProfileClass::kCpu;
  };
  std::vector<Resident> residents;

  double inc_energy = 0.0;
  double batch_energy = 0.0;
  for (int round = 0; round < 40; ++round) {
    // The fleet's view must equal the mirror-derived up list exactly.
    std::vector<ServerState> expected_up;
    for (const auto& [id, mix] : mirror) {
      if (down[id]) {
        continue;
      }
      ServerState server;
      server.id = id;
      server.allocated = mix;
      server.powered = fleet.node(id).powered;
      expected_up.push_back(server);
    }
    const auto up = fleet.up_servers();
    ASSERT_EQ(up.size(), expected_up.size());
    for (std::size_t i = 0; i < up.size(); ++i) {
      EXPECT_EQ(up[i].id, expected_up[i].id);
      EXPECT_TRUE(up[i].allocated == expected_up[i].allocated);
    }

    const auto vms = random_request(rng, 4);
    const AllocationResult inc = fleet.plan(vms);
    const AllocationResult bat = batch.allocate(vms, expected_up);
    expect_identical(inc, bat);

    if (inc.complete) {
      inc_energy += inc.score.est_energy_j;
      batch_energy += bat.score.est_energy_j;
      for (const Placement& p : inc.placements) {
        const ProfileClass profile =
            vms[static_cast<std::size_t>(p.vm_id - 1)].profile;
        fleet.allocate(p.server_id, profile);
        ++mirror[p.server_id].of(profile);
        residents.push_back(Resident{p.server_id, profile});
      }
    }
    // Random releases of committed VMs.
    while (!residents.empty() && rng.bernoulli(0.4)) {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(residents.size()) - 1));
      const Resident r = residents[pick];
      residents.erase(residents.begin() +
                      static_cast<std::ptrdiff_t>(pick));
      fleet.deallocate(r.server_id, r.profile);
      --mirror[r.server_id].of(r.profile);
    }
    // Occasional crash / repair churn: one server, or with spread on a
    // whole failure domain at once.
    if (rng.bernoulli(0.15)) {
      const int victim =
          static_cast<int>(rng.uniform_int(0, server_count - 1));
      std::vector<int> members = {victim};
      if (config.spread.enabled) {
        const int domain = config.spread.domain_of(victim);
        for (int s = 0; s < server_count; ++s) {
          if (s != victim && domain >= 0 &&
              config.spread.domain_of(s) == domain) {
            members.push_back(s);
          }
        }
      }
      if (down[victim]) {
        fleet.repair_domain(members);
        for (const int id : members) {
          down[id] = false;
          mirror[id] = ClassCounts{};
        }
      } else if (fleet.up_count() > members.size()) {
        fleet.crash_domain(members);
        for (const int id : members) {
          down[id] = true;
          mirror[id] = ClassCounts{};
        }
        // Their residents died with them — the serve loop re-admits them
        // as fresh requests; here they simply leave the release pool.
        std::erase_if(residents, [&members](const Resident& r) {
          return std::find(members.begin(), members.end(), r.server_id) !=
                 members.end();
        });
      }
    }
  }
  // ISSUE 8 bound: accumulated planned energy within 1% of the exhaustive
  // baseline under churn. Exact parity makes the delta identically zero.
  if (batch_energy != 0.0) {
    EXPECT_LT(std::abs(inc_energy - batch_energy) / std::abs(batch_energy),
              0.01);
  }
  EXPECT_EQ(inc_energy, batch_energy);
}

TEST_P(IncrementalParity, ChurnKeepsParityAndEnergyWithinBound) {
  util::Rng rng(GetParam() ^ 0xc0ffeeULL);
  ProactiveConfig config;
  config.alpha = rng.uniform(0.0, 1.0);
  const int server_count = static_cast<int>(rng.uniform_int(4, 12));
  churn_parity(rng, config, server_count);
}

TEST_P(IncrementalParity, SpreadSnapshotsPlaceIdentically) {
  util::Rng rng(GetParam() ^ 0x5b7eadULL);
  for (int round = 0; round < 20; ++round) {
    ProactiveConfig config;
    config.alpha = rng.uniform(0.0, 1.0);
    if (rng.bernoulli(0.25)) {
      config.degrade_to_first_fit = true;
    }
    const int server_count = static_cast<int>(rng.uniform_int(1, 10));
    config.spread = random_spread(rng, server_count);
    const auto servers = random_servers(rng, server_count);
    const auto vms = random_request(rng);

    FleetState fleet(db(), config);
    fleet.reset(servers);
    const testing::ReferenceProactiveAllocator batch(db(), config);
    expect_identical(fleet.plan(vms), batch.allocate(vms, servers));
  }
}

TEST_P(IncrementalParity, SpreadChurnKeepsParity) {
  util::Rng rng(GetParam() ^ 0xd0a1ULL);
  ProactiveConfig config;
  config.alpha = rng.uniform(0.0, 1.0);
  config.degrade_to_first_fit = rng.bernoulli(0.5);
  const int server_count = static_cast<int>(rng.uniform_int(4, 12));
  config.spread = random_spread(rng, server_count);
  churn_parity(rng, config, server_count);
}

TEST_P(IncrementalParity, RepeatedPlansAreDeterministic) {
  util::Rng rng(GetParam() ^ 0xd15eULL);
  ProactiveConfig config;
  config.alpha = rng.uniform(0.0, 1.0);
  const auto servers = random_servers(rng, 6);
  const auto vms = random_request(rng);
  FleetState fleet(db(), config);
  fleet.reset(servers);
  const AllocationResult a = fleet.plan(vms);
  const AllocationResult b = fleet.plan(vms);  // memo-hot replay
  expect_identical(a, b);
  EXPECT_GT(fleet.stats().memo_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalParity,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace aeva::core
