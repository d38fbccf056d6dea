#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/incremental.hpp"
#include "core/proactive.hpp"
#include "obs/session.hpp"
#include "testing/reference_pa.hpp"
#include "testing/shared_db.hpp"
#include "util/rng.hpp"

/// Differential sweeps of the proactive search against the plain
/// per-server reference scorer (testing/reference_pa.hpp): grouped,
/// prefix-incremental, pruned searches must return the same *bits* —
/// placements, exact score doubles, the number of partitions examined,
/// and the degradation record. Each sweep runs its config on two kinds of
/// span: ascending ids and shuffled ids. Both build the allocator's fleet
/// with one reset (`pa.fleet.resyncs`); the shuffled one makes its order
/// the tie-break order, as the reference scans it.

namespace aeva::core {
namespace {

using workload::ClassCounts;
using workload::ProfileClass;

const modeldb::ModelDatabase& db() { return testing::shared_db(); }

void expect_identical(const AllocationResult& got,
                      const AllocationResult& want, std::uint64_t seed) {
  EXPECT_EQ(got.complete, want.complete) << "seed " << seed;
  EXPECT_EQ(got.satisfied_qos, want.satisfied_qos) << "seed " << seed;
  EXPECT_EQ(got.partitions_examined, want.partitions_examined)
      << "seed " << seed;
  EXPECT_EQ(static_cast<int>(got.outcome.path),
            static_cast<int>(want.outcome.path))
      << "seed " << seed;
  EXPECT_EQ(static_cast<int>(got.outcome.reason),
            static_cast<int>(want.outcome.reason))
      << "seed " << seed;
  EXPECT_EQ(got.outcome.search_truncated, want.outcome.search_truncated)
      << "seed " << seed;
  // Bit-exact doubles — the contract, not a tolerance.
  EXPECT_EQ(got.score.combined, want.score.combined) << "seed " << seed;
  EXPECT_EQ(got.score.est_time_s, want.score.est_time_s) << "seed " << seed;
  EXPECT_EQ(got.score.est_energy_j, want.score.est_energy_j)
      << "seed " << seed;
  ASSERT_EQ(got.placements.size(), want.placements.size()) << "seed " << seed;
  for (std::size_t i = 0; i < got.placements.size(); ++i) {
    EXPECT_EQ(got.placements[i].vm_id, want.placements[i].vm_id)
        << "seed " << seed << " placement " << i;
    EXPECT_EQ(got.placements[i].server_id, want.placements[i].server_id)
        << "seed " << seed << " placement " << i;
  }
}

std::vector<VmRequest> random_request(util::Rng& rng) {
  const std::int64_t n = rng.uniform_int(1, 6);
  std::vector<VmRequest> vms;
  for (std::int64_t i = 0; i < n; ++i) {
    VmRequest vm;
    vm.id = i + 1;
    vm.profile = static_cast<ProfileClass>(rng.uniform_int(0, 2));
    // A mix of loose and potentially-binding deadlines so the sweep also
    // exercises QoS rejection and the relaxed fallback.
    vm.max_exec_time_s = rng.bernoulli(0.5) ? 1e12 : rng.uniform(50.0, 5000.0);
    vms.push_back(vm);
  }
  return vms;
}

/// 2–10 servers with ascending ids 0..n−1, some already loaded.
std::vector<ServerState> random_servers(util::Rng& rng) {
  const std::int64_t n = rng.uniform_int(2, 10);
  std::vector<ServerState> servers;
  for (std::int64_t i = 0; i < n; ++i) {
    ServerState server;
    server.id = static_cast<int>(i);
    if (rng.bernoulli(0.4)) {
      server.allocated =
          ClassCounts{static_cast<int>(rng.uniform_int(0, 2)),
                      static_cast<int>(rng.uniform_int(0, 2)),
                      static_cast<int>(rng.uniform_int(0, 1))};
    }
    server.powered = server.allocated.total() > 0 || rng.bernoulli(0.25);
    servers.push_back(server);
  }
  return servers;
}

/// The same servers in an order whose ids are not ascending: ties must
/// break by span position, not by id.
std::vector<ServerState> shuffled(std::vector<ServerState> servers,
                                  util::Rng& rng) {
  rng.shuffle(servers);
  bool ascending = true;
  for (std::size_t i = 1; i < servers.size(); ++i) {
    ascending = ascending && servers[i - 1].id < servers[i].id;
  }
  if (ascending) {
    std::swap(servers[0], servers[1]);
  }
  return servers;
}

std::shared_ptr<obs::Session> obs_session() {
  obs::ObsConfig config;
  config.enabled = true;
  return obs::Session::create(config);
}

/// Runs one call through a fresh allocator and the reference, compares
/// the bits, and checks that the fleet was built by exactly one reset —
/// positional for a shuffled span.
void expect_matches(const ProactiveConfig& base,
                    const std::vector<VmRequest>& vms,
                    const std::vector<ServerState>& span, std::uint64_t seed) {
  ProactiveConfig config = base;
  config.obs = obs_session();
  const ProactiveAllocator allocator(db(), config);
  const testing::ReferenceProactiveAllocator reference(db(), base);
  expect_identical(allocator.allocate(vms, span),
                   reference.allocate(vms, span), seed);
  EXPECT_EQ(config.obs->metrics().counter("pa.fleet.resyncs").value(), 1u)
      << "seed " << seed;
}

void sweep_seeds(const ProactiveConfig& base, std::uint64_t first_seed) {
  for (std::uint64_t seed = first_seed; seed < first_seed + 30; ++seed) {
    util::Rng rng(seed);
    const std::vector<VmRequest> vms = random_request(rng);
    const std::vector<ServerState> servers = random_servers(rng);
    expect_matches(base, vms, servers, seed);
    expect_matches(base, vms, shuffled(servers, rng), seed);
  }
}

TEST(ProactiveParallel, MatchesSerialOverRandomizedRequests) {
  ProactiveConfig base;
  base.alpha = 0.5;
  sweep_seeds(base, 1000);
}

TEST(ProactiveParallel, MatchesSerialSingleThreadOptimized) {
  // search_threads = 1 (the only accepted value) with one allocator kept
  // across calls: its cached fleet syncs from one span to the next and
  // carries its score memo along; every call must still give the
  // reference bits.
  ProactiveConfig base;
  base.alpha = 0.5;
  base.search_threads = 1;
  const ProactiveAllocator allocator(db(), base);
  const testing::ReferenceProactiveAllocator reference(db(), base);
  for (std::uint64_t seed = 6000; seed < 6030; ++seed) {
    util::Rng rng(seed);
    const std::vector<VmRequest> vms = random_request(rng);
    const std::vector<ServerState> servers = random_servers(rng);
    expect_identical(allocator.allocate(vms, servers),
                     reference.allocate(vms, servers), seed);
  }
}

TEST(ProactiveReference, MatchesReferenceWithQosRelaxed) {
  ProactiveConfig base;
  base.alpha = 0.5;
  base.enforce_qos = false;
  sweep_seeds(base, 2000);
}

TEST(ProactiveReference, MatchesReferenceWithBestEffortFallback) {
  ProactiveConfig base;
  base.alpha = 0.3;
  base.fallback_best_effort = true;
  sweep_seeds(base, 3000);
}

TEST(ProactiveReference, MatchesReferenceAtAlphaExtremes) {
  for (const double alpha : {0.0, 1.0}) {
    ProactiveConfig base;
    base.alpha = alpha;
    sweep_seeds(base, 4000 + static_cast<std::uint64_t>(alpha * 100));
  }
}

TEST(ProactiveReference, MatchesReferenceOnEdpGoal) {
  // The EDP rank is not separable per block, so pruning must stay
  // disarmed; the result still has to match the reference exactly.
  ProactiveConfig base;
  base.goal = ProactiveGoal::kEnergyDelayProduct;
  sweep_seeds(base, 5000);
}

TEST(ProactiveReference, MatchesReferenceWithSpread) {
  // The fleet's groups split by failure domain: ids cycle through three
  // domains, at most two of the request's VMs per domain, plus the blast
  // penalty.
  ProactiveConfig base;
  base.alpha = 0.5;
  base.spread.enabled = true;
  base.spread.max_vms_per_domain = 2;
  base.spread.domain_count = 3;
  base.spread.domain_of_server = {0, 1, 2, 0, 1, 2, 0, 1, 2, 0};
  base.spread.blast_penalty = 0.5;
  sweep_seeds(base, 6000);
}

TEST(ProactiveReference, RejectsParallelSearchThreads) {
  for (const int threads : {0, 2, 8}) {
    ProactiveConfig config;
    config.search_threads = threads;
    EXPECT_THROW(ProactiveAllocator(db(), config), std::invalid_argument)
        << threads;
    EXPECT_THROW(FleetState(db(), config), std::invalid_argument) << threads;
  }
}

TEST(ProactiveParallel, ConcurrentAllocateCallsStayDeterministic) {
  // allocate() is const and re-entrant: hammer one allocator from several
  // parallel callers with different inputs. Calls take turns on the one
  // fleet, which flips between spans (odd threads pass shuffled ones, so
  // its tie-break order flips too); every call must still produce the
  // reference bits for its input.
  ProactiveConfig base;
  base.alpha = 0.5;
  const ProactiveAllocator shared(db(), base);
  const testing::ReferenceProactiveAllocator reference(db(), base);

  constexpr int kThreads = 4;
  const auto inputs = [](int t) {
    util::Rng rng(7000 + static_cast<std::uint64_t>(t));
    std::vector<VmRequest> vms = random_request(rng);
    std::vector<ServerState> servers = random_servers(rng);
    if (t % 2 == 1) {
      servers = shuffled(std::move(servers), rng);
    }
    return std::make_pair(std::move(vms), std::move(servers));
  };
  std::vector<AllocationResult> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &shared, &got, &inputs] {
      const auto [vms, servers] = inputs(t);
      for (int round = 0; round < 5; ++round) {
        got[static_cast<std::size_t>(t)] = shared.allocate(vms, servers);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    const auto [vms, servers] = inputs(t);
    expect_identical(got[static_cast<std::size_t>(t)],
                     reference.allocate(vms, servers),
                     7000 + static_cast<std::uint64_t>(t));
  }
}

}  // namespace
}  // namespace aeva::core
