/// Failure-domain spread constraint (docs/RESILIENCE.md, "Correlated
/// failure domains") across the allocator family: hard per-domain caps,
/// the terminal kSpreadInfeasible width reject, the blast-radius
/// concentration penalty, and the bit-identity guarantees of disabled or
/// non-binding configs.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "core/baselines.hpp"
#include "core/first_fit.hpp"
#include "core/incremental.hpp"
#include "core/proactive.hpp"
#include "testing/reference_pa.hpp"
#include "testing/shared_db.hpp"

namespace aeva::core {
namespace {

using workload::ClassCounts;
using workload::ProfileClass;

const modeldb::ModelDatabase& db() { return testing::shared_db(); }

std::vector<VmRequest> make_request(
    std::initializer_list<ProfileClass> profiles, double qos_s = 1e12) {
  std::vector<VmRequest> vms;
  for (const ProfileClass profile : profiles) {
    VmRequest vm;
    vm.id = static_cast<std::int64_t>(vms.size()) + 1;
    vm.profile = profile;
    vm.max_exec_time_s = qos_s;
    vms.push_back(vm);
  }
  return vms;
}

std::vector<ServerState> empty_servers(int count) {
  std::vector<ServerState> servers;
  for (int i = 0; i < count; ++i) {
    servers.push_back(ServerState{i, ClassCounts{}, false});
  }
  return servers;
}

/// Two-servers-per-domain map over `server_count` consecutive ids.
SpreadConfig paired_domains(int server_count, int max_vms_per_domain,
                            double blast_penalty = 0.0) {
  SpreadConfig spread;
  spread.enabled = true;
  spread.max_vms_per_domain = max_vms_per_domain;
  spread.blast_penalty = blast_penalty;
  spread.domain_count = (server_count + 1) / 2;
  for (int s = 0; s < server_count; ++s) {
    spread.domain_of_server.push_back(s / 2);
  }
  return spread;
}

/// The request's VM count per domain under `spread`, from placements.
std::map<int, int> domain_histogram(const AllocationResult& result,
                                    const SpreadConfig& spread) {
  std::map<int, int> per_domain;
  for (const Placement& p : result.placements) {
    ++per_domain[spread.domain_of(p.server_id)];
  }
  return per_domain;
}

// --- Reject taxonomy -------------------------------------------------------

TEST(SpreadTaxonomy, SpreadInfeasibleIsATerminalNamedReason) {
  EXPECT_STREQ(to_string(RejectReason::kSpreadInfeasible),
               "spread-infeasible");
  EXPECT_FALSE(is_retryable(RejectReason::kSpreadInfeasible));
  EXPECT_STREQ(retry_class(RejectReason::kSpreadInfeasible), "terminal");
  // Appended at the end of the enum so existing rejects_by_reason
  // tallies (snapshots, serve metrics) keep their slot indices.
  EXPECT_EQ(static_cast<std::size_t>(RejectReason::kSpreadInfeasible),
            kRejectReasonCount - 1);
}

TEST(SpreadTaxonomy, EveryReasonRendersInTheRejectTables) {
  // The datacenter_sim and aeva_serve reject tables iterate
  // [0, kRejectReasonCount) through to_string/retry_class; no slot may
  // fall through to the "?" default or an unclassified retry label.
  for (std::size_t i = 0; i < kRejectReasonCount; ++i) {
    const auto reason = static_cast<RejectReason>(i);
    EXPECT_STRNE(to_string(reason), "?") << "slot " << i;
    const std::string klass = retry_class(reason);
    EXPECT_TRUE(klass == "retryable" || klass == "terminal")
        << "slot " << i << ": " << klass;
  }
}

// --- SpreadConfig ----------------------------------------------------------

TEST(SpreadConfig_, DomainLookupTreatsUnmappedAsUnconstrained) {
  const SpreadConfig spread = paired_domains(4, 2);
  EXPECT_EQ(spread.domain_of(0), 0);
  EXPECT_EQ(spread.domain_of(3), 1);
  EXPECT_EQ(spread.domain_of(-1), -1);
  EXPECT_EQ(spread.domain_of(99), -1);
}

/// Domain 7 of a two-domain map: an id past the count, which would index
/// past every allocator's per-domain tally.
SpreadConfig domain_past_count() {
  SpreadConfig spread;
  spread.enabled = true;
  spread.max_vms_per_domain = 1;
  spread.domain_count = 2;
  spread.domain_of_server = {0, 7};
  return spread;
}

TEST(SpreadConfig_, ValidateRejectsDomainsOutsideTheCount) {
  EXPECT_THROW(domain_past_count().validate(), std::invalid_argument);
  SpreadConfig spread = domain_past_count();
  spread.domain_of_server = {0, -2};
  EXPECT_THROW(spread.validate(), std::invalid_argument);
  spread.domain_of_server = {0, -1, 1};  // -1: unmapped
  EXPECT_NO_THROW(spread.validate());
  spread.max_vms_per_domain = 0;
  EXPECT_THROW(spread.validate(), std::invalid_argument);
  spread = domain_past_count();
  spread.enabled = false;  // inert: never read, never checked
  EXPECT_NO_THROW(spread.validate());
}

TEST(SpreadConfig_, FeasibleWidthBoundsTheRequest) {
  SpreadConfig spread = paired_domains(4, 2);  // 2 domains × cap 2 = 4
  EXPECT_TRUE(spread.feasible_width(4));
  EXPECT_FALSE(spread.feasible_width(5));
  spread.enabled = false;  // disabled configs never reject
  EXPECT_TRUE(spread.feasible_width(5000));
}

// --- ProactiveAllocator ----------------------------------------------------

TEST(SpreadProactive, QuotaCapsEveryDomain) {
  ProactiveConfig config;
  config.alpha = 1.0;  // energy goal: would consolidate without the cap
  config.spread = paired_domains(8, 1);
  const ProactiveAllocator allocator(db(), config);
  const auto vms = make_request({ProfileClass::kCpu, ProfileClass::kCpu,
                                 ProfileClass::kCpu, ProfileClass::kMem});
  const auto result = allocator.allocate(vms, empty_servers(8));
  ASSERT_TRUE(result.complete);
  for (const auto& [domain, count] : domain_histogram(result, config.spread)) {
    EXPECT_LE(count, 1) << "domain " << domain;
  }
}

TEST(SpreadProactive, TooWideRequestIsTerminallyRejected) {
  ProactiveConfig config;
  config.spread = paired_domains(2, 1);  // 1 domain × cap 1
  config.degrade_to_first_fit = true;    // fallback must not resurrect it
  const ProactiveAllocator allocator(db(), config);
  const auto vms = make_request({ProfileClass::kCpu, ProfileClass::kMem});
  const auto result = allocator.allocate(vms, empty_servers(2));
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.outcome.path, AllocationPath::kRejected);
  EXPECT_EQ(result.outcome.reason, RejectReason::kSpreadInfeasible);
  EXPECT_EQ(result.partitions_examined, 0u) << "reject precedes the search";
  EXPECT_FALSE(is_retryable(RejectReason::kSpreadInfeasible));
}

TEST(SpreadProactive, BlastPenaltyDisperses) {
  // Pure energy goal co-locates both VMs on one server; a dominant
  // concentration penalty flips the choice to one VM per domain.
  const auto vms = make_request({ProfileClass::kCpu, ProfileClass::kCpu});
  ProactiveConfig config;
  config.alpha = 1.0;
  config.spread = paired_domains(4, 2, 0.0);
  const auto dense =
      ProactiveAllocator(db(), config).allocate(vms, empty_servers(4));
  config.spread.blast_penalty = 100.0;
  const auto spread_out =
      ProactiveAllocator(db(), config).allocate(vms, empty_servers(4));
  ASSERT_TRUE(dense.complete);
  ASSERT_TRUE(spread_out.complete);
  EXPECT_EQ(domain_histogram(dense, config.spread).size(), 1u)
      << "energy goal consolidates when the penalty is off";
  EXPECT_EQ(domain_histogram(spread_out, config.spread).size(), 2u)
      << "the Herfindahl penalty dominates and disperses the request";
}

TEST(SpreadProactive, NonBindingSpreadMatchesSpreadFreeSearch) {
  // Domains mapped but the cap never binds and the penalty is zero: the
  // search must return the spread-free result bit-for-bit.
  const auto vms = make_request({ProfileClass::kCpu, ProfileClass::kCpu,
                                 ProfileClass::kMem, ProfileClass::kIo});
  ProactiveConfig config;
  config.alpha = 0.5;
  const auto baseline =
      ProactiveAllocator(db(), config).allocate(vms, empty_servers(6));
  config.spread = paired_domains(6, static_cast<int>(vms.size()));
  const auto lenient =
      ProactiveAllocator(db(), config).allocate(vms, empty_servers(6));
  ASSERT_TRUE(baseline.complete);
  ASSERT_TRUE(lenient.complete);
  ASSERT_EQ(baseline.placements.size(), lenient.placements.size());
  for (std::size_t i = 0; i < baseline.placements.size(); ++i) {
    EXPECT_EQ(baseline.placements[i].vm_id, lenient.placements[i].vm_id);
    EXPECT_EQ(baseline.placements[i].server_id,
              lenient.placements[i].server_id);
  }
  EXPECT_EQ(baseline.score.combined, lenient.score.combined);
  EXPECT_EQ(baseline.score.est_energy_j, lenient.score.est_energy_j);
}

TEST(SpreadProactive, OptimizedPathsMatchSerialReference) {
  // The spread quota and penalty must not break the reference/optimized
  // equivalence: the grouped, pruned FleetState search vs. the plain
  // scorer.
  const auto vms = make_request({ProfileClass::kCpu, ProfileClass::kCpu,
                                 ProfileClass::kMem, ProfileClass::kMem,
                                 ProfileClass::kIo});
  ProactiveConfig config;
  config.alpha = 0.5;
  config.spread = paired_domains(6, 2, 2.5);
  const auto serial = testing::ReferenceProactiveAllocator(db(), config)
                          .allocate(vms, empty_servers(6));
  const auto optimized =
      ProactiveAllocator(db(), config).allocate(vms, empty_servers(6));
  ASSERT_TRUE(serial.complete);
  ASSERT_TRUE(optimized.complete);
  ASSERT_EQ(serial.placements.size(), optimized.placements.size());
  for (std::size_t i = 0; i < serial.placements.size(); ++i) {
    EXPECT_EQ(serial.placements[i].vm_id, optimized.placements[i].vm_id);
    EXPECT_EQ(serial.placements[i].server_id,
              optimized.placements[i].server_id);
  }
  EXPECT_EQ(serial.score.combined, optimized.score.combined);
  EXPECT_EQ(serial.score.est_time_s, optimized.score.est_time_s);
  EXPECT_EQ(serial.score.est_energy_j, optimized.score.est_energy_j);
}

TEST(SpreadProactive, RejectsBadSpreadConfig) {
  ProactiveConfig config;
  config.spread.enabled = true;
  config.spread.max_vms_per_domain = 0;
  config.spread.domain_count = 2;
  EXPECT_THROW(ProactiveAllocator(db(), config), std::invalid_argument);
  config.spread.max_vms_per_domain = 1;
  config.spread.domain_count = 0;
  EXPECT_THROW(ProactiveAllocator(db(), config), std::invalid_argument);
  config.spread.domain_count = 2;
  config.spread.domain_of_server = {0, -1, 2};  // 2 is past the last domain
  EXPECT_THROW(ProactiveAllocator(db(), config), std::invalid_argument);
  config.spread = domain_past_count();
  EXPECT_THROW(ProactiveAllocator(db(), config), std::invalid_argument);
  EXPECT_THROW(FleetState(db(), config), std::invalid_argument);
  config.spread.domain_of_server = {0, -1, 1};  // -1: unmapped
  EXPECT_NO_THROW(ProactiveAllocator(db(), config));
}

// --- First-fit and the degradation leg -------------------------------------

TEST(SpreadFirstFit, QuotaForcesOnePerDomain) {
  FirstFitAllocator allocator(2);
  allocator.set_spread(paired_domains(6, 1));
  const auto vms = make_request({ProfileClass::kCpu, ProfileClass::kCpu,
                                 ProfileClass::kCpu});
  const auto result = allocator.allocate(vms, empty_servers(6));
  ASSERT_TRUE(result.complete);
  for (const auto& [domain, count] :
       domain_histogram(result, allocator.spread())) {
    EXPECT_EQ(count, 1) << "domain " << domain;
  }
}

TEST(SpreadFirstFit, SetSpreadRejectsDomainPastTheCount) {
  FirstFitAllocator allocator(1);
  EXPECT_THROW(allocator.set_spread(domain_past_count()),
               std::invalid_argument);
  EXPECT_FALSE(allocator.spread().enabled) << "the bad config is not kept";
  const auto vms = make_request({ProfileClass::kCpu, ProfileClass::kCpu});
  EXPECT_TRUE(allocator.allocate(vms, empty_servers(2)).complete);
}

TEST(SpreadFirstFit, TooWideRequestRejectsSpreadInfeasible) {
  FirstFitAllocator allocator(2);
  allocator.set_spread(paired_domains(2, 1));  // capacity for 1 VM total
  const auto vms = make_request({ProfileClass::kCpu, ProfileClass::kMem});
  const auto result = allocator.allocate(vms, empty_servers(2));
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.outcome.reason, RejectReason::kSpreadInfeasible);
}

TEST(SpreadFirstFit, QuotaExhaustionIsAllOrNothing) {
  // Width is feasible but capacity inside the allowed domains is not: the
  // request must wait (retryable kNoFeasibleServer), not place partially.
  FirstFitAllocator allocator(1, 1);  // one slot per server
  SpreadConfig spread = paired_domains(4, 2);
  spread.domain_of_server = {0, 0, 0, 0};  // every server in domain 0
  spread.domain_count = 2;                 // width check passes (2 × 2)
  allocator.set_spread(spread);
  const auto vms = make_request({ProfileClass::kCpu, ProfileClass::kCpu,
                                 ProfileClass::kCpu});
  const auto result = allocator.allocate(vms, empty_servers(4));
  EXPECT_FALSE(result.complete);
  EXPECT_TRUE(result.placements.empty());
  EXPECT_EQ(result.outcome.reason, RejectReason::kNoFeasibleServer);
}

TEST(SpreadFirstFit, DegradationLegInheritsTheConstraint) {
  // Drive the proactive search into its first-fit fallback (zero QoS
  // headroom) and check the fallback still honors the domain cap.
  ProactiveConfig config;
  config.alpha = 0.5;
  config.degrade_to_first_fit = true;
  config.spread = paired_domains(8, 1);
  const ProactiveAllocator allocator(db(), config);
  const auto vms = make_request(
      {ProfileClass::kCpu, ProfileClass::kCpu, ProfileClass::kCpu}, 1e-9);
  const auto result = allocator.allocate(vms, empty_servers(8));
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.outcome.path, AllocationPath::kFallbackFirstFit);
  for (const auto& [domain, count] : domain_histogram(result, config.spread)) {
    EXPECT_LE(count, 1) << "domain " << domain;
  }
}

// --- Baselines -------------------------------------------------------------

TEST(SpreadBaselines, SlotFitHonorsQuotaAndWidth) {
  for (const auto policy :
       {SlotFitAllocator::Policy::kBestFit, SlotFitAllocator::Policy::kWorstFit}) {
    SlotFitAllocator allocator(policy, 2);
    allocator.set_spread(paired_domains(6, 1));
    const auto vms = make_request({ProfileClass::kCpu, ProfileClass::kCpu});
    const auto result = allocator.allocate(vms, empty_servers(6));
    ASSERT_TRUE(result.complete);
    std::set<int> domains;
    for (const Placement& p : result.placements) {
      EXPECT_TRUE(domains.insert(p.server_id / 2).second)
          << "two VMs share domain " << p.server_id / 2;
    }

    SlotFitAllocator narrow(policy, 2);
    narrow.set_spread(paired_domains(2, 1));
    const auto wide = make_request({ProfileClass::kCpu, ProfileClass::kCpu});
    const auto rejected = narrow.allocate(wide, empty_servers(2));
    EXPECT_FALSE(rejected.complete);
    EXPECT_EQ(rejected.outcome.reason, RejectReason::kSpreadInfeasible);
  }
}

TEST(SpreadBaselines, SetSpreadRejectsDomainPastTheCount) {
  const auto vms = make_request({ProfileClass::kCpu, ProfileClass::kCpu});
  for (const auto policy :
       {SlotFitAllocator::Policy::kBestFit, SlotFitAllocator::Policy::kWorstFit}) {
    SlotFitAllocator slot(policy, 1);
    EXPECT_THROW(slot.set_spread(domain_past_count()), std::invalid_argument);
    EXPECT_TRUE(slot.allocate(vms, empty_servers(2)).complete);
  }
  RandomFitAllocator random(1234, 1);
  EXPECT_THROW(random.set_spread(domain_past_count()), std::invalid_argument);
  EXPECT_TRUE(random.allocate(vms, empty_servers(2)).complete);
  VectorFitAllocator vector = VectorFitAllocator::from_registry(1.0);
  EXPECT_THROW(vector.set_spread(domain_past_count()), std::invalid_argument);
  EXPECT_TRUE(vector.allocate(vms, empty_servers(2)).complete);
}

TEST(SpreadBaselines, RandomFitFiltersCandidatesBeforeThePick) {
  RandomFitAllocator allocator(1234, 2);
  allocator.set_spread(paired_domains(8, 1));
  const auto vms = make_request({ProfileClass::kCpu, ProfileClass::kCpu,
                                 ProfileClass::kCpu, ProfileClass::kCpu});
  const auto result = allocator.allocate(vms, empty_servers(8));
  ASSERT_TRUE(result.complete);
  std::set<int> domains;
  for (const Placement& p : result.placements) {
    EXPECT_TRUE(domains.insert(p.server_id / 2).second)
        << "two VMs share domain " << p.server_id / 2;
  }
}

TEST(SpreadBaselines, VectorFitHonorsQuota) {
  VectorFitAllocator allocator = VectorFitAllocator::from_registry(1.0);
  allocator.set_spread(paired_domains(6, 1));
  const auto vms = make_request({ProfileClass::kCpu, ProfileClass::kMem});
  const auto result = allocator.allocate(vms, empty_servers(6));
  ASSERT_TRUE(result.complete);
  std::set<int> domains;
  for (const Placement& p : result.placements) {
    EXPECT_TRUE(domains.insert(p.server_id / 2).second)
        << "two VMs share domain " << p.server_id / 2;
  }
}

// --- FleetState ------------------------------------------------------------

TEST(SpreadFleetState, PlansUnderTheCapAndRejectsTooWideRequests) {
  ProactiveConfig config;
  config.spread = paired_domains(4, 1);
  FleetState fleet(db(), config);
  fleet.reset(empty_servers(4));
  const auto pair = make_request({ProfileClass::kCpu, ProfileClass::kCpu});
  const AllocationResult placed = fleet.plan(pair);
  ASSERT_TRUE(placed.complete);
  ASSERT_EQ(placed.placements.size(), 2u);
  EXPECT_NE(placed.placements[0].server_id / 2,
            placed.placements[1].server_id / 2)
      << "two VMs share a domain under cap 1";

  const auto wide = make_request({ProfileClass::kCpu, ProfileClass::kCpu,
                                  ProfileClass::kCpu});
  const AllocationResult rejected = fleet.plan(wide);
  EXPECT_FALSE(rejected.complete);
  EXPECT_EQ(rejected.outcome.reason, RejectReason::kSpreadInfeasible);
  EXPECT_EQ(rejected.partitions_examined, 0u);
}

TEST(SpreadFleetState, DomainGranularCrashAndRepair) {
  FleetState fleet(db(), ProactiveConfig{});
  const auto servers = empty_servers(4);
  fleet.reset(servers);
  const int rack[] = {0, 1};
  fleet.crash_domain(rack);
  {
    const auto& up = fleet.up_servers();
    ASSERT_EQ(up.size(), 2u);
    EXPECT_EQ(up[0].id, 2);
    EXPECT_EQ(up[1].id, 3);
  }
  fleet.crash_domain(rack);  // overlapping fault: idempotent
  fleet.repair_domain(rack);
  EXPECT_EQ(fleet.up_servers().size(), 4u);
}

}  // namespace
}  // namespace aeva::core
