#include "core/baselines.hpp"

#include <algorithm>

#include "testbed/server_config.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "workload/registry.hpp"

namespace aeva::core {

using workload::ClassCounts;
using workload::ProfileClass;

// --- SlotFitAllocator -------------------------------------------------------

SlotFitAllocator::SlotFitAllocator(Policy policy, int multiplex,
                                   int cpus_per_server)
    : policy_(policy), multiplex_(multiplex), cpus_per_server_(cpus_per_server) {
  AEVA_REQUIRE(multiplex >= 1, "multiplex factor must be >= 1");
  AEVA_REQUIRE(cpus_per_server >= 1, "servers need at least one CPU");
}

AllocationResult SlotFitAllocator::allocate(
    std::span<const VmRequest> vms,
    std::span<const ServerState> servers) const {
  AllocationResult result;
  if (vms.empty()) {
    result.complete = true;
    return result;
  }
  if (!spread_.feasible_width(vms.size())) {
    result.outcome = AllocationOutcome{AllocationPath::kRejected,
                                       RejectReason::kSpreadInfeasible};
    return result;
  }
  std::vector<int> free_slots;
  free_slots.reserve(servers.size());
  for (const ServerState& server : servers) {
    free_slots.push_back(server_capacity() - server.allocated.total());
  }
  DomainTally tally;
  tally.reset(spread_);
  for (const VmRequest& vm : vms) {
    std::size_t chosen = servers.size();
    for (std::size_t s = 0; s < servers.size(); ++s) {
      if (free_slots[s] <= 0 ||
          tally.blocked(servers[s].id)) {
        continue;
      }
      if (chosen == servers.size()) {
        chosen = s;
        continue;
      }
      const bool better = policy_ == Policy::kBestFit
                              ? free_slots[s] < free_slots[chosen]
                              : free_slots[s] > free_slots[chosen];
      if (better) {
        chosen = s;
      }
    }
    if (chosen == servers.size()) {
      result.placements.clear();  // all-or-nothing
      result.outcome = AllocationOutcome{
          AllocationPath::kRejected,
          servers.empty() ? RejectReason::kNoServers
                          : RejectReason::kNoFeasibleServer};
      return result;
    }
    result.placements.push_back(Placement{vm.id, servers[chosen].id});
    --free_slots[chosen];
    tally.note(servers[chosen].id);
  }
  result.complete = true;
  return result;
}

std::string SlotFitAllocator::name() const {
  const std::string base = policy_ == Policy::kBestFit ? "BF" : "WF";
  return multiplex_ == 1 ? base : base + "-" + std::to_string(multiplex_);
}

// --- RandomFitAllocator -----------------------------------------------------

RandomFitAllocator::RandomFitAllocator(std::uint64_t seed, int multiplex,
                                       int cpus_per_server)
    : seed_(seed), multiplex_(multiplex), cpus_per_server_(cpus_per_server) {
  AEVA_REQUIRE(multiplex >= 1, "multiplex factor must be >= 1");
  AEVA_REQUIRE(cpus_per_server >= 1, "servers need at least one CPU");
}

AllocationResult RandomFitAllocator::allocate(
    std::span<const VmRequest> vms,
    std::span<const ServerState> servers) const {
  AllocationResult result;
  if (vms.empty()) {
    result.complete = true;
    return result;
  }
  if (!spread_.feasible_width(vms.size())) {
    result.outcome = AllocationOutcome{AllocationPath::kRejected,
                                       RejectReason::kSpreadInfeasible};
    return result;
  }
  // Derive a per-request stream so identical calls are reproducible while
  // distinct requests diverge.
  std::uint64_t mix = seed_;
  for (const VmRequest& vm : vms) {
    mix ^= util::splitmix64(mix) + static_cast<std::uint64_t>(vm.id);
  }
  util::Rng rng(mix);

  const int capacity = multiplex_ * cpus_per_server_;
  std::vector<int> free_slots;
  free_slots.reserve(servers.size());
  for (const ServerState& server : servers) {
    free_slots.push_back(capacity - server.allocated.total());
  }
  DomainTally tally;
  tally.reset(spread_);
  for (const VmRequest& vm : vms) {
    std::vector<std::size_t> candidates;
    for (std::size_t s = 0; s < servers.size(); ++s) {
      if (free_slots[s] > 0 &&
          !tally.blocked(servers[s].id)) {
        candidates.push_back(s);
      }
    }
    if (candidates.empty()) {
      result.placements.clear();
      result.outcome = AllocationOutcome{
          AllocationPath::kRejected,
          servers.empty() ? RejectReason::kNoServers
                          : RejectReason::kNoFeasibleServer};
      return result;
    }
    const std::size_t pick = candidates[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
    result.placements.push_back(Placement{vm.id, servers[pick].id});
    --free_slots[pick];
    tally.note(servers[pick].id);
  }
  result.complete = true;
  return result;
}

std::string RandomFitAllocator::name() const {
  return multiplex_ == 1 ? "RAND" : "RAND-" + std::to_string(multiplex_);
}

// --- VectorFitAllocator -----------------------------------------------------

VectorFitAllocator::VectorFitAllocator(
    std::array<DemandVector, workload::kProfileClassCount> demands,
    double overcommit)
    : demands_(demands), overcommit_(overcommit) {
  AEVA_REQUIRE(overcommit_ >= 1.0, "overcommit must be >= 1, got ",
               overcommit_);
  for (const DemandVector& d : demands_) {
    AEVA_REQUIRE(d.cpu >= 0.0 && d.mem >= 0.0 && d.disk >= 0.0 &&
                     d.net >= 0.0,
                 "negative demand component");
    AEVA_REQUIRE(d.cpu > 0.0 || d.mem > 0.0 || d.disk > 0.0 || d.net > 0.0,
                 "all-zero demand vector");
  }
}

VectorFitAllocator VectorFitAllocator::from_registry(double overcommit) {
  const testbed::ServerConfig server = testbed::testbed_server();
  std::array<DemandVector, workload::kProfileClassCount> demands{};
  for (const ProfileClass profile : workload::kAllProfileClasses) {
    const workload::AppSpec& app = workload::canonical_app(profile);
    const workload::Demand avg = app.average_demand();
    DemandVector& d = demands[static_cast<std::size_t>(profile)];
    d.cpu = avg.cpu_cores / server.cores;
    d.mem = app.mem_footprint_mb / server.guest_mem_mb();
    d.disk = avg.disk_mbps / server.disk_capacity_mbps();
    d.net = avg.net_mbps / server.net_capacity_mbps();
  }
  return VectorFitAllocator(demands, overcommit);
}

namespace {

DemandVector used_vector(
    const ClassCounts& counts,
    const std::array<DemandVector, workload::kProfileClassCount>& demands) {
  DemandVector used;
  for (const ProfileClass profile : workload::kAllProfileClasses) {
    const DemandVector& d = demands[static_cast<std::size_t>(profile)];
    const double n = counts.of(profile);
    used.cpu += n * d.cpu;
    used.mem += n * d.mem;
    used.disk += n * d.disk;
    used.net += n * d.net;
  }
  return used;
}

}  // namespace

AllocationResult VectorFitAllocator::allocate(
    std::span<const VmRequest> vms,
    std::span<const ServerState> servers) const {
  AllocationResult result;
  if (vms.empty()) {
    result.complete = true;
    return result;
  }
  if (!spread_.feasible_width(vms.size())) {
    result.outcome = AllocationOutcome{AllocationPath::kRejected,
                                       RejectReason::kSpreadInfeasible};
    return result;
  }
  std::vector<DemandVector> used;
  used.reserve(servers.size());
  for (const ServerState& server : servers) {
    used.push_back(used_vector(server.allocated, demands_));
  }
  DomainTally tally;
  tally.reset(spread_);
  for (const VmRequest& vm : vms) {
    const DemandVector& d = demands_[static_cast<std::size_t>(vm.profile)];
    std::size_t chosen = servers.size();
    double best_dot = -1.0;
    for (std::size_t s = 0; s < servers.size(); ++s) {
      if (tally.blocked(servers[s].id)) {
        continue;
      }
      const DemandVector& u = used[s];
      const bool fits = u.cpu + d.cpu <= overcommit_ &&
                        u.mem + d.mem <= overcommit_ &&
                        u.disk + d.disk <= overcommit_ &&
                        u.net + d.net <= overcommit_;
      if (!fits) {
        continue;
      }
      // Dot-product heuristic: align the VM with the server whose residual
      // capacity is largest along the VM's heavy dimensions.
      const double dot = d.cpu * (overcommit_ - u.cpu) +
                         d.mem * (overcommit_ - u.mem) +
                         d.disk * (overcommit_ - u.disk) +
                         d.net * (overcommit_ - u.net);
      if (dot > best_dot + 1e-15) {
        best_dot = dot;
        chosen = s;
      }
    }
    if (chosen == servers.size()) {
      result.placements.clear();
      result.outcome = AllocationOutcome{
          AllocationPath::kRejected,
          servers.empty() ? RejectReason::kNoServers
                          : RejectReason::kNoFeasibleServer};
      return result;
    }
    result.placements.push_back(Placement{vm.id, servers[chosen].id});
    used[chosen].cpu += d.cpu;
    used[chosen].mem += d.mem;
    used[chosen].disk += d.disk;
    used[chosen].net += d.net;
    tally.note(servers[chosen].id);
  }
  result.complete = true;
  return result;
}

std::string VectorFitAllocator::name() const {
  return overcommit_ == 1.0
             ? "VEC"
             : "VEC-" + util::format_fixed(overcommit_, 1);
}

}  // namespace aeva::core
