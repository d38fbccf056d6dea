#include "core/first_fit.hpp"

#include "util/error.hpp"

namespace aeva::core {

FirstFitAllocator::FirstFitAllocator(int multiplex, int cpus_per_server)
    : FirstFitAllocator(multiplex, std::vector<int>{cpus_per_server}) {}
// Ctors run once per allocator; allocate() reuses thread_local scratch.
FirstFitAllocator::FirstFitAllocator(int multiplex,
                                     std::vector<int> cpus_by_hardware)
    : multiplex_(multiplex), cpus_by_hardware_(std::move(cpus_by_hardware)) {
  AEVA_REQUIRE(multiplex >= 1, "multiplex factor must be >= 1, got ",
               multiplex);
  AEVA_REQUIRE(!cpus_by_hardware_.empty(), "need at least one hardware class");
  for (const int cpus : cpus_by_hardware_) {
    AEVA_REQUIRE(cpus >= 1, "servers need at least one CPU");
  }
}

int FirstFitAllocator::server_capacity(int hardware) const {
  AEVA_REQUIRE(hardware >= 0 && static_cast<std::size_t>(hardware) <
                                    cpus_by_hardware_.size(),
               "unknown hardware class ", hardware);
  return multiplex_ * cpus_by_hardware_[static_cast<std::size_t>(hardware)];
}

AllocationResult FirstFitAllocator::allocate(
    std::span<const VmRequest> vms,
    std::span<const ServerState> servers) const {
  AllocationResult result;
  allocate_into(vms, servers, result);
  return result;
}

void FirstFitAllocator::allocate_into(std::span<const VmRequest> vms,
                                      std::span<const ServerState> servers,
                                      AllocationResult& out) const {
  out.placements.clear();
  out.score = AllocationScore{};
  out.complete = false;
  out.satisfied_qos = true;
  out.partitions_examined = 0;
  out.outcome = AllocationOutcome{};
  if (vms.empty()) {
    out.complete = true;
    return;
  }
  if (!spread_.feasible_width(vms.size())) {
    // No split of this request across the declared domains can respect the
    // per-domain cap — terminal, not a capacity wait (docs/RESILIENCE.md).
    out.outcome = AllocationOutcome{AllocationPath::kRejected,
                                    RejectReason::kSpreadInfeasible};
    return;
  }

  // Track residual capacity without mutating the caller's states. The
  // scratch is thread_local so the const interface stays thread-safe while
  // warm calls reuse its capacity (zero heap allocations in steady state).
  thread_local std::vector<int> free_slots;
  free_slots.clear();
  free_slots.reserve(servers.size());
  for (const ServerState& server : servers) {
    free_slots.push_back(server_capacity(server.hardware) -
                         server.allocated.total());
  }
  // This request's VMs per failure domain (spread constraint only;
  // unmapped servers stay unconstrained).
  thread_local DomainTally tally;
  tally.reset(spread_);

  for (const VmRequest& vm : vms) {
    bool placed = false;
    for (std::size_t s = 0; s < servers.size(); ++s) {
      if (free_slots[s] <= 0) {
        continue;
      }
      if (tally.blocked(servers[s].id)) {
        continue;  // the request is already at its cap in this domain
      }
      out.placements.push_back(Placement{vm.id, servers[s].id});
      --free_slots[s];
      tally.note(servers[s].id);
      placed = true;
      break;
    }
    if (!placed) {
      // All-or-nothing: the job request waits for capacity.
      out.placements.clear();
      out.complete = false;
      out.outcome = AllocationOutcome{
          AllocationPath::kRejected,
          servers.empty() ? RejectReason::kNoServers
                          : RejectReason::kNoFeasibleServer};
      return;
    }
  }
  out.complete = true;
}

std::string FirstFitAllocator::name() const {
  return multiplex_ == 1 ? "FF" : "FF-" + std::to_string(multiplex_);
}

}  // namespace aeva::core
