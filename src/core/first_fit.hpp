#pragma once

/// \file first_fit.hpp
/// The paper's baseline strategies (Sect. IV-D):
///
///  * FIRST-FIT (FF): an incoming job request is allocated to the first
///    available server until the number of allocated VMs equals the number
///    of CPUs (no VM multiplexing on CPUs).
///  * FIRST-FIT-2 / FIRST-FIT-3 (FF-2, FF-3): variants allowing up to 2 or
///    3 VMs multiplexed on each CPU.

#include <utility>

#include "core/types.hpp"

namespace aeva::core {

/// First-fit by CPU slots, blind to application profiles.
class FirstFitAllocator final : public Allocator {
 public:
  /// `multiplex` = VMs allowed per CPU (1 → FF, 2 → FF-2, 3 → FF-3);
  /// `cpus_per_server` matches the testbed (4).
  explicit FirstFitAllocator(int multiplex, int cpus_per_server = 4);

  /// Heterogeneous fleet: CPUs per hardware class, indexed by
  /// `ServerState::hardware` (must be non-empty, all entries ≥ 1).
  FirstFitAllocator(int multiplex, std::vector<int> cpus_by_hardware);

  /// Engages the per-job failure-domain spread constraint
  /// (docs/RESILIENCE.md "Correlated failure domains"): at most
  /// SpreadConfig::max_vms_per_domain VMs of one request per domain,
  /// with structurally-too-wide requests rejected as kSpreadInfeasible.
  /// Disabled configs are inert (bit-identical to the spread-free scan).
  /// Throws std::invalid_argument when SpreadConfig::validate() does.
  void set_spread(SpreadConfig spread) {
    spread.validate();
    spread_ = std::move(spread);
  }
  [[nodiscard]] const SpreadConfig& spread() const noexcept {
    return spread_;
  }

  [[nodiscard]] AllocationResult allocate(
      std::span<const VmRequest> vms,
      std::span<const ServerState> servers) const override;

  /// Zero-alloc override: fills `out` in place (placements capacity
  /// retained) and tracks residual slots in a thread-local scratch that
  /// keeps its capacity, so a warm call performs no heap allocation.
  void allocate_into(std::span<const VmRequest> vms,
                     std::span<const ServerState> servers,
                     AllocationResult& out) const override;

  [[nodiscard]] std::string name() const override;

  /// VM capacity of a class-0 server under this strategy.
  [[nodiscard]] int server_capacity() const noexcept {
    return multiplex_ * cpus_by_hardware_.front();
  }

  /// VM capacity of a server of the given hardware class; throws on an
  /// unknown class.
  [[nodiscard]] int server_capacity(int hardware) const;

 private:
  int multiplex_;
  std::vector<int> cpus_by_hardware_;
  SpreadConfig spread_;
};

}  // namespace aeva::core
