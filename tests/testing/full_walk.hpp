#pragma once

/// \file full_walk.hpp
/// Test helper: a decorator that forwards only the plain
/// Allocator::allocate_into overload, so a core::ViewDelta the caller
/// passes is dropped and the inner allocator walks the whole server span
/// on every call — the reference side of the view-delta parity checks
/// (tests/datacenter/proactive_adapter_sim_test.cpp,
/// bench/event_loop_throughput).

#include <span>
#include <string>

#include "core/types.hpp"

namespace aeva::testing {

class FullWalkAllocator final : public core::Allocator {
 public:
  /// `inner` must outlive the decorator.
  explicit FullWalkAllocator(const core::Allocator& inner) : inner_(inner) {}

  [[nodiscard]] core::AllocationResult allocate(
      std::span<const core::VmRequest> vms,
      std::span<const core::ServerState> servers) const override {
    return inner_.allocate(vms, servers);
  }

  void allocate_into(std::span<const core::VmRequest> vms,
                     std::span<const core::ServerState> servers,
                     core::AllocationResult& out) const override {
    inner_.allocate_into(vms, servers, out);
  }

  /// The inner name: snapshots fingerprint it, and both paths must write
  /// the same bytes.
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const core::Allocator& inner_;
};

}  // namespace aeva::testing
