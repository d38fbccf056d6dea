#pragma once

/// \file reference_pa.hpp
/// Test helper: the plain per-server reference scorer of the proactive
/// allocator (Sect. III-D, Fig. 3), kept as the independent side of every
/// parity test.
///
/// It answers a call the most direct way: for every typed partition of
/// the request, in canonical enumeration order, each block is placed on
/// the best unused server by a full index-order scan of the span, and the
/// candidate is ranked and QoS-checked; the best candidate wins (ties →
/// the earlier one). No equivalence groups, no prefix reuse, no score
/// memo, no branch-and-bound pruning and no cached FleetState. The
/// production core::ProactiveAllocator must return the same bits on every
/// path — placements, score doubles, partitions examined and the
/// degradation record.

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/first_fit.hpp"
#include "core/proactive.hpp"
#include "core/types.hpp"
#include "modeldb/database.hpp"

namespace aeva::testing {

class ReferenceProactiveAllocator final : public core::Allocator {
 public:
  /// Homogeneous fleet. The database must outlive the allocator.
  ReferenceProactiveAllocator(const modeldb::ModelDatabase& db,
                              core::ProactiveConfig config);

  /// Heterogeneous fleet: `ServerState::hardware` indexes into `dbs`;
  /// normalization references come from class 0, as in production.
  ReferenceProactiveAllocator(std::vector<const modeldb::ModelDatabase*> dbs,
                              core::ProactiveConfig config);

  [[nodiscard]] core::AllocationResult allocate(
      std::span<const core::VmRequest> vms,
      std::span<const core::ServerState> servers) const override;

  /// The production allocator's name for the same config (a simulator
  /// snapshot fingerprints it, so reference runs must match it).
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  core::ProactiveConfig config_;
  std::string name_;
  std::vector<core::CostModel> models_;
  std::optional<core::FirstFitAllocator> fallback_;
};

}  // namespace aeva::testing
