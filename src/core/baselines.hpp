#pragma once

/// \file baselines.hpp
/// State-of-the-art baseline allocators beyond the paper's first-fit
/// family. The paper lists "compare our proposed solution against some of
/// the state of the art … by implementing them" as ongoing work
/// (Sect. V); these are the classic slot- and vector-packing heuristics
/// that the consolidation literature it cites ([5], [15]) builds on:
///
///  * BEST-FIT   — place on the feasible server with the *least* remaining
///                 slots (tightest fit; classic bin-packing heuristic).
///  * WORST-FIT  — place on the feasible server with the *most* remaining
///                 slots (load levelling).
///  * RANDOM-FIT — place uniformly at random among feasible servers
///                 (seeded, deterministic), the usual sanity baseline.
///  * VECTOR-FIT — dot-product vector bin packing (Panigrahy et al.):
///                 application-aware through per-class average demand
///                 vectors, but model-free — the strongest non-empirical
///                 competitor to the paper's database-driven approach.

#include <array>
#include <cstdint>
#include <utility>

#include "core/types.hpp"
#include "util/rng.hpp"

namespace aeva::core {

/// Slot-based best-fit / worst-fit over CPU slots, mirroring the paper's
/// first-fit capacity rule (multiplex × CPUs VMs per server).
class SlotFitAllocator final : public Allocator {
 public:
  enum class Policy { kBestFit, kWorstFit };

  SlotFitAllocator(Policy policy, int multiplex, int cpus_per_server = 4);

  /// Per-job failure-domain spread constraint (docs/RESILIENCE.md,
  /// "Correlated failure domains"); a disabled config is inert and the
  /// scan stays bit-identical to the spread-free baseline. Throws
  /// std::invalid_argument when SpreadConfig::validate() does.
  void set_spread(SpreadConfig spread) {
    spread.validate();
    spread_ = std::move(spread);
  }

  [[nodiscard]] AllocationResult allocate(
      std::span<const VmRequest> vms,
      std::span<const ServerState> servers) const override;

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] int server_capacity() const noexcept {
    return multiplex_ * cpus_per_server_;
  }

 private:
  Policy policy_;
  int multiplex_;
  int cpus_per_server_;
  SpreadConfig spread_;
};

/// Uniform random placement among servers with a free slot. Deterministic
/// in its seed; a fresh stream is derived per allocate() call from the
/// request ids so repeated identical calls stay reproducible.
class RandomFitAllocator final : public Allocator {
 public:
  RandomFitAllocator(std::uint64_t seed, int multiplex,
                     int cpus_per_server = 4);

  /// As SlotFitAllocator::set_spread. The quota filter narrows the
  /// candidate set *before* the uniform pick, so the RNG stream still
  /// advances once per VM.
  void set_spread(SpreadConfig spread) {
    spread.validate();
    spread_ = std::move(spread);
  }

  [[nodiscard]] AllocationResult allocate(
      std::span<const VmRequest> vms,
      std::span<const ServerState> servers) const override;

  [[nodiscard]] std::string name() const override;

 private:
  std::uint64_t seed_;
  int multiplex_;
  int cpus_per_server_;
  SpreadConfig spread_;
};

/// Per-VM resource demand vector used by VECTOR-FIT (normalized to server
/// capacity per dimension).
struct DemandVector {
  double cpu = 0.0;   ///< cores / server cores
  double mem = 0.0;   ///< resident footprint / guest memory
  double disk = 0.0;  ///< MB/s / aggregate disk bandwidth
  double net = 0.0;   ///< MB/s / aggregate NIC bandwidth
};

/// Capacity- and demand-vector-aware packing: each VM consumes its class's
/// normalized demand vector; a server fits a VM when every dimension stays
/// below `overcommit`; among fitting servers the one with the largest
/// dot-product between the VM demand and the remaining capacity wins
/// (Panigrahy et al. dot-product heuristic). Ties → first server.
class VectorFitAllocator final : public Allocator {
 public:
  /// `demands` indexed by ProfileClass. `overcommit` ≥ 1 allows bounded
  /// oversubscription per dimension (1.0 = strict vector bin packing).
  VectorFitAllocator(
      std::array<DemandVector, workload::kProfileClassCount> demands,
      double overcommit = 1.0);

  /// Builds the per-class demand vectors from the canonical benchmark
  /// models on the given server hardware.
  [[nodiscard]] static VectorFitAllocator from_registry(double overcommit);

  /// As SlotFitAllocator::set_spread.
  void set_spread(SpreadConfig spread) {
    spread.validate();
    spread_ = std::move(spread);
  }

  [[nodiscard]] AllocationResult allocate(
      std::span<const VmRequest> vms,
      std::span<const ServerState> servers) const override;

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const DemandVector& demand_of(
      workload::ProfileClass profile) const {
    return demands_[static_cast<std::size_t>(profile)];
  }

 private:
  std::array<DemandVector, workload::kProfileClassCount> demands_;
  double overcommit_;
  SpreadConfig spread_;
};

}  // namespace aeva::core
