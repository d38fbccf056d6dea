#pragma once

/// \file proactive.hpp
/// The paper's contribution: proactive application-centric energy-aware VM
/// allocation (Sect. III-D, Fig. 3).
///
/// Given the empirical model database, an optimization goal α (1 → minimize
/// energy, 0 → minimize execution time, in between → weighted tradeoff), a
/// set of servers with their current allocations, and a set of VMs with
/// profiles and QoS deadlines, the allocator brute-force searches the set
/// partitions of the VM set (via the Orlov-style typed enumeration in
/// src/partition), scores every feasible partition by a database lookup,
/// and returns the placement that best matches the goal while satisfying
/// the QoS constraints. Ties between servers of equal rank resolve to the
/// first server of the list, as in the paper.
///
/// One search answers every call: `ProactiveAllocator` is a thin adapter
/// over one core::FleetState (incremental.hpp) — per-server nodes,
/// equivalence groups and a score memo that live across calls. Each call
/// syncs the fleet to its server span with deltas (one reset() when the
/// span changes in a way deltas cannot express, such as a new order) and
/// plans on it. A call that carries a ViewDelta (types.hpp) continuing
/// the view the fleet was last synced to applies only the changed ids,
/// so it costs O(changed servers) plus a fleet-size-independent plan —
/// the simulator's path. Any other call — the first, one from another
/// view or after a missed delta, one after a throw, one without a delta
/// (the decorators' path) — pays one linear compare walk over the span.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/cost_model.hpp"
#include "core/types.hpp"
#include "modeldb/database.hpp"
#include "obs/session.hpp"

namespace aeva::core {

/// Optimization goal shape.
enum class ProactiveGoal {
  /// The paper's α-weighted blend of energy and time.
  kAlphaWeighted,
  /// Minimize the energy-delay product (the database's EDP column):
  /// scale-free, parameterless middle ground between the two extremes.
  kEnergyDelayProduct,
};

/// Tuning of the proactive allocator.
struct ProactiveConfig {
  /// Goal shape; α applies only to the weighted form.
  ProactiveGoal goal = ProactiveGoal::kAlphaWeighted;
  /// Energy-vs-performance tradeoff: weight α on energy, 1−α on time.
  double alpha = 0.5;
  /// When true (default — "disregarding the QoS guarantees … might be not
  /// acceptable for production systems"), partitions whose estimated VM
  /// execution times violate a deadline are rejected; if *every* partition
  /// violates QoS, the allocation fails and the request stays queued.
  bool enforce_qos = true;
  /// With `enforce_qos`, permits falling back to the best QoS-violating
  /// placement instead of failing — the "relaxed" variant of Sect. III-D.
  bool fallback_best_effort = false;
  /// Brute-force budget: the search stops after examining this many
  /// partitions and returns the best found so far. The paper's requests
  /// carry 1–4 VMs, far below this bound.
  std::size_t max_partitions = 200000;
  /// Per-server VM cap (testbed benchmarked up to 16 VMs).
  int server_vm_cap = 16;
  /// Graceful degradation: when the proactive search cannot place a
  /// request (budget exhausted, every candidate violates QoS, or every
  /// compatible server is masked), retry it through a slot-based first-fit
  /// before rejecting. The result records which leg placed the request and
  /// why the primary failed (AllocationOutcome), so no allocation path can
  /// fail silently.
  bool degrade_to_first_fit = false;
  /// Multiplex factor of the first-fit fallback (VMs per CPU).
  int fallback_multiplex = 2;
  /// Per-job failure-domain spread constraint (docs/RESILIENCE.md,
  /// "Correlated failure domains"): hard per-domain cap on one request's
  /// VMs plus the optional blast-radius concentration penalty folded into
  /// the candidate rank. Disabled by default — placements are then
  /// bit-identical to the spread-free model. The first-fit degradation
  /// leg inherits the same constraint.
  SpreadConfig spread;

  // --- search execution (docs/PERFORMANCE.md) ------------------------------
  /// Search worker threads. The search always runs serially on the calling
  /// thread; any value other than 1 is rejected at construction.
  int search_threads = 1;

  // --- observability (docs/OBSERVABILITY.md) -------------------------------
  /// Metrics/tracing session shared with the rest of the run. Null (the
  /// default) disables instrumentation entirely: the allocator resolves no
  /// metric handles and the search pays only dead branch tests — outputs
  /// and placement decisions are bit-identical either way (the session is
  /// strictly read-only with respect to the search).
  std::shared_ptr<obs::Session> obs;
};

/// Candidate outcomes of one search — the `pa.search.*` tallies that
/// FleetState::plan() keeps and the allocator flushes
/// (docs/OBSERVABILITY.md).
struct PlanTallies {
  std::uint64_t evaluated = 0;          ///< candidates scored to the end
  std::uint64_t pruned_bound = 0;       ///< abandoned by branch-and-bound
  std::uint64_t pruned_infeasible = 0;  ///< some block had no host
};

/// The proactive allocator (strategies PA-1 / PA-0 / PA-0.5 of Sect. IV-D
/// are instances with α = 1, 0, 0.5).
class ProactiveAllocator final : public Allocator {
 public:
  /// Homogeneous fleet: one empirical model for every server. The database
  /// must outlive the allocator.
  ProactiveAllocator(const modeldb::ModelDatabase& db, ProactiveConfig config);

  /// Heterogeneous fleet (the paper's future work i): one model per
  /// hardware class; `ServerState::hardware` indexes into `dbs`. All
  /// databases must outlive the allocator; `dbs` must be non-empty and
  /// contain no nulls. Cost normalization references come from class 0.
  ProactiveAllocator(std::vector<const modeldb::ModelDatabase*> dbs,
                     ProactiveConfig config);

  /// Thread-safe and re-entrant: concurrent calls (e.g. through decorator
  /// guards) are safe. Each call holds the fleet mutex for its sync and
  /// plan, so concurrent callers take turns and every caller gets the
  /// same bits it would get alone.
  [[nodiscard]] AllocationResult allocate(
      std::span<const VmRequest> vms,
      std::span<const ServerState> servers) const override;

  /// As allocate(); a warm call writes into `out` without any heap
  /// allocation (the simulator's zero-alloc gate).
  void allocate_into(std::span<const VmRequest> vms,
                     std::span<const ServerState> servers,
                     AllocationResult& out) const override;

  /// As allocate_into(), applying `delta` instead of walking `servers`
  /// when the fleet was last synced to delta.view_id at sequence
  /// delta.sequence − 1; otherwise one full walk, after which the fleet
  /// follows this view. Calls that do not search (an empty request, one
  /// too wide for the spread cap) still apply the delta, so no journal
  /// entry is ever lost.
  void allocate_into(std::span<const VmRequest> vms,
                     std::span<const ServerState> servers,
                     const ViewDelta& delta,
                     AllocationResult& out) const override;

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const ProactiveConfig& config() const noexcept {
    return config_;
  }
  /// The hardware-class-0 cost model (homogeneous callers' view).
  [[nodiscard]] const CostModel& cost_model() const noexcept {
    return models_.front();
  }
  /// Cost model of a hardware class; throws on an unknown class.
  [[nodiscard]] const CostModel& cost_model(int hardware) const;

 private:
  /// Mutable search state shared by const allocate() calls (and by copies
  /// of the allocator): the FleetState and its mutex.
  struct SearchRuntime;

  /// Pre-resolved metric handles (all null when `config_.obs` is null, so
  /// the hot path guards on one pointer). Resolved once at construction;
  /// the registry owns the metrics and outlives us via `config_.obs`.
  struct ObsHandles {
    obs::Counter* calls = nullptr;
    obs::Counter* candidates = nullptr;
    obs::Counter* evaluated = nullptr;
    obs::Counter* pruned_bound = nullptr;
    obs::Counter* pruned_infeasible = nullptr;
    obs::Counter* placed_primary = nullptr;
    obs::Counter* placed_fallback = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* budget_truncated = nullptr;
    obs::Histogram* candidates_per_call = nullptr;
    obs::Gauge* memo_hits = nullptr;
    obs::Gauge* memo_misses = nullptr;
    obs::Gauge* memo_hit_rate = nullptr;
    obs::Gauge* memo_entries = nullptr;
    obs::Counter* fleet_resyncs = nullptr;
    obs::Counter* fleet_walks = nullptr;
  };

  /// Both allocate_into() overloads: `delta` is null for the plain one.
  void decide(std::span<const VmRequest> vms,
              std::span<const ServerState> servers, const ViewDelta* delta,
              AllocationResult& out) const;

  /// Flushes one call's `pa.*` search and outcome metrics. Callers guard
  /// on `obs_.calls` (observability on) and skip gathering the arguments
  /// otherwise.
  void flush_obs(const AllocationResult& result,
                 const PlanTallies& tally) const;

  ProactiveConfig config_;
  std::shared_ptr<SearchRuntime> runtime_;
  /// The cost models behind cost_model(); the fleet keeps its own copies.
  std::vector<CostModel> models_;
  ObsHandles obs_;
};

}  // namespace aeva::core
