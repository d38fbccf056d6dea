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
/// Two searches answer a call, with the same bits:
/// - **Incremental (the default path).** The allocator caches one
///   core::FleetState (incremental.hpp) — per-server nodes, equivalence
///   groups and a score memo that live across calls — and syncs it to
///   each call's server span with deltas before planning on it. A call
///   therefore costs one linear compare walk over the span plus a
///   fleet-size-independent plan, instead of rebuilding O(fleet) context.
///   It runs when the serial optimized search would: `force_serial` off,
///   one search worker, spread off, and server ids strictly ascending
///   (FleetState breaks ties by id, the batch search by span position).
/// - **Batch.** Every other call (spread configs, reordered spans such as
///   the thermal guard's, `search_threads > 1`, or a contended fleet
///   lock) rebuilds its context per call. Its candidate scoring can fan
///   out over a worker pool with memoized database lookups and
///   branch-and-bound pruning; the reduction is deterministic (min by
///   score, ties to the earliest candidate in canonical enumeration
///   order), so every execution mode returns the same bits as the serial
///   reference — see the search-execution knobs on ProactiveConfig and
///   docs/PERFORMANCE.md.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/cost_model.hpp"
#include "core/first_fit.hpp"
#include "core/types.hpp"
#include "modeldb/database.hpp"
#include "modeldb/estimate_cache.hpp"
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
  // The knobs below change only how fast the search runs, never what it
  // returns: parallel, memoized, and pruned searches are bit-identical to
  // the serial reference (regression-tested, including under TSan).
  /// Worker threads scoring candidates: 1 → score on the calling thread;
  /// 0 → one worker per hardware thread; N → a pool of N workers (created
  /// lazily on first use, reused across allocate() calls).
  int search_threads = 1;
  /// Candidates per work unit handed to a pool worker. Larger chunks
  /// amortize dispatch; smaller chunks spread uneven candidate costs.
  std::size_t search_chunk = 64;
  /// Memoize model-database estimates in a sharded, mutex-striped cache
  /// (modeldb::EstimateCache) shared by all workers and re-used across
  /// allocate() calls — repeated (Ncpu, Nmem, Nio) lookups hit memory
  /// instead of binary search.
  bool memoize_estimates = true;
  /// Branch-and-bound: abandon a candidate as soon as a sound lower bound
  /// on its final rank exceeds the best complete candidate found so far.
  /// Automatically inert when no sound bound exists (EDP goal, or an
  /// energy-non-monotone database under α > 0) — see docs/PERFORMANCE.md.
  bool prune_search = true;
  /// Escape hatch: force the plain single-threaded reference scorer (no
  /// pool, no memo cache, no pruning), ignoring the three knobs above.
  /// The equality tests pin the optimized paths to this one.
  bool force_serial = false;

  // --- observability (docs/OBSERVABILITY.md) -------------------------------
  /// Metrics/tracing session shared with the rest of the run. Null (the
  /// default) disables instrumentation entirely: the allocator resolves no
  /// metric handles and the search pays only dead branch tests — outputs
  /// and placement decisions are bit-identical either way (the session is
  /// strictly read-only with respect to the search).
  std::shared_ptr<obs::Session> obs;
};

/// Candidate outcomes of one search — the `pa.search.*` tallies — kept by
/// the batch search and by FleetState::plan() alike, so either path
/// flushes the same counters (docs/OBSERVABILITY.md).
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
  /// guards) are safe. The cached FleetState sits behind a mutex that a
  /// call only try-locks — a call that finds it busy runs the batch search
  /// instead of waiting — the memo cache is internally synchronized, and
  /// the worker pool serializes its fan-out phases, so every caller still
  /// gets the bit-exact serial-reference answer.
  [[nodiscard]] AllocationResult allocate(
      std::span<const VmRequest> vms,
      std::span<const ServerState> servers) const override;

  /// As allocate(); on the incremental path a warm call writes into `out`
  /// without any heap allocation (the simulator's zero-alloc gate).
  void allocate_into(std::span<const VmRequest> vms,
                     std::span<const ServerState> servers,
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

  /// Aggregated memo-cache statistics of the batch search over all
  /// hardware classes (zeros when `memoize_estimates` is off or
  /// `force_serial` is on; the incremental path keeps its own score memo,
  /// reported as `pa.memo.*` — docs/OBSERVABILITY.md).
  [[nodiscard]] modeldb::EstimateCache::Stats memo_stats() const;

  /// Re-warms the per-hardware-class estimate memo caches against a fleet
  /// — one estimate() per occupied server — and returns how many entries
  /// were touched. A process restored from a snapshot
  /// (docs/RESILIENCE.md) calls this with the restored server states so
  /// its first admissions after resume do not pay cold-cache latency.
  /// No-op (returns 0) when memoization is off or `force_serial` is set;
  /// never changes any allocation decision (the cache is semantically
  /// transparent).
  std::size_t rewarm(std::span<const ServerState> servers) const;

 private:
  /// Mutable search machinery shared by const allocate() calls (and by
  /// copies of the allocator): the cached FleetState of the incremental
  /// path and the worker pool of the parallel batch search, each created
  /// lazily under its mutex on first use and reused afterwards.
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
    obs::Histogram* chunk_evaluated = nullptr;
    obs::Gauge* workers = nullptr;
    obs::Gauge* memo_hits = nullptr;
    obs::Gauge* memo_misses = nullptr;
    obs::Gauge* memo_hit_rate = nullptr;
    obs::Gauge* memo_entries = nullptr;
    obs::Counter* fleet_resyncs = nullptr;
  };

  /// The incremental path: syncs the cached FleetState to `servers` and
  /// plans on it. False when the call must run the batch search instead
  /// (fleet lock busy, or ids not strictly ascending).
  bool plan_incremental(std::span<const VmRequest> vms,
                        std::span<const ServerState> servers,
                        AllocationResult& out) const;
  /// The batch search: rebuilds the evaluation context from `servers`.
  [[nodiscard]] AllocationResult search(
      std::span<const VmRequest> vms,
      std::span<const ServerState> servers) const;
  /// Flushes one call's `pa.*` metrics. Callers guard on `obs_.calls`
  /// (observability on) and skip gathering the arguments otherwise.
  void flush_obs(const AllocationResult& result, const PlanTallies& tally,
                 std::size_t workers,
                 const modeldb::EstimateCache::Stats& memo) const;

  ProactiveConfig config_;
  /// Calls may take the incremental path: force_serial off, one search
  /// worker, spread off (fixed at construction).
  bool incremental_ = false;
  std::vector<CostModel> models_;
  /// Per-hardware-class memo caches (engaged with `memoize_estimates`;
  /// attached to the corresponding CostModel).
  std::vector<std::shared_ptr<modeldb::EstimateCache>> memos_;
  std::shared_ptr<SearchRuntime> runtime_;
  /// Degradation leg (engaged only with `degrade_to_first_fit`).
  std::optional<FirstFitAllocator> fallback_;
  ObsHandles obs_;
};

}  // namespace aeva::core
