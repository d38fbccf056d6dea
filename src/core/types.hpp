#pragma once

/// \file types.hpp
/// Common vocabulary of the allocation layer.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "workload/profile.hpp"

namespace aeva::core {

/// One VM awaiting placement: its application profile (assumed known in
/// advance, e.g. specified in the job definition — Sect. III) and its QoS
/// guarantee (maximum execution time).
struct VmRequest {
  std::int64_t id = 0;
  workload::ProfileClass profile{};
  double max_exec_time_s = std::numeric_limits<double>::infinity();
};

/// A physical server and its current allocation, summarized as class
/// counts (all the model database needs), plus whether it has been powered
/// on. Servers power on at first use and stay on for the rest of the run
/// (Sect. IV-A fixes a 125 W draw for a powered-on server); an energy-aware
/// allocator therefore pays a premium for waking a cold server.
struct ServerState {
  int id = 0;
  workload::ClassCounts allocated;
  bool powered = false;
  /// Hardware class index (heterogeneous-fleet extension): selects which
  /// empirical model describes this machine. 0 is the default testbed.
  int hardware = 0;

  [[nodiscard]] bool empty() const noexcept { return allocated.total() == 0; }
};

/// One placement decision: VM → server.
struct Placement {
  std::int64_t vm_id = 0;
  int server_id = 0;
};

/// Per-job failure-domain spread constraint (docs/RESILIENCE.md,
/// "Correlated failure domains"): at most `max_vms_per_domain` VMs of a
/// single request may land on servers sharing a failure domain (typically
/// a rack — datacenter::spread_by_rack builds the map from a Topology).
/// Enforced uniformly by every allocator through the shared span entry
/// points; a request wider than max_vms_per_domain × domain_count is
/// structurally unplaceable and rejects with the terminal
/// RejectReason::kSpreadInfeasible. When disabled (the default) every
/// field is inert and allocator behaviour is bit-identical to the
/// spread-free model.
struct SpreadConfig {
  bool enabled = false;
  /// Cap on one request's VMs per failure domain (>= 1 when enabled).
  int max_vms_per_domain = 1;
  /// Dense server-id → domain-id map with domain ids in
  /// [0, domain_count); −1, or an id past the end of the map, marks an
  /// unmapped server, which no cap constrains. validate() rejects any
  /// other value.
  std::vector<int> domain_of_server;
  /// Number of distinct failure domains (the structural-feasibility
  /// bound: a request of n VMs needs n <= max_vms_per_domain × this).
  int domain_count = 0;
  /// Weight of the expected-lost-work concentration penalty the
  /// proactive score adds on top of the α-weighted rank: blast_penalty ×
  /// Σ_d (n_d / n)², where n_d counts the request's VMs in domain d. The
  /// sum is the probability two of the job's VMs share a failing domain
  /// (a Herfindahl index in (0, 1]), so the term is the job's expected
  /// blast-radius fraction under a single-domain fault. 0 disables the
  /// penalty while keeping the hard cap.
  double blast_penalty = 0.0;

  /// Domain of one server id, or -1 when the id is outside the map
  /// (callers treat unmapped servers as unconstrained).
  [[nodiscard]] int domain_of(int server_id) const noexcept {
    if (server_id < 0 ||
        static_cast<std::size_t>(server_id) >= domain_of_server.size()) {
      return -1;
    }
    return domain_of_server[static_cast<std::size_t>(server_id)];
  }

  /// Structural feasibility of an n-VM request under the cap.
  [[nodiscard]] bool feasible_width(std::size_t n_vms) const noexcept {
    if (!enabled) return true;
    const auto cap = static_cast<std::size_t>(max_vms_per_domain) *
                     static_cast<std::size_t>(domain_count);
    return n_vms <= cap;
  }

  /// The one spread-config check, run by every allocator's set_spread()
  /// and by FleetState::validate(): an enabled config needs a cap >= 1,
  /// at least one domain, and every map entry in [-1, domain_count) —
  /// the per-domain tallies are indexed by those entries. Throws
  /// std::invalid_argument; a disabled config is inert and passes.
  void validate() const {
    if (!enabled) return;
    AEVA_REQUIRE(max_vms_per_domain >= 1, "spread cap must be >= 1, got ",
                 max_vms_per_domain);
    AEVA_REQUIRE(domain_count >= 1, "spread needs at least one failure domain");
    for (const int domain : domain_of_server) {
      AEVA_REQUIRE(domain >= -1 && domain < domain_count, "spread domain ",
                   domain, " outside [-1, ", domain_count, ")");
    }
  }
};

/// One request's VMs per failure domain, shared by the first-fit family's
/// scans. The counts live in a vector that keeps its capacity, so a
/// caller that keeps its tally across calls (first-fit holds one per
/// thread) allocates nothing on a warm call. Inert (never
/// blocks, records nothing) while the spread config is disabled; the
/// config must have passed SpreadConfig::validate().
class DomainTally {
 public:
  /// Starts a request: zero counts for every domain of `spread`, which
  /// must outlive the request's blocked()/note() calls.
  void reset(const SpreadConfig& spread) {
    spread_ = &spread;
    if (spread.enabled) {
      used_.assign(static_cast<std::size_t>(spread.domain_count), 0);
    }
  }

  /// True when one more of the request's VMs on `server_id` would break
  /// the per-domain cap (unmapped servers are never capped).
  [[nodiscard]] bool blocked(int server_id) const noexcept {
    if (!spread_->enabled) return false;
    const int domain = spread_->domain_of(server_id);
    return domain >= 0 && used_[static_cast<std::size_t>(domain)] >=
                              spread_->max_vms_per_domain;
  }

  /// Records one placed VM against its server's domain.
  void note(int server_id) noexcept {
    if (!spread_->enabled) return;
    const int domain = spread_->domain_of(server_id);
    if (domain >= 0) {
      ++used_[static_cast<std::size_t>(domain)];
    }
  }

 private:
  const SpreadConfig* spread_ = nullptr;
  std::vector<int> used_;
};

/// Estimated cost of an accepted allocation.
struct AllocationScore {
  double est_time_s = 0.0;    ///< mean estimated per-VM execution time
  double est_energy_j = 0.0;  ///< total marginal energy across servers
  double combined = 0.0;      ///< α-weighted rank (lower is better)
};

/// Which leg of the degradation chain produced the result. Production
/// allocators degrade along an explicit chain (primary strategy →
/// first-fit fallback → reject-with-reason) instead of silently handing
/// back worst-case placements or empty results.
enum class AllocationPath {
  kPrimary,          ///< the strategy's own search placed the request
  kFallbackFirstFit, ///< primary failed; a first-fit fallback placed it
  kRejected,         ///< nothing could place it — see `reason`
  kIncremental,      ///< the incremental fleet planner placed it
                     ///< (core::FleetState — same search, cached state)
};

/// Why the primary strategy could not place a request (also attached to
/// fallback results, recording what the fallback recovered from). The
/// serve layer (src/serve/) extends the taxonomy with admission-level
/// rejections — a request can be turned away before any allocator runs.
enum class RejectReason {
  kNone,                   ///< placed by the primary path
  kNoServers,              ///< empty server list — all masked or failed
  kNoFeasibleServer,       ///< capacity/feasibility exhausted everywhere
  kSearchBudgetExhausted,  ///< partition budget hit before any candidate
  kQosInfeasible,          ///< candidates exist, all violate a deadline
  kGuardRejected,          ///< a decorator (power cap, …) vetoed the result
  // --- admission-level rejections (src/serve/, docs/RESILIENCE.md) ---------
  kAdmissionQueueFull,     ///< bounded admission queue at capacity
  kAdmissionShed,          ///< load-shedding policy evicted/refused it
  kDeadlineUnmeetable,     ///< predicted queueing delay exceeds the deadline
  kDeadlineExpired,        ///< the deadline had already passed
  kRetriesExhausted,       ///< retryable rejections, but no retry budget left
  /// The request structurally cannot satisfy its failure-domain spread
  /// constraint: more VMs than max_vms_per_domain × domain count
  /// (SpreadConfig below, docs/RESILIENCE.md "Correlated failure
  /// domains"). Terminal — no amount of freed capacity changes the
  /// arithmetic; the job must be resubmitted narrower or the constraint
  /// relaxed.
  kSpreadInfeasible,
};

/// Number of RejectReason values (array-index bound for per-reason tallies).
inline constexpr std::size_t kRejectReasonCount = 12;

/// Retryable/terminal classification of a rejection (docs/RESILIENCE.md,
/// "Overload protection"). **Retryable** means the condition is
/// load-dependent: capacity frees up, servers repair, contention drops, a
/// power cap lifts, the queue drains — a client-side retry with backoff
/// (serve::RetryConfig) is meaningful. **Terminal** means retrying the
/// same request cannot help: its deadline is gone or its retry budget is
/// spent. `kNone` is not a rejection and classifies as terminal so nothing
/// ever retries a placed request.
[[nodiscard]] constexpr bool is_retryable(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kNoServers:
    case RejectReason::kNoFeasibleServer:
    case RejectReason::kSearchBudgetExhausted:
    case RejectReason::kQosInfeasible:
    case RejectReason::kGuardRejected:
    case RejectReason::kAdmissionQueueFull:
    case RejectReason::kAdmissionShed:
    case RejectReason::kDeadlineUnmeetable:
      return true;
    case RejectReason::kNone:
    case RejectReason::kDeadlineExpired:
    case RejectReason::kRetriesExhausted:
    case RejectReason::kSpreadInfeasible:
      return false;
  }
  return false;
}

/// Degradation record of one allocation call: which path produced the
/// placements and, when the primary failed, why. Callers and tests assert
/// on this instead of inferring behaviour from `complete` alone.
struct AllocationOutcome {
  AllocationPath path = AllocationPath::kPrimary;
  RejectReason reason = RejectReason::kNone;
  /// True when the search stopped at its partition budget
  /// (ProactiveConfig::max_partitions) before exhausting the candidate
  /// space: the placement is the best of what was examined, not provably
  /// the best overall. Degraded-quality allocations are thereby
  /// distinguishable from exhaustive ones (obs counter
  /// `pa.search.budget_truncated` aggregates them per run).
  bool search_truncated = false;
};

[[nodiscard]] constexpr const char* to_string(AllocationPath path) noexcept {
  switch (path) {
    case AllocationPath::kPrimary: return "primary";
    case AllocationPath::kFallbackFirstFit: return "fallback-first-fit";
    case AllocationPath::kRejected: return "rejected";
    case AllocationPath::kIncremental: return "incremental";
  }
  return "?";
}

[[nodiscard]] constexpr const char* to_string(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kNoServers: return "no-servers";
    case RejectReason::kNoFeasibleServer: return "no-feasible-server";
    case RejectReason::kSearchBudgetExhausted:
      return "search-budget-exhausted";
    case RejectReason::kQosInfeasible: return "qos-infeasible";
    case RejectReason::kGuardRejected: return "guard-rejected";
    case RejectReason::kAdmissionQueueFull: return "admission-queue-full";
    case RejectReason::kAdmissionShed: return "admission-shed";
    case RejectReason::kDeadlineUnmeetable: return "deadline-unmeetable";
    case RejectReason::kDeadlineExpired: return "deadline-expired";
    case RejectReason::kRetriesExhausted: return "retries-exhausted";
    case RejectReason::kSpreadInfeasible: return "spread-infeasible";
  }
  return "?";
}

/// "retryable" / "terminal" label for report tables (datacenter_sim,
/// aeva_serve) — pairs with is_retryable() above.
[[nodiscard]] constexpr const char* retry_class(RejectReason reason) noexcept {
  return is_retryable(reason) ? "retryable" : "terminal";
}

/// Outcome of one allocation call.
struct AllocationResult {
  std::vector<Placement> placements;
  AllocationScore score;
  bool complete = false;       ///< every requested VM was placed
  bool satisfied_qos = true;   ///< no estimated deadline violations
  std::size_t partitions_examined = 0;  ///< search effort (proactive only)
  AllocationOutcome outcome;   ///< degradation-chain record
};

/// What changed in a caller-maintained server span since that caller's
/// previous allocation call (see Allocator::allocate_into). The producer
/// mints `view_id` per span and mints a new one whenever it rebuilds the
/// span wholesale (snapshot restore); `sequence` counts the producer's
/// deltas, so a consumer that missed one sees the gap. A span carrying a
/// delta is id-ascending, and differs from the span of the delta before
/// (same `view_id`, `sequence` − 1) only at `changed_ids`: the distinct,
/// ascending ids whose entry changed or that joined or left the span.
struct ViewDelta {
  std::uint64_t view_id = 0;  ///< 0 is never minted
  std::uint64_t sequence = 0;
  std::span<const int> changed_ids;
};

/// A fresh ViewDelta::view_id: process-unique, so one allocator shared by
/// several views tells their deltas apart. Never 0.
[[nodiscard]] inline std::uint64_t mint_view_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Strategy interface shared by the proactive allocator and the first-fit
/// baselines; the datacenter simulator drives either uniformly.
///
/// Both entry points take spans, so callers hand over whatever contiguous
/// view they already own — a vector, a reused scratch buffer, or the
/// simulator's incrementally maintained fleet view — without materializing
/// a fresh container per decision (docs/PERFORMANCE.md "Event-loop
/// throughput").
class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Places `vms` onto `servers` (whose states reflect current residency).
  /// Implementations never mutate `servers`; the caller applies the
  /// returned placements. When the cluster lacks room, `complete` is false
  /// and `placements` is empty — allocation is all-or-nothing per request,
  /// matching the paper's per-job-request granularity.
  [[nodiscard]] virtual AllocationResult allocate(
      std::span<const VmRequest> vms,
      std::span<const ServerState> servers) const = 0;

  /// Allocation-reusing variant for hot callers (the simulator's event
  /// loop): writes the result into `out`, whose `placements` capacity is
  /// retained across calls. The default delegates to allocate(); cheap
  /// strategies (FirstFitAllocator) override it to fill `out` in place so
  /// a warm steady-state admission performs zero heap allocations.
  virtual void allocate_into(std::span<const VmRequest> vms,
                             std::span<const ServerState> servers,
                             AllocationResult& out) const {
    out = allocate(vms, servers);
  }

  /// allocate_into() plus what changed in `servers` since the caller's
  /// previous call (docs/API.md "View deltas"). A caller that keeps its
  /// span current in place — the simulator's fleet view — journals the
  /// ids it touched, so an allocator that mirrors the fleet can apply
  /// those instead of walking the whole span. The default ignores the
  /// delta and forwards to the overload above; decorators that reorder
  /// or filter the span keep that default.
  virtual void allocate_into(std::span<const VmRequest> vms,
                             std::span<const ServerState> servers,
                             const ViewDelta& /*delta*/,
                             AllocationResult& out) const {
    allocate_into(vms, servers, out);
  }

  /// Display name, e.g. "FF-2" or "PA-0.5".
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace aeva::core
