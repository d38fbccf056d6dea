#pragma once

/// \file incremental.hpp
/// Incremental per-server allocator state: the persistent fleet model
/// behind both `ProactiveAllocator::allocate` and serve mode's
/// `--incremental` planner.
///
/// A batch proactive search rebuilds its evaluation context from the full
/// server list on every call — a fresh equivalence-group index with one
/// model estimate per distinct mix for the base energies, a fresh
/// per-shape score memo. That per-call O(fleet) setup dominates a
/// decision, not the partition search itself (requests carry 1–4 VMs, so
/// the candidate space is tiny).
///
/// `FleetState` keeps that context alive between decisions, in the style
/// of redpanda's `partition_allocator` (SNIPPETS.md #2): one
/// `AllocationNode` per server carrying its cached allocation vector and
/// liveness, a **persistent equivalence-group index** (servers keyed by
/// identical (hardware class, resident mix) — the same quotient the batch
/// search rebuilds per call) with O(log n) membership updates on every
/// `allocate()`/`deallocate()` delta, and a **persistent score memo**
/// keyed by (hardware, base mix, block shape). Because the batch search's
/// per-block evaluation (`placed_on`) is a pure function of exactly that
/// key and the model database, the memo entries replay bit-for-bit across
/// decisions and never need invalidation.
///
/// `plan()` then reproduces the exhaustive search **exactly** — same
/// canonical partition enumeration, same greedy per-block server choice
/// with the same tie-breaks, same reject taxonomy and first-fit fallback
/// leg, the same doubles everywhere — while touching only the group index
/// (|groups| ≪ fleet) instead of the fleet.
///
/// Two callers keep a FleetState current:
/// - **Deltas.** Serve mode's `--incremental` planner applies every
///   commit, release, crash and repair as it happens
///   (serve::IncrementalConfig, docs/SERVING.md).
/// - **Sync.** `ProactiveAllocator` caches one FleetState and brings it to
///   each call's server span with `sync()`: one linear walk in id order
///   that turns the differences into the same deltas, falling back to one
///   `reset()` only for changes the delta API cannot express.
///
/// Not thread-safe: one FleetState belongs to one caller at a time (the
/// serve loop, or the allocator under its fleet mutex).
/// tests/core/incremental_parity_test.cpp and
/// tests/core/proactive_adapter_test.cpp prove the parity against the
/// plain per-server reference scorer (tests/testing/reference_pa.hpp).

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/first_fit.hpp"
#include "core/proactive.hpp"
#include "core/types.hpp"
#include "modeldb/database.hpp"
#include "workload/profile.hpp"

namespace aeva::core {

/// Cached per-server allocation state (the redpanda `allocation_node`
/// idiom): the resident class-count vector plus liveness, maintained by
/// deltas instead of being re-derived from a server list on every
/// decision.
struct AllocationNode {
  int id = 0;
  int hardware = 0;
  workload::ClassCounts allocated;
  bool powered = false;
  bool down = false;  ///< crash-masked: invisible to plan() until repair

  [[nodiscard]] bool empty() const noexcept { return allocated.total() == 0; }
};

/// Counters of the incremental planner (reset() zeroes them).
struct FleetStats {
  std::uint64_t plans = 0;          ///< plan() calls
  std::uint64_t allocs = 0;         ///< allocate() delta updates
  std::uint64_t deallocs = 0;       ///< deallocate() delta updates
  std::uint64_t memo_hits = 0;      ///< score-memo hits across plans
  std::uint64_t memo_misses = 0;    ///< score-memo fills (model estimates)
  std::uint64_t resyncs = 0;        ///< full reset() rebuilds
  /// up_servers() scratch reallocations. Grows only while the scratch
  /// capacity catches up with the fleet size; a steady-state window in
  /// which this stays flat proves the view costs zero heap allocations
  /// per call (tests/core/incremental_test.cpp pins it).
  std::uint64_t up_scratch_grows = 0;
  std::size_t groups = 0;           ///< live equivalence groups
  std::size_t memo_entries = 0;     ///< persistent score-memo size
};

/// What FleetState::sync() did to bring the mirror to a server span.
enum class SyncOutcome {
  kDeltas,     ///< allocate/deallocate/crash/repair deltas only
  kReset,      ///< one full reset() (a change deltas cannot express)
  kUnordered,  ///< ids not strictly ascending: nothing planned against it
};

/// The incremental fleet: per-server `AllocationNode`s, the persistent
/// equivalence-group index, and the persistent score memo. See the file
/// comment for the design; docs/API.md for the contract table.
class FleetState {
 public:
  /// Homogeneous fleet. The database must outlive the fleet state.
  FleetState(const modeldb::ModelDatabase& db, ProactiveConfig config);

  /// Heterogeneous fleet: one model per hardware class, exactly as the
  /// batch allocator's heterogeneous constructor. `dbs` must be non-empty
  /// and contain no nulls; all databases must outlive the fleet state.
  FleetState(std::vector<const modeldb::ModelDatabase*> dbs,
             ProactiveConfig config);

  ~FleetState();
  FleetState(FleetState&&) noexcept;
  FleetState& operator=(FleetState&&) noexcept;

  /// Rebuilds every node and the group index from authoritative server
  /// states (initial sync, snapshot restore, oracle-driven resync).
  /// Server ids must be unique; the optional `down` mask is indexed
  /// positionally and must match `servers` in size when present. The
  /// score memo survives (it is a pure function of the model database).
  void reset(std::span<const ServerState> servers,
             const std::vector<std::uint8_t>* down = nullptr);

  /// Brings the fleet to exactly `servers` (ids strictly ascending) in one
  /// linear walk in id order, so that plan() afterwards answers as the
  /// batch search over `servers` would:
  /// - a changed mix becomes allocate()/deallocate() deltas;
  /// - an id missing from the span becomes crash();
  /// - a known id that returns becomes repair() plus deltas;
  /// - a server that powered on with no net change in its mix (a VM came
  ///   and went between two syncs, or it returned warm) replays one
  ///   allocate()/deallocate() pair;
  /// - anything else — an unknown id, a changed hardware class, a server
  ///   powered off in place — becomes one reset().
  /// Returns kUnordered, with nothing reset, when the ids are not strictly
  /// ascending; the fleet is then a valid but unspecified state until the
  /// next successful sync() or reset().
  SyncOutcome sync(std::span<const ServerState> servers);

  /// Delta update: one VM of `profile` committed to / released from the
  /// server. O(log n) group-index maintenance; throws on unknown ids,
  /// down servers, or a release that would drive a count negative.
  void allocate(int server_id, workload::ProfileClass profile, int count = 1);
  void deallocate(int server_id, workload::ProfileClass profile,
                  int count = 1);

  /// Crash masking: the server drops out of the group index (and
  /// plan()'s world) with its residents zeroed — the serve loop journals
  /// and re-admits the lost groups itself. repair() returns it cold and
  /// empty, exactly as the serve capacity model does.
  void crash(int server_id);
  void repair(int server_id);

  /// Domain-granular masking for correlated faults (docs/RESILIENCE.md,
  /// "Correlated failure domains"): crash/repair every listed server in
  /// one call — e.g. datacenter::Topology::servers_on_pdu() when a PDU
  /// feed trips. Equivalent to calling crash()/repair() per id in order —
  /// including the single-server calls' tolerance of already-masked
  /// (resp. already healthy) members, so overlapping faults compose.
  void crash_domain(std::span<const int> server_ids);
  void repair_domain(std::span<const int> server_ids);

  /// Plans a request against the cached state: bit-identical placements,
  /// score, outcome, and search effort to
  /// `ProactiveAllocator::allocate(vms, up_servers())` under the same
  /// config — with `AllocationPath::kIncremental` marking results the
  /// incremental primary search produced (the fallback/reject legs keep
  /// their batch labels). Non-const: the score memo fills lazily.
  [[nodiscard]] AllocationResult plan(std::span<const VmRequest> vms);

  /// plan() writing into `out`, whose `placements` capacity is retained:
  /// a warm primary-path decision performs no heap allocation (the
  /// simulator's zero-alloc gate, tests/datacenter/zero_alloc_test.cpp).
  void plan_into(std::span<const VmRequest> vms, AllocationResult& out);

  /// The live (non-down) servers, in id order — the exact view the batch
  /// allocator would receive. O(fleet) to fill but allocation-free once
  /// the internal scratch has grown to fleet size: the reference aims at
  /// a reused member buffer, invalidated by the next up_servers() call
  /// (copy it if you need to hold it across fleet mutations).
  [[nodiscard]] const std::vector<ServerState>& up_servers() const;

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t up_count() const noexcept { return up_count_; }
  [[nodiscard]] const AllocationNode& node(int server_id) const;
  [[nodiscard]] const ProactiveConfig& config() const noexcept {
    return config_;
  }
  /// Counters (groups refreshed on read).
  [[nodiscard]] FleetStats stats() const;
  /// Candidate tallies of the latest plan() / plan_into().
  [[nodiscard]] const PlanTallies& last_plan_tallies() const noexcept {
    return tallies_;
  }

 private:
  /// Group key: (hardware class, resident mix) — two live servers with
  /// equal keys are interchangeable for any block up to the id tie-break.
  struct GroupKey {
    int hardware = 0;
    workload::ClassCounts mix;

    friend bool operator<(const GroupKey& a, const GroupKey& b) noexcept {
      if (a.hardware != b.hardware) return a.hardware < b.hardware;
      return a.mix < b.mix;
    }
  };

  /// Request-independent evaluation of one block shape on one group:
  /// the exact doubles `SearchContext::placed_on` would produce. A pure
  /// function of (hardware, base mix, block shape) and the database —
  /// cached forever, never invalidated.
  struct MemoEntry {
    bool feasible = false;
    double time_per_class[workload::kProfileClassCount] = {0.0, 0.0, 0.0};
    /// Σ block.of(c) · time_per_class[c], summed in class order at fill
    /// time — the exact double the batch evaluator's per-block time loop
    /// produces, hoisted out of the hot path.
    double block_time = 0.0;
    double marginal_energy_j = 0.0;
  };

  /// One equivalence group: the live members (ascending id) plus the
  /// group's slice of the persistent score memo, keyed by the packed
  /// block shape. Both sides are flat sorted vectors: lookups dominate
  /// the steady-state decision cost, and contiguous binary searches /
  /// indexed member access beat node-based containers by several times
  /// (docs/PERFORMANCE.md), while updates are rare O(n) memmoves over
  /// small arrays. A slot whose members drain empty is kept — its memo is
  /// a pure function of (key, database) and stays valid if the mix ever
  /// recurs; plan() skips member-less slots.
  struct GroupSlot {
    std::vector<int> members;  ///< sorted ascending
    std::vector<std::pair<std::uint64_t, MemoEntry>> memo;
    std::uint32_t ordinal = 0;  ///< creation index (slot_order_ position)
    /// The base mix's absolute energy, filled on the slot's first memo
    /// fill: every shape's marginal energy subtracts the same base, so
    /// caching it halves the model estimates a new group costs.
    double base_energy_j = 0.0;
    bool base_known = false;
  };

  struct Planner;  // per-plan() search state, in incremental.cpp

  [[nodiscard]] const CostModel& model_of(int hardware) const;
  /// nodes_ index of `server_id`, or nodes_.size() when unknown.
  [[nodiscard]] std::size_t index_of(int server_id) const noexcept;
  [[nodiscard]] AllocationNode& node_mut(int server_id);
  void index_insert(const AllocationNode& node);
  void index_erase(const AllocationNode& node);
  [[nodiscard]] const MemoEntry& memo_entry(const GroupKey& group,
                                            GroupSlot& slot,
                                            std::uint64_t shape_key,
                                            const workload::ClassCounts& block);

  ProactiveConfig config_;
  std::vector<CostModel> models_;
  /// Largest per-class time any feasible mix can estimate to, measured by
  /// the constructor's warmup sweep: a request whose class deadlines all
  /// sit at or above this bound provably passes every per-block QoS
  /// check, letting plan() take the QoS-free fold.
  double max_time_s_ = 0.0;
  bool prune_enabled_ = false;  ///< same arming condition as the batch search
  /// Degradation leg, mirroring the batch allocator's fallback chain.
  std::optional<FirstFitAllocator> fallback_;

  /// Sorted by id, so the vector is its own id index: a lookup is a
  /// direct subscript when the ids are exactly 0..n−1 (`dense_ids_`, the
  /// simulator's and serve's numbering) and a binary search otherwise.
  std::vector<AllocationNode> nodes_;
  bool dense_ids_ = true;
  std::size_t up_count_ = 0;
  /// The persistent group index: ordered members, ascending id — the
  /// "first unused member" a candidate's greedy scan must pick is always
  /// the k-th smallest (earlier blocks of a candidate consume a prefix).
  /// Each slot carries its own memo slice so the hot path's lookups are
  /// small integer-keyed maps, not one big composite-keyed map
  /// (docs/PERFORMANCE.md "Decision latency").
  std::map<GroupKey, GroupSlot> groups_;
  /// Creation-ordered view of every slot — the group-key *universe*,
  /// which only ever grows (slots are never erased). Positions are the
  /// stable ordinals the planner's cross-plan caches are indexed by:
  /// when a never-seen mix appears the caches extend append-only, and
  /// membership churn, drains, and revivals invalidate nothing (drained
  /// groups are skipped by the availability check). Pointers target
  /// std::map nodes, so they stay valid across insertions and moves.
  std::vector<std::pair<const GroupKey*, GroupSlot*>> slot_order_;
  /// members.size() per slot ordinal, maintained O(1) on every delta: a
  /// contiguous availability array, so the planner's candidate walk skips
  /// drained or saturated groups without chasing into map nodes.
  std::vector<std::uint32_t> member_count_;
  /// members.front() per slot ordinal (0 when drained): the planner's
  /// common case — a group not yet used by the candidate under
  /// evaluation — reads its tie-break id from this dense array instead
  /// of chasing into the map node.
  std::vector<int> head_id_;
  /// The ordinals with members right now, in arbitrary order (swap-remove
  /// maintenance via live_pos_). The planner's candidate fold touches
  /// exactly these |live| ≪ |universe| groups, and its lazy evaluation
  /// only ever computes cells for mixes that are actually resident.
  std::vector<std::uint32_t> live_order_;
  std::vector<std::uint32_t> live_pos_;  ///< ordinal → live_order_ index
  /// Bumped whenever the live set *gains* an ordinal (a drain never adds
  /// uncovered work): the planner's per-shape coverage stamp.
  std::uint64_t live_grow_stamp_ = 0;
  /// Lazily created, reused across plan() calls: every scratch vector
  /// keeps its capacity, so a warm decision allocates nothing.
  std::unique_ptr<Planner> scratch_;
  /// up_servers() view buffer, reused across calls (capacity retained;
  /// growth events are counted in FleetStats::up_scratch_grows).
  mutable std::vector<ServerState> up_scratch_;
  mutable FleetStats stats_;
  PlanTallies tallies_;
};

}  // namespace aeva::core
