#pragma once

/// \file incremental.hpp
/// The proactive allocator's search (Sect. III-D, Fig. 3) on a persistent
/// fleet model: `FleetState` is the one implementation behind both
/// `ProactiveAllocator::allocate` and serve mode's `--incremental`
/// planner.
///
/// A request carries 1–4 VMs, so its candidate space is tiny; what costs
/// is the per-server context a search reads. `FleetState` keeps that
/// context alive between decisions, in the style of redpanda's
/// `allocation_node` / `partition_allocator` split (SNIPPETS.md #2):
/// - one `AllocationNode` per server carrying its cached allocation
///   vector and liveness;
/// - a **persistent equivalence-group index**: servers keyed by identical
///   (hardware class, resident mix, failure domain), with O(log n)
///   membership updates on every `allocate()`/`deallocate()` delta. The
///   domain joins the key only when the spread constraint is on
///   (`ProactiveConfig::spread`); otherwise it is −1 for every server;
/// - a **persistent score memo** keyed by (hardware, base mix, block
///   shape). A block's estimate on a server is a pure function of that
///   key and the model database, so the memo entries replay bit-for-bit
///   across decisions, never need invalidation, and are shared by groups
///   that differ only in failure domain.
///
/// `plan()` enumerates the request's canonical typed partitions, places
/// each block greedily on the best unused server (ties → the earliest
/// server of the span, as in the paper), honours the per-domain spread
/// cap and blast penalty, and falls back to first-fit or rejects with a
/// reason — touching only the group index (|groups| ≪ fleet), never the
/// fleet.
///
/// "Earliest" means the server's position in the span of the last
/// `reset()`. For an id-ascending span — every simulator and serve call —
/// that is id order; a caller that orders its span on purpose (the
/// thermal guard passes the coolest servers first) gets its order.
///
/// Two callers keep a FleetState current:
/// - **Deltas.** Serve mode's `--incremental` planner applies every
///   commit, release, crash and repair as it happens
///   (serve::IncrementalConfig, docs/SERVING.md).
/// - **Sync.** `ProactiveAllocator` owns one FleetState and brings it to
///   each call's server span with `sync()`: one linear walk that turns the
///   differences into the same deltas, falling back to one `reset()` for
///   changes the delta API cannot express, including a span in a new
///   order. When the call carries a ViewDelta (types.hpp) that continues
///   the view the fleet mirrors, `sync(servers, changed_ids)` runs the
///   walk's per-node step on the changed ids only: O(changed servers).
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
  kDeltas,  ///< allocate/deallocate/crash/repair deltas only
  kReset,   ///< one full reset() (a change deltas cannot express)
};

/// The incremental fleet: per-server `AllocationNode`s, the persistent
/// equivalence-group index, and the persistent score memo. See the file
/// comment for the design; docs/API.md for the contract table.
class FleetState {
 public:
  /// Homogeneous fleet. The database must outlive the fleet state.
  FleetState(const modeldb::ModelDatabase& db, ProactiveConfig config);

  /// Heterogeneous fleet: one model per hardware class;
  /// `ServerState::hardware` indexes into `dbs`, and normalization
  /// references come from class 0. `dbs` must be non-empty and contain no
  /// nulls; all databases must outlive the fleet state. Runs validate().
  FleetState(std::vector<const modeldb::ModelDatabase*> dbs,
             ProactiveConfig config);

  /// The configuration checks — α, partition budget, `search_threads`,
  /// spread cap, domain count and domain map, fallback multiplex, the
  /// database list — throwing std::invalid_argument. The constructor
  /// runs them; `ProactiveAllocator` runs them at its own construction
  /// and builds its fleet on the first call.
  static void validate(const ProactiveConfig& config,
                       const std::vector<const modeldb::ModelDatabase*>& dbs);

  ~FleetState();
  FleetState(FleetState&&) noexcept;
  FleetState& operator=(FleetState&&) noexcept;

  /// Rebuilds every node and the group index from authoritative server
  /// states (initial sync, snapshot restore, oracle-driven resync). The
  /// span's order becomes the fleet's tie-break order (see the file
  /// comment). Server ids must be unique; the optional `down` mask is
  /// indexed positionally and must match `servers` in size when present.
  /// The score memo survives (it is a pure function of the model
  /// database).
  void reset(std::span<const ServerState> servers,
             const std::vector<std::uint8_t>* down = nullptr);

  /// Brings the fleet to exactly `servers` in one linear walk, so that
  /// plan() afterwards answers for `servers` in their order. While the
  /// span keeps the order of the last reset() (servers may be missing):
  /// - a changed mix becomes allocate()/deallocate() deltas;
  /// - a server missing from the span becomes crash();
  /// - a known server that returns becomes repair() plus deltas;
  /// - a server that powered on with no net change in its mix (a VM came
  ///   and went between two syncs, or it returned warm) replays one
  ///   allocate()/deallocate() pair.
  /// Anything else — an unknown id, a span in another order, a changed
  /// hardware class, a server powered off in place — becomes one reset().
  SyncOutcome sync(std::span<const ServerState> servers);

  /// sync() in O(changed): brings the fleet to `servers` when the fleet
  /// already mirrors that span everywhere except at `changed_ids`, and
  /// the span is id-ascending (the ViewDelta contract, types.hpp). Each
  /// changed id gets exactly the per-node step of the full walk (a
  /// missing server crashes, a returning one repairs, a changed mix
  /// becomes deltas); an id the fleet has never seen, or a change no
  /// delta expresses, becomes one reset().
  SyncOutcome sync(std::span<const ServerState> servers,
                   std::span<const int> changed_ids);

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

  /// Plans a request against the cached state: the placements, score,
  /// outcome and search effort of the proactive search over
  /// `up_servers()` under the fleet's config, with
  /// `AllocationPath::kIncremental` marking results the primary search
  /// produced (the fallback and reject legs keep their own labels). A
  /// request wider than the spread constraint admits rejects at once
  /// with `kSpreadInfeasible`. Non-const: the score memo fills lazily.
  [[nodiscard]] AllocationResult plan(std::span<const VmRequest> vms);

  /// plan() writing into `out`, whose `placements` capacity is retained:
  /// a warm primary-path decision performs no heap allocation (the
  /// simulator's zero-alloc gate, tests/datacenter/zero_alloc_test.cpp).
  void plan_into(std::span<const VmRequest> vms, AllocationResult& out);

  /// The live (non-down) servers, in tie-break order (the order of the
  /// last reset() span) — the span plan() answers for, and the one the
  /// first-fit fallback leg receives. O(fleet) to fill but
  /// allocation-free once the internal scratch has grown to fleet size:
  /// the reference aims at a reused member buffer, invalidated by the
  /// next up_servers() call (copy it if you need to hold it across fleet
  /// mutations).
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
  /// (hardware class, resident mix): everything a block's estimate on a
  /// server depends on.
  struct MixKey {
    int hardware = 0;
    workload::ClassCounts mix;

    friend bool operator<(const MixKey& a, const MixKey& b) noexcept {
      if (a.hardware != b.hardware) return a.hardware < b.hardware;
      return a.mix < b.mix;
    }
  };

  /// Group key: the mix plus the failure domain — two live servers with
  /// equal keys are interchangeable for any block up to the position
  /// tie-break. The domain is −1 when spread is off or the server is
  /// unmapped (unmapped servers are never capped).
  struct GroupKey {
    MixKey base;
    int domain = -1;

    friend bool operator<(const GroupKey& a, const GroupKey& b) noexcept {
      if (a.base.hardware != b.base.hardware) {
        return a.base.hardware < b.base.hardware;
      }
      if (!(a.base.mix == b.base.mix)) return a.base.mix < b.base.mix;
      return a.domain < b.domain;
    }
  };

  /// Request-independent evaluation of one block shape on one mix: a
  /// pure function of (hardware, base mix, block shape) and the
  /// database — cached forever, never invalidated.
  struct MemoEntry {
    bool feasible = false;
    double time_per_class[workload::kProfileClassCount] = {0.0, 0.0, 0.0};
    /// Σ block.of(c) · time_per_class[c], summed in class order at fill
    /// time and hoisted out of the hot path.
    double block_time = 0.0;
    double marginal_energy_j = 0.0;
  };

  /// One mix's slice of the persistent score memo, keyed by the packed
  /// block shape and shared by the groups that differ only in failure
  /// domain, so each (hardware, mix, shape) is estimated once. A flat
  /// sorted vector: lookups dominate the steady-state decision cost, and
  /// contiguous binary searches beat node-based containers by several
  /// times (docs/PERFORMANCE.md), while inserts are rare O(n) memmoves
  /// over small arrays.
  struct MixSlot {
    std::vector<std::pair<std::uint64_t, MemoEntry>> memo;
    std::uint32_t ordinal = 0;  ///< creation index (mix_order_ position)
    /// The base mix's absolute energy, filled on the first memo fill:
    /// every shape's marginal energy subtracts the same base, so caching
    /// it halves the model estimates a new mix costs.
    double base_energy_j = 0.0;
    bool base_known = false;
  };

  /// One equivalence group: the live members, *descending* by position
  /// (a flat vector with indexed access, like the memo), so the earliest
  /// member — the one a placement takes, and the end a busy server
  /// returns to — sits at the back: joining or leaving near the head
  /// moves a few entries, not the whole idle group. A slot whose
  /// members drain empty is kept — everything cached for it is a pure
  /// function of (key, database) and stays valid if the key ever recurs;
  /// plan() skips member-less slots.
  struct GroupSlot {
    std::vector<std::uint32_t> members;  ///< nodes_ positions, descending
    std::uint32_t ordinal = 0;  ///< creation index (slot_order_ position)
  };

  struct Planner;  // per-plan() search state, in incremental.cpp

  /// The per-node step both sync() overloads share: brings the node at
  /// `at` to `want` (nullptr: the server is missing from the span) with
  /// crash/repair/allocate/deallocate deltas. False when no delta can
  /// express the change (a new hardware class, powered off in place).
  bool sync_node(std::size_t at, const ServerState* want);

  [[nodiscard]] const CostModel& model_of(int hardware) const;
  /// nodes_ index (tie-break position) of `server_id`, or nodes_.size()
  /// when unknown.
  [[nodiscard]] std::size_t index_of(int server_id) const noexcept;
  /// nodes_ index of `server_id`; throws when unknown.
  [[nodiscard]] std::size_t position_of(int server_id) const;
  [[nodiscard]] GroupKey key_of(const AllocationNode& node) const noexcept;
  /// Adds the node at `at` to its group. `bulk` (reset() only) appends in
  /// ascending order and leaves reversing and head_pos_ to the caller.
  void index_insert(std::size_t at, bool bulk = false);
  void index_erase(std::size_t at);
  [[nodiscard]] const MemoEntry& memo_entry(const MixKey& key, MixSlot& slot,
                                            std::uint64_t shape_key,
                                            const workload::ClassCounts& block);

  ProactiveConfig config_;
  std::vector<CostModel> models_;
  /// Largest per-class time any feasible mix can estimate to, measured by
  /// the constructor's warmup sweep: a request whose class deadlines all
  /// sit at or above this bound provably passes every per-block QoS
  /// check, letting plan() take the QoS-free fold.
  double max_time_s_ = 0.0;
  /// Branch-and-bound is armed only when the per-block partial sum is a
  /// sound lower bound of the final rank (docs/PERFORMANCE.md).
  bool prune_enabled_ = false;
  /// Degradation leg (engaged only with `degrade_to_first_fit`); it
  /// enforces the same spread constraint.
  std::optional<FirstFitAllocator> fallback_;

  /// In the order of the last reset() span: a node's index is its
  /// tie-break position. When the ids are exactly 0..n−1 in order
  /// (`dense_ids_`, the simulator's and serve's numbering) a lookup is a
  /// direct subscript; otherwise it binary-searches `by_id_`.
  std::vector<AllocationNode> nodes_;
  bool dense_ids_ = true;
  /// (id, nodes_ index) sorted by id; empty while `dense_ids_`.
  std::vector<std::pair<int, std::uint32_t>> by_id_;
  std::size_t up_count_ = 0;
  /// The persistent group index: ordered members, descending position —
  /// the "first unused member" a candidate's greedy scan must pick is
  /// always the k-th earliest, k-th from the back (earlier blocks of a
  /// candidate consume the earliest members).
  std::map<GroupKey, GroupSlot> groups_;
  /// The memo, one small integer-keyed slice per mix rather than one big
  /// composite-keyed map (docs/PERFORMANCE.md "Decision latency"), and
  /// its creation-ordered view: mix ordinals index the planner's
  /// per-shape evaluations. Like slots, mixes are never erased.
  std::map<MixKey, MixSlot> mixes_;
  std::vector<std::pair<const MixKey*, MixSlot*>> mix_order_;
  /// Mix ordinal per slot ordinal.
  std::vector<std::uint32_t> slot_mix_;
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
  /// members.back() per slot ordinal (0 when drained): the planner's
  /// common case — a group not yet used by the candidate under
  /// evaluation — reads its tie-break position from this dense array
  /// instead of chasing into the map node.
  std::vector<std::uint32_t> head_pos_;
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
