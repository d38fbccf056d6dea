#include "core/incremental.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "partition/typed_partition.hpp"
#include "util/error.hpp"

namespace aeva::core {

using workload::ClassCounts;
using workload::ProfileClass;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Packed shape key (counts fit 21 bits each by construction).
[[nodiscard]] std::uint64_t shape_key_of(const ClassCounts& counts) noexcept {
  return static_cast<std::uint64_t>(counts.cpu) << 42 |
         static_cast<std::uint64_t>(counts.mem) << 21 |
         static_cast<std::uint64_t>(counts.io);
}

/// std::stable_sort's order without its temporary buffer (a heap
/// allocation per call): the VM→slot lists hold one entry per VM of a
/// request, so quadratic insertion is the cheaper sort here.
template <typename T, typename Less>
void stable_insertion_sort(std::vector<T>& items, Less less) {
  for (std::size_t i = 1; i < items.size(); ++i) {
    T item = items[i];
    std::size_t j = i;
    for (; j > 0 && less(item, items[j - 1]); --j) {
      items[j] = items[j - 1];
    }
    items[j] = item;
  }
}

/// One placed block of a candidate under evaluation. Mirrors the batch
/// search's PlacedBlock (proactive.cpp) except the server is identified by
/// id — the serve fleet's ids are exactly the batch up-vector's positions
/// in order, so id comparisons reproduce the index tie-breaks.
struct PlacedBlock {
  ClassCounts block;
  int server_id = 0;
  std::size_t group_ordinal = 0;  ///< per-plan group-snapshot index
  double time_per_class[workload::kProfileClassCount] = {0.0, 0.0, 0.0};
  double marginal_energy_j = 0.0;
  double contribution = 0.0;  ///< exact α-rank term (bound arithmetic)
};

/// Scalar outcome of one candidate evaluation (mirror of EvalOutcome).
struct EvalOutcome {
  double est_time_s = 0.0;
  double est_energy_j = 0.0;
  double combined = 0.0;
  bool qos_ok = true;
};

/// A fully evaluated incumbent candidate. Lives in the persistent scratch:
/// `valid` flips instead of optional re-construction, and blocks.assign
/// reuses the vector's capacity — an improving candidate costs no
/// allocation on a warm planner.
struct Incumbent {
  bool valid = false;
  std::vector<PlacedBlock> blocks;
  double est_time_s = 0.0;
  double est_energy_j = 0.0;
  double combined = 0.0;
  bool qos_ok = true;
  std::size_t index = 0;

  void adopt(const EvalOutcome& out, const std::vector<PlacedBlock>& placed,
             std::size_t at) {
    valid = true;
    blocks.assign(placed.begin(), placed.end());
    est_time_s = out.est_time_s;
    est_energy_j = out.est_energy_j;
    combined = out.combined;
    qos_ok = out.qos_ok;
    index = at;
  }
};

/// Running optima with the batch search's deterministic tie-break:
/// strictly smaller rank wins; equal ranks keep the earlier candidate in
/// canonical enumeration order.
struct SearchBest {
  Incumbent any;
  Incumbent qos;

  void reset() {
    any.valid = false;
    qos.valid = false;
  }

  void consider(const EvalOutcome& out,
                const std::vector<PlacedBlock>& blocks, std::size_t index) {
    const bool better_any =
        !any.valid || out.combined < any.combined ||
        (out.combined == any.combined && index < any.index);
    const bool better_qos =
        out.qos_ok &&
        (!qos.valid || out.combined < qos.combined ||
         (out.combined == qos.combined && index < qos.index));
    if (better_any) {
      any.adopt(out, blocks, index);
    }
    if (better_qos) {
      qos.adopt(out, blocks, index);
    }
  }
};

}  // namespace

/// Per-plan() search state: the request context, a positional snapshot of
/// the live groups, and the prefix-incremental evaluation stack. Every
/// double below is produced by the same expressions as proactive.cpp's
/// SearchContext/IncrementalEvaluator, so candidate ranks — and hence the
/// chosen placement — are bitwise identical to the batch search over
/// up_servers().
///
/// One Planner lives in FleetState::scratch_ for the fleet's lifetime:
/// begin_plan() clears every buffer but keeps its capacity, so a warm
/// decision performs no allocation at all. The fleet/config pointers are
/// refreshed on every plan() — they never outlive a call, which keeps the
/// scratch safe across FleetState moves.
struct FleetState::Planner {
  FleetState* fleet = nullptr;
  const ProactiveConfig* config = nullptr;

  // --- request context (mirrors SearchContext) ----------------------------
  double n_vms = 0.0;
  double time_ref = 0.0;
  double energy_ref = 0.0;
  std::vector<double> deadlines[workload::kProfileClassCount];
  /// Tightest deadline per class (+inf when the class has none): the
  /// per-block QoS pre-check compares one stored double against it
  /// instead of re-touching the deadline lists.
  double qos_threshold[workload::kProfileClassCount] = {kInf, kInf, kInf};
  /// Every class threshold sits at or above the database's maximum
  /// estimated time (FleetState::max_time_s_), so qos_pass is provably
  /// true for every entry and the fold can skip it entirely.
  bool qos_vacuous = false;
  bool prune = false;

  // --- group universe (fleet->slot_order_, stable ordinals) ---------------
  /// Members a candidate has consumed per group ordinal. Every greedy
  /// pick takes the smallest unused id of its group, so consumed members
  /// are always a prefix of the ascending member set — the next free
  /// member is the used_count-th smallest. uint32 keeps the whole
  /// universe's availability state within a few cache lines.
  std::vector<std::uint32_t> used_count;

  // --- cross-plan shape evaluations ---------------------------------------
  /// Request-dependent view over a memo entry: the same derived doubles
  /// the batch IncrementalEvaluator computes per (shape, group). Every
  /// input (memo entry, n_vms, time_ref, energy_ref) is a pure function
  /// of the request's class counts and the database, so the entry is
  /// valid for every plan of the same counts — only the per-request QoS
  /// deadlines vary, and those are checked per plan (qos_pass).
  struct CachedEval {
    bool feasible = false;
    double sel_rank = 0.0;
    double contribution = 0.0;
    double marginal_energy_j = 0.0;
    double time_per_class[workload::kProfileClassCount] = {0.0, 0.0, 0.0};
  };
  /// One block shape's evaluations over the group universe, indexed by
  /// the stable slot ordinal. Cells are computed lazily — only for groups
  /// that are *live* when the shape is used, so universe growth from
  /// transient mixes costs nothing — and are never invalidated:
  /// membership churn, drains, and revivals change nothing a cached
  /// double depends on.
  struct CachedShape {
    std::uint64_t key = 0;  ///< packed shape, for lazy memo lookups
    ClassCounts block;      ///< the shape itself
    /// Cheapest feasible contribution over every *computed* cell. Live
    /// groups are always covered before use (ready()), so this is a
    /// lower bound on the live-group fold the batch search prunes with —
    /// pruning against it can only be (harmlessly) more conservative;
    /// pruning never changes results or the partitions-examined count.
    double min_contrib = kInf;
    std::vector<CachedEval> evals;  ///< by slot ordinal
    /// The candidate fold's working set, packed: one entry per feasible
    /// group of the *live set as of the last coverage sweep* — a few
    /// contiguous cache lines instead of ordinal-indexed scatter, so the
    /// scan survives the cache pressure of whatever runs between
    /// decisions. Groups that drained since the sweep carry zero
    /// availability and are skipped by the counter check; a drain never
    /// bumps the stamp precisely because this filter makes it harmless.
    struct FoldEntry {
      double rank = 0.0;  ///< selection_rank (finite: feasible only)
      double time_per_class[workload::kProfileClassCount] = {0.0, 0.0, 0.0};
      std::uint32_t g = 0;  ///< slot ordinal
    };
    std::vector<FoldEntry> fold;
    /// Dense in-fold flags parallel to evals: the coverage sweep appends
    /// only groups not yet folded, so a stamp bump costs O(live) byte
    /// probes, not a rebuild. The fold therefore covers the *ever-live*
    /// set; it is compacted back to the current live set whenever it
    /// outgrows it 2x.
    std::vector<std::uint8_t> folded;
    /// Dense has-been-computed flags parallel to evals (cells never
    /// invalidate): the coverage sweep reads this byte array — a couple
    /// of cache lines for the whole universe — instead of striding
    /// through the wide eval structs.
    std::vector<std::uint8_t> done;
    /// Coverage stamp against FleetState::live_grow_stamp_: when equal,
    /// every live group's cell is computed and ready() is a no-op.
    std::uint64_t live_stamp = ~std::uint64_t{0};
  };
  /// One canonical partition of the request, with its block shapes
  /// pre-resolved and the common-prefix length against the previous
  /// partition in enumeration order precomputed — the warm path never
  /// packs a key, compares counts, or touches the enumerator again.
  struct CachedPartition {
    partition::TypedPartition blocks;
    std::vector<CachedShape*> shapes;  ///< parallel to blocks; stable ptrs
    std::size_t lcp = 0;  ///< shared prefix with the previous partition
  };
  struct PartitionList {
    std::vector<CachedPartition> items;  ///< enumeration order, budgeted
  };
  /// Everything ever derived for one request class-count key: the shape
  /// evaluations (unique_ptr keeps their addresses stable across sorted
  /// insertion) and the partition lists per effective block limit.
  struct RequestCache {
    std::vector<std::pair<std::uint64_t, std::unique_ptr<CachedShape>>>
        shapes;  ///< sorted by packed shape key
    /// Effective limit → list. min(up servers, request size) has a
    /// handful of values over a fleet's life; linear scan.
    std::vector<std::pair<std::size_t, PartitionList>> by_limit;
  };
  std::map<std::uint64_t, RequestCache> request_caches;

  // --- prefix-incremental evaluation stack ---------------------------------
  std::vector<PlacedBlock> placed;
  std::vector<double> bound_after;
  std::vector<double> times;  ///< QoS sort buffer

  // --- incumbents and the VM→slot mapping scratch --------------------------
  SearchBest best;
  std::vector<const VmRequest*> class_vms;
  struct MapSlot {
    double time = 0.0;
    int server_id = 0;
  };
  std::vector<MapSlot> map_slots;

  /// Rewinds every per-plan buffer, keeping capacity.
  void begin_plan(FleetState& owner) {
    fleet = &owner;
    config = &owner.config_;
    for (auto& list : deadlines) {
      list.clear();
    }
    used_count.assign(owner.slot_order_.size(), 0);
    placed.clear();
    bound_after.clear();
    best.reset();
  }

  /// place_block's server-ordering rank — the exact expression of
  /// SearchContext::selection_rank.
  [[nodiscard]] double selection_rank(const MemoEntry& entry,
                                      double time_contrib,
                                      const ClassCounts& block) const {
    const double energy_norm =
        entry.marginal_energy_j / (n_vms * energy_ref);
    const double time_norm = time_contrib / block.total() / time_ref;
    return config->goal == ProactiveGoal::kEnergyDelayProduct
               ? std::max(energy_norm, 0.0) * time_norm
               : config->alpha * energy_norm +
                     (1.0 - config->alpha) * time_norm;
  }

  /// The block's exact contribution to the final α-rank — the exact
  /// expression of SearchContext::rank_contribution (the entry's
  /// block_time was summed in the same class order at fill time).
  [[nodiscard]] double rank_contribution(const MemoEntry& entry) const {
    return config->alpha * entry.marginal_energy_j / (n_vms * energy_ref) +
           (1.0 - config->alpha) * entry.block_time / (n_vms * time_ref);
  }

  /// Derives one (shape, group) cell from the persistent score memo. Each
  /// cell is computed exactly once over the fleet's lifetime; every later
  /// plan replays the cached doubles bit-for-bit.
  void compute_cell(CachedShape& cs, std::size_t g) {
    CachedEval& eval = cs.evals[g];
    cs.done[g] = 1;
    const MemoEntry& entry =
        fleet->memo_entry(*fleet->slot_order_[g].first,
                          *fleet->slot_order_[g].second, cs.key, cs.block);
    if (entry.feasible) {
      eval.feasible = true;
      for (std::size_t ci = 0; ci < workload::kProfileClassCount; ++ci) {
        eval.time_per_class[ci] = entry.time_per_class[ci];
      }
      eval.marginal_energy_j = entry.marginal_energy_j;
      eval.sel_rank = selection_rank(entry, entry.block_time, cs.block);
      eval.contribution = rank_contribution(entry);
      cs.min_contrib = std::min(cs.min_contrib, eval.contribution);
    }
  }

  /// The shape, guaranteed to cover every live group. Drains only shrink
  /// the live set, so the stamp re-validates — and triggers the O(live)
  /// coverage sweep — only after a group (re)gains its first member.
  [[nodiscard]] CachedShape& ready(CachedShape& cs) {
    if (cs.live_stamp != fleet->live_grow_stamp_) {
      const std::size_t universe = fleet->slot_order_.size();
      if (cs.evals.size() < universe) {
        cs.evals.resize(universe);
        cs.done.resize(universe, 0);
        cs.folded.resize(universe, 0);
      }
      if (cs.fold.size() > 2 * fleet->live_order_.size() + 8) {
        cs.fold.clear();
        std::fill(cs.folded.begin(), cs.folded.end(), std::uint8_t{0});
      }
      for (const std::uint32_t g : fleet->live_order_) {
        if (!cs.done[g]) {
          compute_cell(cs, g);
        }
        if (cs.folded[g]) {
          continue;
        }
        const CachedEval& eval = cs.evals[g];
        if (eval.feasible) {
          cs.folded[g] = 1;
          CachedShape::FoldEntry entry;
          entry.rank = eval.sel_rank;
          for (std::size_t ci = 0; ci < workload::kProfileClassCount; ++ci) {
            entry.time_per_class[ci] = eval.time_per_class[ci];
          }
          entry.g = g;
          cs.fold.push_back(entry);
        }
      }
      cs.live_stamp = fleet->live_grow_stamp_;
    }
    return cs;
  }

  /// Finds or creates the cached-shape cell for `block` (no evaluation —
  /// ready() extends lazily on first use).
  [[nodiscard]] CachedShape* resolve_shape(RequestCache& cache,
                                           const ClassCounts& block) {
    const std::uint64_t key = shape_key_of(block);
    auto pos = std::lower_bound(
        cache.shapes.begin(), cache.shapes.end(), key,
        [](const std::pair<std::uint64_t, std::unique_ptr<CachedShape>>& e,
           std::uint64_t k) { return e.first < k; });
    if (pos == cache.shapes.end() || pos->first != key) {
      auto created = std::make_unique<CachedShape>();
      created->key = key;
      created->block = block;
      pos = cache.shapes.insert(pos, {key, std::move(created)});
    }
    return pos->second.get();
  }

  /// The request's partition list under `limit` (the effective block
  /// bound), enumerating and caching it on first sight. Enumeration
  /// inputs (model feasibility, the partition budget) are fleet
  /// constants, so the canonical order — and with it every lcp — is
  /// reproduced exactly on every later plan.
  [[nodiscard]] const PartitionList& partition_list(
      RequestCache& cache, const ClassCounts& request, std::size_t limit) {
    for (auto& [l, list] : cache.by_limit) {
      if (l == limit) {
        // Reusing the list replays one memo entry per shape reference
        // without touching the memo — keep the hit counter meaningful.
        fleet->stats_.memo_hits += cache.shapes.size();
        return list;
      }
    }
    cache.by_limit.emplace_back(limit, PartitionList{});
    PartitionList& list = cache.by_limit.back().second;
    const auto block_ok = [this](const ClassCounts& block) {
      for (const CostModel& model : fleet->models_) {
        if (model.feasible(block)) {
          return true;
        }
      }
      return false;
    };
    const std::size_t budget = config->max_partitions;
    (void)partition::for_each_typed_partition(
        request, block_ok, limit,
        [&](const partition::TypedPartition& blocks) {
          CachedPartition cp;
          cp.blocks = blocks;
          cp.shapes.reserve(blocks.size());
          for (const ClassCounts& block : blocks) {
            cp.shapes.push_back(resolve_shape(cache, block));
          }
          if (!list.items.empty()) {
            const partition::TypedPartition& prev = list.items.back().blocks;
            const std::size_t bound = std::min(prev.size(), blocks.size());
            while (cp.lcp < bound && blocks[cp.lcp] == prev[cp.lcp]) {
              ++cp.lcp;
            }
          }
          list.items.push_back(std::move(cp));
          return list.items.size() < budget;
        });
    return list;
  }

  /// Per-plan QoS pre-check over a cached evaluation — the exact
  /// class-threshold comparison placed_on performs, recomputed each plan
  /// because deadlines vary per request even when the counts recur.
  [[nodiscard]] bool qos_pass(const CachedShape::FoldEntry& eval,
                              const ClassCounts& block) const {
    for (const ProfileClass profile : workload::kAllProfileClasses) {
      const auto ci = static_cast<std::size_t>(profile);
      if (block.of(profile) > 0 &&
          eval.time_per_class[ci] > qos_threshold[ci]) {
        return false;
      }
    }
    return true;
  }

  /// Greedy server choice for one block: the winning (qos desc, sel_rank
  /// asc) group, ties to the smallest unused member id — exactly the
  /// server the batch index-order scan keeps (ids ascend with up-vector
  /// positions). An order-independent min-fold over the live groups, so
  /// the live list's arbitrary order is irrelevant, and |live| ≪
  /// |universe| keeps the scan a handful of cache lines.
  [[nodiscard]] std::optional<PlacedBlock> place_grouped(
      CachedShape& shape, const ClassCounts& block) {
    const CachedShape& cs = ready(shape);
    const std::uint32_t* capacity = fleet->member_count_.data();
    const std::uint32_t* used = used_count.data();
    // The tie-break id is fetched lazily — on an exact rank tie and once
    // for the winner — and needs the map node only when the candidate
    // already consumed members of the group, which a 1–4 VM request
    // almost never does.
    const auto id_of = [&](std::uint32_t g) {
      return used[g] == 0 ? fleet->head_id_[g]
                          : fleet->slot_order_[g].second->members[used[g]];
    };
    const CachedShape::FoldEntry* win = nullptr;
    int win_id = -1;  ///< -1 = not fetched yet
    if (qos_vacuous) {
      // Every group passes QoS vacuously, so the winner is the plain
      // (sel_rank asc, id asc) minimum over the packed entries.
      for (const CachedShape::FoldEntry& entry : cs.fold) {
        const std::uint32_t g = entry.g;
        if (used[g] >= capacity[g]) {
          continue;  // drained since the sweep, or consumed by this candidate
        }
        if (win == nullptr || entry.rank < win->rank) {
          win = &entry;
          win_id = -1;
        } else if (entry.rank == win->rank) {
          if (win_id < 0) {
            win_id = id_of(win->g);
          }
          const int id = id_of(g);
          if (id < win_id) {
            win = &entry;
            win_id = id;
          }
        }
      }
    } else {
      const CachedShape::FoldEntry* fallback = nullptr;
      int fallback_id = -1;
      for (const CachedShape::FoldEntry& entry : cs.fold) {
        const std::uint32_t g = entry.g;
        if (used[g] >= capacity[g]) {
          continue;  // drained since the sweep, or consumed by this candidate
        }
        if (fallback == nullptr || entry.rank < fallback->rank) {
          fallback = &entry;
          fallback_id = -1;
        } else if (entry.rank == fallback->rank) {
          if (fallback_id < 0) {
            fallback_id = id_of(fallback->g);
          }
          const int id = id_of(g);
          if (id < fallback_id) {
            fallback = &entry;
            fallback_id = id;
          }
        }
        if (!qos_pass(entry, block)) {
          continue;
        }
        if (win == nullptr || entry.rank < win->rank) {
          win = &entry;
          win_id = -1;
        } else if (entry.rank == win->rank) {
          if (win_id < 0) {
            win_id = id_of(win->g);
          }
          const int id = id_of(g);
          if (id < win_id) {
            win = &entry;
            win_id = id;
          }
        }
      }
      if (win == nullptr && fallback != nullptr) {
        win = fallback;
        win_id = fallback_id;
      }
    }
    if (win == nullptr) {
      return std::nullopt;
    }
    if (win_id < 0) {
      win_id = id_of(win->g);
    }
    const CachedEval& eval = cs.evals[win->g];
    PlacedBlock out;
    out.block = block;
    out.server_id = win_id;
    out.group_ordinal = win->g;
    for (std::size_t ci = 0; ci < workload::kProfileClassCount; ++ci) {
      out.time_per_class[ci] = eval.time_per_class[ci];
    }
    out.marginal_energy_j = eval.marginal_energy_j;
    out.contribution = eval.contribution;
    return out;
  }


  /// Aggregate rank and QoS feasibility — the exact arithmetic of
  /// SearchContext::finalize (same summation order, same sort-based
  /// k-th-smallest QoS matching).
  [[nodiscard]] EvalOutcome finalize() {
    EvalOutcome out;
    double time_sum = 0.0;
    double energy_sum = 0.0;
    for (const PlacedBlock& block : placed) {
      for (const ProfileClass profile : workload::kAllProfileClasses) {
        time_sum += block.block.of(profile) *
                    block.time_per_class[static_cast<int>(profile)];
      }
      energy_sum += block.marginal_energy_j;
    }
    out.est_time_s = time_sum / n_vms;
    out.est_energy_j = energy_sum;
    const double total_energy_norm = energy_sum / (n_vms * energy_ref);
    const double total_time_norm = out.est_time_s / time_ref;
    out.combined =
        config->goal == ProactiveGoal::kEnergyDelayProduct
            ? std::max(total_energy_norm, 0.0) * total_time_norm
            : config->alpha * total_energy_norm +
                  (1.0 - config->alpha) * total_time_norm;

    for (const ProfileClass profile : workload::kAllProfileClasses) {
      const int ci = static_cast<int>(profile);
      if (deadlines[ci].empty()) {
        continue;
      }
      times.clear();
      for (const PlacedBlock& block : placed) {
        for (int k = 0; k < block.block.of(profile); ++k) {
          times.push_back(block.time_per_class[ci]);
        }
      }
      std::sort(times.begin(), times.end());
      for (std::size_t k = 0; k < times.size(); ++k) {
        if (times[k] > deadlines[ci][k]) {
          out.qos_ok = false;
          break;
        }
      }
      if (!out.qos_ok) {
        break;
      }
    }
    return out;
  }

  /// Prefix-incremental candidate evaluation — the batch
  /// IncrementalEvaluator::evaluate over the persistent group index.
  /// Rewinding a consumed prefix just decrements per-group counters;
  /// the common-prefix length is precomputed, and `placed` is always a
  /// prefix of the previous partition in enumeration order, so the
  /// retained entries are exactly the ones a fresh comparison would keep.
  [[nodiscard]] std::optional<EvalOutcome> evaluate(
      const CachedPartition& cp, double prune_above) {
    const partition::TypedPartition& blocks = cp.blocks;
    const std::size_t keep = std::min(cp.lcp, placed.size());
    for (std::size_t i = placed.size(); i > keep; --i) {
      --used_count[placed[i - 1].group_ordinal];
    }
    placed.resize(keep);
    bound_after.resize(keep);

    PlanTallies& tally = fleet->tallies_;
    double remaining_min = 0.0;
    if (prune) {
      for (std::size_t i = keep; i < blocks.size(); ++i) {
        const double block_min = ready(*cp.shapes[i]).min_contrib;
        if (block_min == kInf) {
          ++tally.pruned_infeasible;
          return std::nullopt;  // infeasible on every server, even unused
        }
        remaining_min += block_min;
      }
      const double prefix_bound = keep > 0 ? bound_after[keep - 1] : 0.0;
      if (prefix_bound + remaining_min > prune_above) {
        ++tally.pruned_bound;
        return std::nullopt;
      }
    }
    for (std::size_t i = keep; i < blocks.size(); ++i) {
      if (prune) {
        remaining_min -= cp.shapes[i]->min_contrib;  // memoized, exact
      }
      std::optional<PlacedBlock> next = place_grouped(*cp.shapes[i], blocks[i]);
      if (!next.has_value()) {
        ++tally.pruned_infeasible;
        return std::nullopt;  // no unused server can host this block
      }
      ++used_count[next->group_ordinal];
      placed.push_back(*next);
      const double bound = (placed.size() > 1 ? bound_after.back() : 0.0) +
                           placed.back().contribution;
      bound_after.push_back(bound);
      if (prune && bound + remaining_min > prune_above) {
        ++tally.pruned_bound;
        return std::nullopt;  // cannot beat the best complete candidate
      }
    }
    ++tally.evaluated;
    return finalize();
  }
};

FleetState::FleetState(const modeldb::ModelDatabase& db,
                       ProactiveConfig config)
    : FleetState(std::vector<const modeldb::ModelDatabase*>{&db}, config) {}

FleetState::FleetState(std::vector<const modeldb::ModelDatabase*> dbs,
                       ProactiveConfig config)
    : config_(config) {
  AEVA_REQUIRE(config_.alpha >= 0.0 && config_.alpha <= 1.0,
               "alpha must be in [0, 1], got ", config_.alpha);
  AEVA_REQUIRE(config_.max_partitions >= 1, "partition budget must be >= 1");
  AEVA_REQUIRE(config_.search_threads == 1,
               "search_threads must be 1: the parallel search was removed, "
               "got ", config_.search_threads);
  // The incremental planner's persistent group index is keyed by
  // (hardware, mix) only; a spread-constrained plan would need the domain
  // in the key. Route spread-enabled configs through the batch allocator
  // until the index learns domains.
  AEVA_REQUIRE(!config_.spread.enabled,
               "FleetState does not support the spread constraint yet; "
               "use ProactiveAllocator for spread-constrained placement");
  AEVA_REQUIRE(!dbs.empty(), "need at least one model database");
  models_.reserve(dbs.size());
  for (const modeldb::ModelDatabase* db : dbs) {
    AEVA_REQUIRE(db != nullptr, "null model database");
    models_.emplace_back(*db, config.server_vm_cap);
  }
  // The per-server mixes a fleet can ever reach form the small
  // feasibility box; one sweep over it finds the longest estimated VM
  // time any placement can produce.
  for (const CostModel& model : models_) {
    const int cap = model.server_vm_cap();
    for (int cpu = 0; cpu <= cap; ++cpu) {
      for (int mem = 0; cpu + mem <= cap; ++mem) {
        for (int io = 0; cpu + mem + io <= cap; ++io) {
          ClassCounts mix;
          mix.cpu = cpu;
          mix.mem = mem;
          mix.io = io;
          if (mix.total() > 0 && model.feasible(mix)) {
            const modeldb::Record rec = model.estimate(mix);
            for (const ProfileClass profile : workload::kAllProfileClasses) {
              if (mix.of(profile) > 0) {
                max_time_s_ = std::max(max_time_s_, rec.time_of(profile));
              }
            }
          }
        }
      }
    }
  }
  if (config_.degrade_to_first_fit) {
    AEVA_REQUIRE(config_.fallback_multiplex >= 1,
                 "fallback multiplex factor must be >= 1, got ",
                 config_.fallback_multiplex);
    // Testbed servers have 4 CPUs regardless of hardware class.
    fallback_.emplace(config_.fallback_multiplex,
                      std::vector<int>(models_.size(), 4));
  }
  // Same arming condition as the batch search (pruning never changes
  // results; it only skips work).
  if (config_.goal == ProactiveGoal::kAlphaWeighted) {
    bool energy_bounded = true;
    for (const CostModel& model : models_) {
      energy_bounded = energy_bounded && model.db().energy_monotone();
    }
    prune_enabled_ = config_.alpha == 0.0 || energy_bounded;
  }
}

// Out of line: ~unique_ptr<Planner> needs the complete Planner above. The
// moved-from scratch's fleet/config pointers are refreshed by the next
// plan() before any use.
FleetState::~FleetState() = default;
FleetState::FleetState(FleetState&&) noexcept = default;
FleetState& FleetState::operator=(FleetState&&) noexcept = default;

const CostModel& FleetState::model_of(int hardware) const {
  AEVA_REQUIRE(hardware >= 0 &&
                   static_cast<std::size_t>(hardware) < models_.size(),
               "unknown hardware class ", hardware, " (have ",
               models_.size(), ")");
  return models_[static_cast<std::size_t>(hardware)];
}

std::size_t FleetState::index_of(int server_id) const noexcept {
  if (dense_ids_) {
    return server_id >= 0 &&
                   static_cast<std::size_t>(server_id) < nodes_.size()
               ? static_cast<std::size_t>(server_id)
               : nodes_.size();
  }
  const auto it = std::lower_bound(
      nodes_.begin(), nodes_.end(), server_id,
      [](const AllocationNode& node, int id) { return node.id < id; });
  return it != nodes_.end() && it->id == server_id
             ? static_cast<std::size_t>(it - nodes_.begin())
             : nodes_.size();
}

AllocationNode& FleetState::node_mut(int server_id) {
  const std::size_t index = index_of(server_id);
  AEVA_REQUIRE(index < nodes_.size(), "unknown server id ", server_id);
  return nodes_[index];
}

const AllocationNode& FleetState::node(int server_id) const {
  const std::size_t index = index_of(server_id);
  AEVA_REQUIRE(index < nodes_.size(), "unknown server id ", server_id);
  return nodes_[index];
}

void FleetState::index_insert(const AllocationNode& node) {
  const auto [it, created] =
      groups_.try_emplace(GroupKey{node.hardware, node.allocated});
  if (created) {
    // A brand-new mix: the universe grows, the planner extends lazily.
    it->second.ordinal = static_cast<std::uint32_t>(slot_order_.size());
    slot_order_.emplace_back(&it->first, &it->second);
    member_count_.push_back(0);
    head_id_.push_back(0);
    live_pos_.push_back(0);
  }
  std::vector<int>& members = it->second.members;
  members.insert(std::lower_bound(members.begin(), members.end(), node.id),
                 node.id);
  const std::uint32_t ordinal = it->second.ordinal;
  head_id_[ordinal] = members.front();
  if (++member_count_[ordinal] == 1) {
    live_pos_[ordinal] = static_cast<std::uint32_t>(live_order_.size());
    live_order_.push_back(ordinal);
    ++live_grow_stamp_;
  }
}

void FleetState::index_erase(const AllocationNode& node) {
  const auto it = groups_.find(GroupKey{node.hardware, node.allocated});
  AEVA_INVARIANT(it != groups_.end(), "group index lost server ", node.id);
  std::vector<int>& members = it->second.members;
  const auto pos =
      std::lower_bound(members.begin(), members.end(), node.id);
  AEVA_INVARIANT(pos != members.end() && *pos == node.id,
                 "group index lost server ", node.id);
  members.erase(pos);
  const std::uint32_t ordinal = it->second.ordinal;
  head_id_[ordinal] = members.empty() ? 0 : members.front();
  if (--member_count_[ordinal] == 0) {
    // Swap-remove from the live list; the planner's fold is an
    // order-independent min, so the ordering churn is harmless.
    const std::uint32_t at = live_pos_[ordinal];
    live_order_[at] = live_order_.back();
    live_pos_[live_order_[at]] = at;
    live_order_.pop_back();
  }
  // A drained slot stays: its memo and cached evaluations are still
  // valid if the mix recurs, and the planner's availability check skips
  // member-less groups — no cache is invalidated by a drain.
}

void FleetState::reset(std::span<const ServerState> servers,
                       const std::vector<std::uint8_t>* down) {
  AEVA_REQUIRE(down == nullptr || down->size() == servers.size(),
               "down mask size ", down == nullptr ? 0 : down->size(),
               " does not match fleet size ", servers.size());
  nodes_.clear();
  for (auto& [key, slot] : groups_) {
    (void)key;
    slot.members.clear();  // memberships rebuild below; memos survive
  }
  std::fill(member_count_.begin(), member_count_.end(), 0u);
  live_order_.clear();
  up_count_ = 0;
  ++stats_.resyncs;
  nodes_.reserve(servers.size());
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const ServerState& server = servers[i];
    (void)model_of(server.hardware);  // validates the class eagerly
    AllocationNode node;
    node.id = server.id;
    node.hardware = server.hardware;
    node.allocated = server.allocated;
    node.powered = server.powered;
    node.down = down != nullptr && (*down)[i] != 0;
    nodes_.push_back(node);
  }
  const auto by_id = [](const AllocationNode& a, const AllocationNode& b) {
    return a.id < b.id;
  };
  if (!std::is_sorted(nodes_.begin(), nodes_.end(), by_id)) {
    std::sort(nodes_.begin(), nodes_.end(), by_id);
  }
  dense_ids_ = true;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    AEVA_REQUIRE(i == 0 || nodes_[i - 1].id != nodes_[i].id,
                 "duplicate server id ", nodes_[i].id);
    dense_ids_ = dense_ids_ && nodes_[i].id == static_cast<int>(i);
  }
  for (const AllocationNode& node : nodes_) {
    if (!node.down) {
      ++up_count_;
      index_insert(node);
    }
  }
}

SyncOutcome FleetState::sync(std::span<const ServerState> servers) {
  // Merge walk: nodes_ and (when ordered) `servers` both ascend by id.
  const auto ordered = [&servers] {
    for (std::size_t j = 1; j < servers.size(); ++j) {
      if (servers[j].id <= servers[j - 1].id) {
        return false;
      }
    }
    return true;
  };
  // Nonzero unless the node is live and mirrors `want` field for field —
  // branch-free, so the unchanged stretches that make up almost all of a
  // span compare at memory speed.
  const auto differs = [](const AllocationNode& node, const ServerState& want) {
    return (node.id ^ want.id) | (node.hardware ^ want.hardware) |
           (node.allocated.cpu ^ want.allocated.cpu) |
           (node.allocated.mem ^ want.allocated.mem) |
           (node.allocated.io ^ want.allocated.io) |
           (static_cast<int>(node.powered) ^ static_cast<int>(want.powered)) |
           static_cast<int>(node.down);
  };
  constexpr std::size_t kStride = 32;
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t exact_until = 0;  ///< nodes before this resolve one by one
  bool expressible = true;
  while (i < nodes_.size()) {
    if (i >= exact_until && i + kStride <= nodes_.size() &&
        j + kStride <= servers.size()) {
      int diff = 0;
      for (std::size_t k = 0; k < kStride; ++k) {
        diff |= differs(nodes_[i + k], servers[j + k]);
      }
      if (diff == 0) {
        i += kStride;
        j += kStride;
        continue;
      }
      exact_until = i + kStride;
    }
    // Something in this stretch changed: resolve its nodes exactly.
    AllocationNode& node = nodes_[i++];
    if (j < servers.size() && servers[j].id < node.id) {
      // An id this fleet has never seen — or the span descends here.
      expressible = false;
      break;
    }
    if (j == servers.size() || servers[j].id != node.id) {
      if (!node.down) {
        crash(node.id);  // vanished from the span
      }
      continue;
    }
    const ServerState& want = servers[j++];
    if (differs(node, want) == 0) {
      continue;
    }
    if (node.hardware != want.hardware) {
      expressible = false;
      break;
    }
    if (node.down) {
      repair(node.id);  // back cold and empty; the deltas refill it
    }
    for (const ProfileClass profile : workload::kAllProfileClasses) {
      const int delta = want.allocated.of(profile) - node.allocated.of(profile);
      if (delta > 0) {
        allocate(node.id, profile, delta);
      } else if (delta < 0) {
        deallocate(node.id, profile, -delta);
      }
    }
    if (node.powered != want.powered) {
      if (!want.powered) {
        expressible = false;  // powered off in place: no delta does that
        break;
      }
      // Powered on with no net change in the mix: a VM arrived and left
      // between two syncs (or the server returned warm). Replay one.
      allocate(node.id, ProfileClass::kCpu);
      deallocate(node.id, ProfileClass::kCpu);
    }
  }
  if (expressible && j == servers.size()) {
    return SyncOutcome::kDeltas;
  }
  if (!ordered()) {
    return SyncOutcome::kUnordered;
  }
  reset(servers);
  return SyncOutcome::kReset;
}

void FleetState::allocate(int server_id, ProfileClass profile, int count) {
  AEVA_REQUIRE(count >= 1, "allocate delta must be >= 1, got ", count);
  AllocationNode& node = node_mut(server_id);
  AEVA_REQUIRE(!node.down, "cannot allocate on crashed server ", server_id);
  index_erase(node);
  node.allocated.of(profile) += count;
  node.powered = true;
  index_insert(node);
  ++stats_.allocs;
}

void FleetState::deallocate(int server_id, ProfileClass profile, int count) {
  AEVA_REQUIRE(count >= 1, "deallocate delta must be >= 1, got ", count);
  AllocationNode& node = node_mut(server_id);
  AEVA_REQUIRE(!node.down, "cannot deallocate on crashed server ", server_id);
  AEVA_REQUIRE(node.allocated.of(profile) >= count,
               "deallocate underflow on server ", server_id);
  index_erase(node);
  node.allocated.of(profile) -= count;
  index_insert(node);
  ++stats_.deallocs;
}

void FleetState::crash(int server_id) {
  AllocationNode& node = node_mut(server_id);
  if (node.down) {
    return;  // already masked (mirrors the serve capacity model)
  }
  index_erase(node);
  node.down = true;
  node.powered = false;
  node.allocated = ClassCounts{};
  --up_count_;
}

void FleetState::repair(int server_id) {
  AllocationNode& node = node_mut(server_id);
  if (!node.down) {
    return;
  }
  node.down = false;  // returns cold (powered == false) and empty
  ++up_count_;
  index_insert(node);
}

void FleetState::crash_domain(std::span<const int> server_ids) {
  for (const int server_id : server_ids) {
    crash(server_id);
  }
}

void FleetState::repair_domain(std::span<const int> server_ids) {
  for (const int server_id : server_ids) {
    repair(server_id);
  }
}

const std::vector<ServerState>& FleetState::up_servers() const {
  if (up_count_ > up_scratch_.capacity()) {
    ++stats_.up_scratch_grows;
  }
  up_scratch_.clear();
  up_scratch_.reserve(up_count_);
  for (const AllocationNode& node : nodes_) {  // id order == batch up order
    if (node.down) {
      continue;
    }
    ServerState server;
    server.id = node.id;
    server.allocated = node.allocated;
    server.powered = node.powered;
    server.hardware = node.hardware;
    up_scratch_.push_back(server);
  }
  return up_scratch_;
}

FleetStats FleetState::stats() const {
  stats_.groups = live_order_.size();
  return stats_;
}

const FleetState::MemoEntry& FleetState::memo_entry(
    const GroupKey& group, GroupSlot& slot, std::uint64_t shape_key,
    const ClassCounts& block) {
  const auto pos = std::lower_bound(
      slot.memo.begin(), slot.memo.end(), shape_key,
      [](const std::pair<std::uint64_t, MemoEntry>& e, std::uint64_t key) {
        return e.first < key;
      });
  if (pos != slot.memo.end() && pos->first == shape_key) {
    ++stats_.memo_hits;
    return pos->second;
  }
  ++stats_.memo_misses;
  // Fill: the request-independent core of SearchContext::placed_on — a
  // pure function of (hardware, base mix, block) and the database, so the
  // entry replays bit-for-bit forever. block_time is summed here in the
  // same class order the batch evaluator uses per candidate.
  MemoEntry entry;
  const CostModel& model = model_of(group.hardware);
  const ClassCounts combined = group.mix + block;
  if (model.feasible(combined)) {
    const modeldb::Record rec = model.estimate(combined);
    for (const ProfileClass profile : workload::kAllProfileClasses) {
      const auto ci = static_cast<std::size_t>(profile);
      entry.time_per_class[ci] =
          block.of(profile) > 0 ? rec.time_of(profile) : 0.0;
      entry.block_time += block.of(profile) * entry.time_per_class[ci];
    }
    // The base energy is shape-independent: fill it once per slot and
    // replay the identical double for every later shape of this mix.
    if (!slot.base_known) {
      slot.base_energy_j = model.mix_energy_j(group.mix);
      slot.base_known = true;
    }
    entry.marginal_energy_j = rec.energy_j - slot.base_energy_j;
    entry.feasible = true;
  }
  ++stats_.memo_entries;
  return slot.memo.insert(pos, {shape_key, entry})->second;
}

AllocationResult FleetState::plan(std::span<const VmRequest> vms) {
  AllocationResult result;
  plan_into(vms, result);
  return result;
}

void FleetState::plan_into(std::span<const VmRequest> vms,
                           AllocationResult& result) {
  ++stats_.plans;
  tallies_ = PlanTallies{};
  result.placements.clear();
  result.score = AllocationScore{};
  result.complete = false;
  result.satisfied_qos = true;
  result.partitions_examined = 0;
  result.outcome = AllocationOutcome{};
  if (vms.empty()) {
    result.complete = true;
    return;
  }

  ClassCounts request;
  for (const VmRequest& vm : vms) {
    ++request.of(vm.profile);
  }

  if (scratch_ == nullptr) {
    scratch_ = std::make_unique<Planner>();
  }
  Planner& planner = *scratch_;
  planner.begin_plan(*this);
  planner.n_vms = static_cast<double>(vms.size());
  // Normalization references always come from hardware class 0, as in the
  // batch search.
  planner.time_ref = models_.front().time_reference_s(request);
  planner.energy_ref = models_.front().energy_reference_j(request);
  for (const VmRequest& vm : vms) {
    planner.deadlines[static_cast<int>(vm.profile)].push_back(
        vm.max_exec_time_s);
  }
  for (auto& list : planner.deadlines) {
    std::sort(list.begin(), list.end());
  }
  for (std::size_t ci = 0; ci < workload::kProfileClassCount; ++ci) {
    planner.qos_threshold[ci] =
        planner.deadlines[ci].empty() ? kInf : planner.deadlines[ci].front();
  }
  // A threshold at or above the database-wide time bound cannot reject
  // any entry, so the per-block QoS check is provably a no-op: the fold
  // may skip it and stream the dense rank array alone. Exact, not
  // approximate — the skipped comparisons all evaluate to "pass".
  planner.qos_vacuous = planner.qos_threshold[0] >= max_time_s_ &&
                        planner.qos_threshold[1] >= max_time_s_ &&
                        planner.qos_threshold[2] >= max_time_s_;
  planner.prune = prune_enabled_;
  // One map lookup per plan resolves everything this request's class
  // counts have ever produced: shape evaluations against the group
  // universe and the canonical partition list itself.
  Planner::RequestCache& cache =
      planner.request_caches[shape_key_of(request)];
  // A partition never uses more blocks than VMs, so clamping the server
  // bound to the request size canonicalizes the cache key without
  // changing the enumeration.
  const std::size_t limit =
      std::min(std::max<std::size_t>(up_count_, 1),
               static_cast<std::size_t>(request.total()));
  const Planner::PartitionList& plist =
      planner.partition_list(cache, request, limit);

  SearchBest& best = planner.best;
  std::size_t examined = 0;
  for (const Planner::CachedPartition& cp : plist.items) {
    const std::size_t index = examined++;
    double prune_above = kInf;
    if (planner.prune) {
      if (config_.enforce_qos) {
        prune_above = best.qos.valid ? best.qos.combined : kInf;
      } else {
        prune_above = best.any.valid ? best.any.combined : kInf;
      }
    }
    const std::optional<EvalOutcome> out = planner.evaluate(cp, prune_above);
    if (out.has_value()) {
      best.consider(*out, planner.placed, index);
    }
  }
  result.partitions_examined = examined;
  const bool search_truncated = examined >= config_.max_partitions;

  const Incumbent* chosen = nullptr;
  if (!config_.enforce_qos) {
    chosen = best.any.valid ? &best.any : nullptr;
  } else if (best.qos.valid) {
    chosen = &best.qos;
  } else if (config_.fallback_best_effort && best.any.valid) {
    chosen = &best.any;
  }
  if (chosen == nullptr) {
    // Same classification (and fallback leg) as the batch allocator.
    RejectReason reason = RejectReason::kNoFeasibleServer;
    if (up_count_ == 0) {
      reason = RejectReason::kNoServers;  // all masked or failed
    } else if (!best.any.valid && examined >= config_.max_partitions) {
      reason = RejectReason::kSearchBudgetExhausted;
    } else if (best.any.valid) {
      reason = RejectReason::kQosInfeasible;
    }
    if (fallback_.has_value()) {
      fallback_->allocate_into(vms, up_servers(), result);
      if (result.complete) {
        result.partitions_examined = examined;
        result.satisfied_qos = false;  // the slot-based fallback is QoS-blind
        result.outcome = AllocationOutcome{AllocationPath::kFallbackFirstFit,
                                           reason, search_truncated};
        return;
      }
      result.partitions_examined = examined;  // the leg reset it
    }
    result.outcome = AllocationOutcome{AllocationPath::kRejected, reason,
                                       search_truncated};
    return;
  }
  result.satisfied_qos = chosen->qos_ok;
  result.score.est_time_s = chosen->est_time_s;
  result.score.est_energy_j = chosen->est_energy_j;
  result.score.combined = chosen->combined;

  // VM → slot mapping, exactly as the batch allocator: per class, the VM
  // with the tightest deadline goes to the block slot with the smallest
  // estimated time. The two stable sorts are insertion sorts — the same
  // order as std::stable_sort, without its temporary buffer.
  result.placements.reserve(vms.size());
  for (const ProfileClass profile : workload::kAllProfileClasses) {
    const int ci = static_cast<int>(profile);
    std::vector<const VmRequest*>& class_vms = planner.class_vms;
    class_vms.clear();
    for (const VmRequest& vm : vms) {
      if (vm.profile == profile) {
        class_vms.push_back(&vm);
      }
    }
    if (class_vms.empty()) {
      continue;
    }
    stable_insertion_sort(class_vms,
                          [](const VmRequest* a, const VmRequest* b) {
                            return a->max_exec_time_s < b->max_exec_time_s;
                          });
    std::vector<Planner::MapSlot>& slots = planner.map_slots;
    slots.clear();
    for (const PlacedBlock& block : chosen->blocks) {
      for (int k = 0; k < block.block.of(profile); ++k) {
        slots.push_back(
            Planner::MapSlot{block.time_per_class[ci], block.server_id});
      }
    }
    AEVA_INVARIANT(slots.size() == class_vms.size(),
                   "block slots do not cover the request for class ",
                   workload::to_string(profile));
    stable_insertion_sort(
        slots, [](const Planner::MapSlot& a, const Planner::MapSlot& b) {
          return a.time < b.time;
        });
    for (std::size_t k = 0; k < class_vms.size(); ++k) {
      result.placements.push_back(
          Placement{class_vms[k]->id, slots[k].server_id});
    }
  }
  result.complete = true;
  result.outcome.path = AllocationPath::kIncremental;
  result.outcome.search_truncated = search_truncated;
}

}  // namespace aeva::core
