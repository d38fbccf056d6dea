#include "core/incremental.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
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

/// One placed block of a candidate under evaluation.
struct PlacedBlock {
  ClassCounts block;
  std::uint32_t server_pos = 0;     ///< the chosen server's nodes_ position
  std::uint32_t group_ordinal = 0;  ///< slot ordinal of the chosen group
  std::int32_t domain = -1;         ///< the group's failure domain
  double time_per_class[workload::kProfileClassCount] = {0.0, 0.0, 0.0};
  double marginal_energy_j = 0.0;
  double contribution = 0.0;  ///< exact α-rank term (bound arithmetic)
};

/// Scalar outcome of one candidate evaluation.
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

/// Running optima with a deterministic tie-break: strictly smaller rank
/// wins; equal ranks keep the earlier candidate in canonical enumeration
/// order.
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

/// Per-plan() search state: the request context, the cross-plan shape
/// evaluations over the group universe, and the prefix-incremental
/// evaluation stack. Every double below is produced by the expressions
/// of the plain per-server scorer (tests/testing/reference_pa.cpp), in
/// the same order, so candidate ranks — and hence the chosen placement —
/// are bitwise identical to it over up_servers().
///
/// One Planner lives in FleetState::scratch_ for the fleet's lifetime:
/// begin_plan() clears every buffer but keeps its capacity, so a warm
/// decision performs no allocation at all. The fleet/config pointers are
/// refreshed on every plan() — they never outlive a call, which keeps the
/// scratch safe across FleetState moves.
struct FleetState::Planner {
  FleetState* fleet = nullptr;
  const ProactiveConfig* config = nullptr;

  // --- request context -----------------------------------------------------
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
  /// The fleet's spread constraint; null when it is off.
  const SpreadConfig* spread = nullptr;
  /// This request's VMs per failure domain (spread only): zeroed per
  /// plan, capacity kept.
  std::vector<int> domain_used;

  // --- group universe (fleet->slot_order_, stable ordinals) ---------------
  /// Members a candidate has consumed per group ordinal. Every greedy
  /// pick takes the earliest unused member of its group, so consumed
  /// members are always the earliest ones of the member set — the next
  /// free member is the used_count-th earliest. uint32 keeps the whole
  /// universe's availability state within a few cache lines.
  std::vector<std::uint32_t> used_count;

  // --- cross-plan shape evaluations ---------------------------------------
  /// Request-dependent view over a memo entry: the derived doubles of one
  /// (shape, group) pair. Every input (memo entry, n_vms, time_ref,
  /// energy_ref) is a pure function of the request's class counts and the
  /// database, so the entry is valid for every plan of the same counts —
  /// only the per-request QoS deadlines vary, and those are checked per
  /// plan (qos_pass).
  struct CachedEval {
    bool feasible = false;
    double sel_rank = 0.0;
    double contribution = 0.0;
    double marginal_energy_j = 0.0;
    double time_per_class[workload::kProfileClassCount] = {0.0, 0.0, 0.0};
  };
  /// One block shape's evaluations over the mix universe, indexed by the
  /// stable mix ordinal (groups that differ only in failure domain share
  /// a cell). Cells are computed lazily — only for mixes of groups that
  /// are *live* when the shape is used, so universe growth from transient
  /// mixes costs nothing — and are never invalidated: membership churn,
  /// drains, and revivals change nothing a cached double depends on.
  struct CachedShape {
    std::uint64_t key = 0;  ///< packed shape, for lazy memo lookups
    ClassCounts block;      ///< the shape itself
    /// Cheapest feasible contribution over every *computed* cell. Live
    /// groups are always covered before use (ready()), so this is a
    /// lower bound on the live-group fold; pruning against it never
    /// changes results or the partitions-examined count.
    double min_contrib = kInf;
    std::vector<CachedEval> evals;  ///< by mix ordinal
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
      std::int32_t domain = -1;  ///< the group's failure domain
    };
    std::vector<FoldEntry> fold;
    /// Dense in-fold flags by slot ordinal: the coverage sweep appends
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
    std::uint32_t server_pos = 0;
  };
  std::vector<MapSlot> map_slots;

  /// Rewinds every per-plan buffer, keeping capacity.
  void begin_plan(FleetState& owner) {
    fleet = &owner;
    config = &owner.config_;
    for (auto& list : deadlines) {
      list.clear();
    }
    spread = config->spread.enabled ? &config->spread : nullptr;
    if (spread != nullptr) {
      domain_used.assign(static_cast<std::size_t>(spread->domain_count), 0);
    }
    used_count.assign(owner.slot_order_.size(), 0);
    placed.clear();
    bound_after.clear();
    best.reset();
  }

  /// The per-VM rank the greedy placement orders servers by (energy vs
  /// normalized mean block time).
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

  /// The block's exact contribution to the final α-rank (the rank is the
  /// sum of these over all blocks, so partial sums are lower bounds
  /// whenever every term is ≥ 0).
  [[nodiscard]] double rank_contribution(const MemoEntry& entry) const {
    return config->alpha * entry.marginal_energy_j / (n_vms * energy_ref) +
           (1.0 - config->alpha) * entry.block_time / (n_vms * time_ref);
  }

  /// Marginal blast penalty of landing a `block_total`-VM block in
  /// `domain` given the request's VMs already there: blast_penalty ×
  /// ((n_d + b)² − n_d²) / n². The marginals telescope to finalize()'s
  /// Herfindahl term, so steering the greedy server choice by them keeps
  /// the per-server ordering consistent with the candidate score. Only
  /// called with `spread` armed; an unmapped server is its own singleton
  /// domain (n_d = 0 — a server hosts at most one block per candidate).
  [[nodiscard]] double blast_marginal(int domain, int block_total) const {
    if (spread->blast_penalty <= 0.0) {
      return 0.0;
    }
    const double prior =
        domain >= 0
            ? static_cast<double>(domain_used[static_cast<std::size_t>(domain)])
            : 0.0;
    const double b = static_cast<double>(block_total);
    return spread->blast_penalty * (2.0 * prior * b + b * b) /
           (n_vms * n_vms);
  }

  /// Derives one (shape, mix) cell from the persistent score memo. Each
  /// cell is computed exactly once over the fleet's lifetime; every later
  /// plan replays the cached doubles bit-for-bit.
  void compute_cell(CachedShape& cs, std::uint32_t m) {
    CachedEval& eval = cs.evals[m];
    cs.done[m] = 1;
    const MemoEntry& entry =
        fleet->memo_entry(*fleet->mix_order_[m].first,
                          *fleet->mix_order_[m].second, cs.key, cs.block);
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
      const std::size_t mixes = fleet->mix_order_.size();
      if (cs.evals.size() < mixes) {
        cs.evals.resize(mixes);
        cs.done.resize(mixes, 0);
      }
      cs.folded.resize(fleet->slot_order_.size(), 0);
      if (cs.fold.size() > 2 * fleet->live_order_.size() + 8) {
        cs.fold.clear();
        std::fill(cs.folded.begin(), cs.folded.end(), std::uint8_t{0});
      }
      for (const std::uint32_t g : fleet->live_order_) {
        const std::uint32_t m = fleet->slot_mix_[g];
        if (!cs.done[m]) {
          compute_cell(cs, m);
        }
        if (cs.folded[g]) {
          continue;
        }
        const CachedEval& eval = cs.evals[m];
        if (eval.feasible) {
          cs.folded[g] = 1;
          CachedShape::FoldEntry entry;
          entry.rank = eval.sel_rank;
          for (std::size_t ci = 0; ci < workload::kProfileClassCount; ++ci) {
            entry.time_per_class[ci] = eval.time_per_class[ci];
          }
          entry.g = g;
          entry.domain = fleet->slot_order_[g].first->domain;
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

  /// Per-plan QoS pre-check over a cached evaluation: every affected
  /// class's estimate against its tightest deadline, recomputed each plan
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

  /// Running (rank asc, position asc) minimum of the greedy fold. The
  /// tie-break position is fetched lazily — on an exact rank tie and once
  /// for the winner — because reading it may chase into the slot's member
  /// list.
  struct Pick {
    static constexpr std::uint32_t kUnfetched = ~std::uint32_t{0};
    const CachedShape::FoldEntry* entry = nullptr;
    double rank = 0.0;
    std::uint32_t pos = kUnfetched;
  };

  /// Tie-break position of group `g`'s earliest member not yet consumed
  /// by the candidate under evaluation.
  [[nodiscard]] std::uint32_t next_member(std::uint32_t g) const {
    const std::uint32_t used = used_count[g];
    if (used == 0) {
      return fleet->head_pos_[g];
    }
    const std::vector<std::uint32_t>& members =
        fleet->slot_order_[g].second->members;
    return members[members.size() - 1 - used];
  }

  void offer(Pick& pick, const CachedShape::FoldEntry& entry,
             double rank) const {
    if (pick.entry == nullptr || rank < pick.rank) {
      pick = Pick{&entry, rank, Pick::kUnfetched};
    } else if (rank == pick.rank) {
      if (pick.pos == Pick::kUnfetched) {
        pick.pos = next_member(pick.entry->g);
      }
      const std::uint32_t pos = next_member(entry.g);
      if (pos < pick.pos) {
        pick = Pick{&entry, rank, pos};
      }
    }
  }

  /// One pass of place_grouped() over the shape's packed fold: `win`
  /// collects the best QoS-passing group (every group passes when
  /// `kVacuous`), `fallback` the best of all of them.
  template <bool kSpread, bool kVacuous>
  void fold(const CachedShape& cs, const ClassCounts& block, Pick& win,
            Pick& fallback) const {
    const std::uint32_t* capacity = fleet->member_count_.data();
    const std::uint32_t* used = used_count.data();
    const int total = block.total();
    for (const CachedShape::FoldEntry& entry : cs.fold) {
      const std::uint32_t g = entry.g;
      if (used[g] >= capacity[g]) {
        continue;  // drained since the sweep, or consumed by this candidate
      }
      double rank = entry.rank;
      if constexpr (kSpread) {
        // The group key holds the domain, so one check masks every member.
        if (entry.domain >= 0 &&
            domain_used[static_cast<std::size_t>(entry.domain)] + total >
                spread->max_vms_per_domain) {
          continue;
        }
        // The cached rank is tally-free; the marginal depends on the
        // running per-domain tally, so it is added here.
        rank = entry.rank + blast_marginal(entry.domain, total);
      }
      if constexpr (kVacuous) {
        offer(win, entry, rank);
      } else {
        offer(fallback, entry, rank);
        if (qos_pass(entry, block)) {
          offer(win, entry, rank);
        }
      }
    }
  }

  /// Greedy server choice for one block given the servers the candidate
  /// already took and its running per-domain VM tally: the winning (qos
  /// desc, rank asc) group, ties to the earliest unused member — exactly
  /// the server a plain scan of the span keeps (ties → first server of
  /// the list, as in the paper). Servers whose estimates respect every
  /// affected class's tightest deadline are preferred; QoS-violating
  /// options win only when no server passes (the candidate then fails the
  /// final QoS check and can only be selected via the relaxed path). A
  /// group whose domain would exceed the spread cap is skipped, and the
  /// blast marginal joins the rank. An order-independent min-fold over the
  /// live groups, so the live list's arbitrary order is irrelevant, and
  /// |live| ≪ |universe| keeps the scan a handful of cache lines.
  [[nodiscard]] std::optional<PlacedBlock> place_grouped(
      CachedShape& shape, const ClassCounts& block) {
    const CachedShape& cs = ready(shape);
    Pick win;
    Pick fallback;  ///< best over every group, QoS or not
    // The loop-invariant modes are template arguments, so the common
    // spread-off fold carries no per-group test for them.
    if (spread != nullptr) {
      qos_vacuous ? fold<true, true>(cs, block, win, fallback)
                  : fold<true, false>(cs, block, win, fallback);
    } else {
      qos_vacuous ? fold<false, true>(cs, block, win, fallback)
                  : fold<false, false>(cs, block, win, fallback);
    }
    if (win.entry == nullptr) {
      win = fallback;
    }
    if (win.entry == nullptr) {
      return std::nullopt;
    }
    if (win.pos == Pick::kUnfetched) {
      win.pos = next_member(win.entry->g);
    }
    const CachedEval& eval = cs.evals[fleet->slot_mix_[win.entry->g]];
    PlacedBlock out;
    out.block = block;
    out.server_pos = win.pos;
    out.group_ordinal = win.entry->g;
    out.domain = win.entry->domain;
    for (std::size_t ci = 0; ci < workload::kProfileClassCount; ++ci) {
      out.time_per_class[ci] = eval.time_per_class[ci];
    }
    out.marginal_energy_j = eval.marginal_energy_j;
    out.contribution = eval.contribution;
    return out;
  }

  /// Aggregate rank and QoS feasibility of the placed candidate.
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

    if (spread != nullptr && spread->blast_penalty > 0.0) {
      // Expected blast-radius fraction Σ_d (n_d / n)² of the candidate (the
      // Herfindahl concentration of types.hpp SpreadConfig): a first-
      // occurrence O(b²) scan over the placed blocks — no allocation, and
      // the penalty is ≥ 0, so the branch-and-bound partial sums stay lower
      // bounds of the final rank. An unmapped server (domain -1) counts as
      // its own singleton domain.
      double herfindahl = 0.0;
      for (std::size_t i = 0; i < placed.size(); ++i) {
        const int di = placed[i].domain;
        bool counted_earlier = false;
        double in_domain = 0.0;
        for (std::size_t j = 0; j < placed.size(); ++j) {
          const bool same_domain = di >= 0 ? placed[j].domain == di : i == j;
          if (!same_domain) {
            continue;
          }
          if (j < i) {
            counted_earlier = true;
            break;
          }
          in_domain += placed[j].block.total();
        }
        if (!counted_earlier) {
          const double fraction = in_domain / n_vms;
          herfindahl += fraction * fraction;
        }
      }
      out.combined += spread->blast_penalty * herfindahl;
    }

    // QoS: for each class, the k-th smallest estimated time must fit under
    // the k-th tightest deadline (optimal matching by exchange argument).
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

  /// Prefix-incremental candidate evaluation: greedy placement per block,
  /// then the aggregate rank and the QoS check. The enumeration emits
  /// candidates in canonical order, so consecutive candidates share long
  /// block prefixes — and a block's greedy placement is a pure function
  /// of the blocks before it — so only the differing suffix is re-placed.
  /// Rewinding a consumed prefix just decrements the per-group and
  /// per-domain counters; the common-prefix length is precomputed, and
  /// `placed` is always a prefix of the previous partition in enumeration
  /// order, so the retained entries are exactly the ones a fresh
  /// comparison would keep. Returns nullopt when some block fits nowhere,
  /// or — with pruning armed — as soon as a lower bound on the final rank
  /// exceeds `prune_above` (only candidates strictly worse than a
  /// complete one are abandoned, so the result is unchanged).
  [[nodiscard]] std::optional<EvalOutcome> evaluate(
      const CachedPartition& cp, double prune_above) {
    const partition::TypedPartition& blocks = cp.blocks;
    const std::size_t keep = std::min(cp.lcp, placed.size());
    for (std::size_t i = placed.size(); i > keep; --i) {
      const PlacedBlock& gone = placed[i - 1];
      --used_count[gone.group_ordinal];
      if (gone.domain >= 0) {
        domain_used[static_cast<std::size_t>(gone.domain)] -=
            gone.block.total();
      }
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
      if (next->domain >= 0) {
        domain_used[static_cast<std::size_t>(next->domain)] +=
            next->block.total();
      }
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

void FleetState::validate(
    const ProactiveConfig& config,
    const std::vector<const modeldb::ModelDatabase*>& dbs) {
  AEVA_REQUIRE(config.alpha >= 0.0 && config.alpha <= 1.0,
               "alpha must be in [0, 1], got ", config.alpha);
  AEVA_REQUIRE(config.max_partitions >= 1, "partition budget must be >= 1");
  AEVA_REQUIRE(config.search_threads == 1,
               "search_threads must be 1: the parallel search was removed, "
               "got ", config.search_threads);
  config.spread.validate();  // the planner's tally is indexed by domain
  AEVA_REQUIRE(!dbs.empty(), "need at least one model database");
  for (const modeldb::ModelDatabase* db : dbs) {
    AEVA_REQUIRE(db != nullptr, "null model database");
  }
  if (config.degrade_to_first_fit) {
    AEVA_REQUIRE(config.fallback_multiplex >= 1,
                 "fallback multiplex factor must be >= 1, got ",
                 config.fallback_multiplex);
  }
}

FleetState::FleetState(std::vector<const modeldb::ModelDatabase*> dbs,
                       ProactiveConfig config)
    : config_(config) {
  validate(config_, dbs);
  models_.reserve(dbs.size());
  for (const modeldb::ModelDatabase* db : dbs) {
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
    // Testbed servers have 4 CPUs regardless of hardware class.
    fallback_.emplace(config_.fallback_multiplex,
                      std::vector<int>(models_.size(), 4));
    // The degradation leg enforces the same spread constraint, so no path
    // out of the planner can over-concentrate a request.
    fallback_->set_spread(config_.spread);
  }
  // Pruning never changes results; it only skips work. The α-weighted
  // rank is a sum of per-block terms whose time part is always ≥ 0 and
  // whose energy part is ≥ 0 exactly when every database is
  // energy-monotone; α = 0 needs no energy bound. The EDP goal is a
  // product of totals — not separable — so it never prunes.
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
      by_id_.begin(), by_id_.end(), server_id,
      [](const std::pair<int, std::uint32_t>& e, int id) {
        return e.first < id;
      });
  return it != by_id_.end() && it->first == server_id ? it->second
                                                      : nodes_.size();
}

std::size_t FleetState::position_of(int server_id) const {
  const std::size_t index = index_of(server_id);
  AEVA_REQUIRE(index < nodes_.size(), "unknown server id ", server_id);
  return index;
}

const AllocationNode& FleetState::node(int server_id) const {
  return nodes_[position_of(server_id)];
}

FleetState::GroupKey FleetState::key_of(
    const AllocationNode& node) const noexcept {
  return GroupKey{MixKey{node.hardware, node.allocated},
                  config_.spread.enabled ? config_.spread.domain_of(node.id)
                                         : -1};
}

void FleetState::index_insert(std::size_t at, bool bulk) {
  const auto [it, created] = groups_.try_emplace(key_of(nodes_[at]));
  if (created) {
    // A brand-new key: the universe grows, the planner extends lazily.
    const auto [mix, new_mix] = mixes_.try_emplace(it->first.base);
    if (new_mix) {
      mix->second.ordinal = static_cast<std::uint32_t>(mix_order_.size());
      mix_order_.emplace_back(&mix->first, &mix->second);
    }
    it->second.ordinal = static_cast<std::uint32_t>(slot_order_.size());
    slot_order_.emplace_back(&it->first, &it->second);
    slot_mix_.push_back(mix->second.ordinal);
    member_count_.push_back(0);
    head_pos_.push_back(0);
    live_pos_.push_back(0);
  }
  std::vector<std::uint32_t>& members = it->second.members;
  const auto pos = static_cast<std::uint32_t>(at);
  const std::uint32_t ordinal = it->second.ordinal;
  if (bulk) {
    members.push_back(pos);  // ascending; reset() reverses once at the end
  } else {
    members.insert(std::lower_bound(members.begin(), members.end(), pos,
                                    std::greater<>()),
                   pos);
    head_pos_[ordinal] = members.back();
  }
  if (++member_count_[ordinal] == 1) {
    live_pos_[ordinal] = static_cast<std::uint32_t>(live_order_.size());
    live_order_.push_back(ordinal);
    ++live_grow_stamp_;
  }
}

void FleetState::index_erase(std::size_t at) {
  const AllocationNode& node = nodes_[at];
  const auto it = groups_.find(key_of(node));
  AEVA_INVARIANT(it != groups_.end(), "group index lost server ", node.id);
  std::vector<std::uint32_t>& members = it->second.members;
  const auto pos = std::lower_bound(members.begin(), members.end(),
                                    static_cast<std::uint32_t>(at),
                                    std::greater<>());
  AEVA_INVARIANT(pos != members.end() && *pos == at,
                 "group index lost server ", node.id);
  members.erase(pos);
  const std::uint32_t ordinal = it->second.ordinal;
  head_pos_[ordinal] = members.empty() ? 0 : members.back();
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
  by_id_.clear();
  for (auto& [key, slot] : groups_) {
    (void)key;
    slot.members.clear();  // memberships rebuild below; the memo survives
  }
  std::fill(member_count_.begin(), member_count_.end(), 0u);
  live_order_.clear();
  up_count_ = 0;
  ++stats_.resyncs;
  nodes_.reserve(servers.size());
  dense_ids_ = true;
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
    dense_ids_ = dense_ids_ && server.id == static_cast<int>(i);
  }
  if (!dense_ids_) {
    by_id_.reserve(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      by_id_.emplace_back(nodes_[i].id, static_cast<std::uint32_t>(i));
    }
    if (!std::is_sorted(by_id_.begin(), by_id_.end())) {
      std::sort(by_id_.begin(), by_id_.end());
    }
    for (std::size_t i = 1; i < by_id_.size(); ++i) {
      AEVA_REQUIRE(by_id_[i - 1].first != by_id_[i].first,
                   "duplicate server id ", by_id_[i].first);
    }
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].down) {
      ++up_count_;
      index_insert(i, /*bulk=*/true);
    }
  }
  for (const auto& [key, slot] : slot_order_) {
    (void)key;
    std::reverse(slot->members.begin(), slot->members.end());
    head_pos_[slot->ordinal] = slot->members.empty() ? 0 : slot->members.back();
  }
}

namespace {

/// Nonzero unless `node` is live and mirrors `want` field for field —
/// branch-free, so the unchanged stretches that make up almost all of a
/// span compare at memory speed.
int differs(const AllocationNode& node, const ServerState& want) noexcept {
  return (node.id ^ want.id) | (node.hardware ^ want.hardware) |
         (node.allocated.cpu ^ want.allocated.cpu) |
         (node.allocated.mem ^ want.allocated.mem) |
         (node.allocated.io ^ want.allocated.io) |
         (static_cast<int>(node.powered) ^ static_cast<int>(want.powered)) |
         static_cast<int>(node.down);
}

}  // namespace

bool FleetState::sync_node(std::size_t at, const ServerState* want) {
  AllocationNode& node = nodes_[at];
  if (want == nullptr) {
    if (!node.down) {
      crash(node.id);  // vanished from the span
    }
    return true;
  }
  if (differs(node, *want) == 0) {
    return true;
  }
  if (node.hardware != want->hardware) {
    return false;
  }
  if (node.down) {
    repair(node.id);  // back cold and empty; the deltas refill it
  }
  for (const ProfileClass profile : workload::kAllProfileClasses) {
    const int delta = want->allocated.of(profile) - node.allocated.of(profile);
    if (delta > 0) {
      allocate(node.id, profile, delta);
    } else if (delta < 0) {
      deallocate(node.id, profile, -delta);
    }
  }
  if (node.powered != want->powered) {
    if (!want->powered) {
      return false;  // powered off in place: no delta does that
    }
    // Powered on with no net change in the mix: a VM arrived and left
    // between two syncs (or the server returned warm). Replay one.
    allocate(node.id, ProfileClass::kCpu);
    deallocate(node.id, ProfileClass::kCpu);
  }
  return true;
}

SyncOutcome FleetState::sync(std::span<const ServerState> servers) {
  // Merge walk over nodes_ and `servers`, both in the last reset()'s order
  // for as long as the span keeps it.
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
    const int id = nodes_[i].id;
    if (j < servers.size() && servers[j].id != id) {
      const std::size_t at = index_of(servers[j].id);
      if (at < i || at == nodes_.size()) {
        // The span leaves the reset order here, or names an id this
        // fleet has never seen.
        expressible = false;
        break;
      }
    }
    const bool present = j < servers.size() && servers[j].id == id;
    if (!sync_node(i++, present ? &servers[j++] : nullptr)) {
      expressible = false;
      break;
    }
  }
  if (expressible && j == servers.size()) {
    return SyncOutcome::kDeltas;
  }
  reset(servers);
  return SyncOutcome::kReset;
}

SyncOutcome FleetState::sync(std::span<const ServerState> servers,
                             std::span<const int> changed_ids) {
  for (const int id : changed_ids) {
    if (index_of(id) == nodes_.size()) {
      reset(servers);  // a server this fleet has never seen
      return SyncOutcome::kReset;
    }
  }
  const auto by_id = [](const ServerState& server, int key) {
    return server.id < key;
  };
  for (const int id : changed_ids) {
    const auto it =
        std::lower_bound(servers.begin(), servers.end(), id, by_id);
    const ServerState* want =
        it != servers.end() && it->id == id ? &*it : nullptr;
    if (!sync_node(index_of(id), want)) {
      reset(servers);
      return SyncOutcome::kReset;
    }
  }
  return SyncOutcome::kDeltas;
}

void FleetState::allocate(int server_id, ProfileClass profile, int count) {
  AEVA_REQUIRE(count >= 1, "allocate delta must be >= 1, got ", count);
  const std::size_t at = position_of(server_id);
  AllocationNode& node = nodes_[at];
  AEVA_REQUIRE(!node.down, "cannot allocate on crashed server ", server_id);
  index_erase(at);
  node.allocated.of(profile) += count;
  node.powered = true;
  index_insert(at);
  ++stats_.allocs;
}

void FleetState::deallocate(int server_id, ProfileClass profile, int count) {
  AEVA_REQUIRE(count >= 1, "deallocate delta must be >= 1, got ", count);
  const std::size_t at = position_of(server_id);
  AllocationNode& node = nodes_[at];
  AEVA_REQUIRE(!node.down, "cannot deallocate on crashed server ", server_id);
  AEVA_REQUIRE(node.allocated.of(profile) >= count,
               "deallocate underflow on server ", server_id);
  index_erase(at);
  node.allocated.of(profile) -= count;
  index_insert(at);
  ++stats_.deallocs;
}

void FleetState::crash(int server_id) {
  const std::size_t at = position_of(server_id);
  AllocationNode& node = nodes_[at];
  if (node.down) {
    return;  // already masked (mirrors the serve capacity model)
  }
  index_erase(at);
  node.down = true;
  node.powered = false;
  node.allocated = ClassCounts{};
  --up_count_;
}

void FleetState::repair(int server_id) {
  const std::size_t at = position_of(server_id);
  AllocationNode& node = nodes_[at];
  if (!node.down) {
    return;
  }
  node.down = false;  // returns cold (powered == false) and empty
  ++up_count_;
  index_insert(at);
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
  for (const AllocationNode& node : nodes_) {  // tie-break order
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
    const MixKey& key, MixSlot& slot, std::uint64_t shape_key,
    const ClassCounts& block) {
  const auto pos = std::lower_bound(
      slot.memo.begin(), slot.memo.end(), shape_key,
      [](const std::pair<std::uint64_t, MemoEntry>& e, std::uint64_t k) {
        return e.first < k;
      });
  if (pos != slot.memo.end() && pos->first == shape_key) {
    ++stats_.memo_hits;
    return pos->second;
  }
  ++stats_.memo_misses;
  // Fill: the request-independent estimate of `block` on this mix — a
  // pure function of (hardware, base mix, block) and the database, so the
  // entry replays bit-for-bit forever. block_time is summed here in class
  // order, as the per-candidate time sums are.
  MemoEntry entry;
  const CostModel& model = model_of(key.hardware);
  const ClassCounts combined = key.mix + block;
  if (model.feasible(combined)) {
    const modeldb::Record rec = model.estimate(combined);
    for (const ProfileClass profile : workload::kAllProfileClasses) {
      const auto ci = static_cast<std::size_t>(profile);
      entry.time_per_class[ci] =
          block.of(profile) > 0 ? rec.time_of(profile) : 0.0;
      entry.block_time += block.of(profile) * entry.time_per_class[ci];
    }
    // The base energy is shape-independent: fill it once per mix and
    // replay the identical double for every later shape.
    if (!slot.base_known) {
      slot.base_energy_j = model.mix_energy_j(key.mix);
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
  if (!config_.spread.feasible_width(vms.size())) {
    // Terminal: the declared failure domains cannot absorb a request this
    // wide under the per-domain cap — no search, retry, or fallback can
    // change that (the degradation leg enforces the same constraint).
    result.outcome = AllocationOutcome{AllocationPath::kRejected,
                                       RejectReason::kSpreadInfeasible,
                                       false};
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
  // Normalization references always come from hardware class 0 so ranks
  // stay comparable across a heterogeneous fleet.
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
  // Budget truncation: the enumeration stopped at `max_partitions`, so
  // whatever is returned below is the best of the *examined* candidates,
  // not provably the best of the space (conservative: a space of exactly
  // max_partitions candidates was covered, but the enumeration cannot
  // tell).
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
    // Classify why the primary search failed before degrading: callers and
    // tests branch on the reason instead of inferring it from `complete`.
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

  // Map typed blocks back onto concrete VMs: per class, the VM
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
            Planner::MapSlot{block.time_per_class[ci], block.server_pos});
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
          Placement{class_vms[k]->id, nodes_[slots[k].server_pos].id});
    }
  }
  result.complete = true;
  result.outcome.path = AllocationPath::kIncremental;
  result.outcome.search_truncated = search_truncated;
}

}  // namespace aeva::core
