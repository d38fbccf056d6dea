#include "core/proactive.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "core/incremental.hpp"
#include "partition/typed_partition.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/strings.hpp"

namespace aeva::core {

using workload::ClassCounts;
using workload::ProfileClass;

/// Lazily-created search state shared by const allocate() calls: the
/// incremental path's FleetState. Lives behind a shared_ptr so allocator
/// copies share it and the allocator type stays movable.
struct ProactiveAllocator::SearchRuntime {
  /// Guards the cached fleet. Callers only try-lock it: a call that finds
  /// it busy takes the batch search rather than waiting.
  util::Mutex fleet_mutex;
  std::unique_ptr<FleetState> fleet AEVA_GUARDED_BY(fleet_mutex);

  /// Runs `fn(fleet)` under the fleet lock and returns its verdict, or
  /// false at once when another call holds the lock. An exception drops
  /// the cached fleet (a throw can leave it half-rebuilt); the next call
  /// builds a fresh one.
  template <typename Fn>
  bool try_with_fleet(Fn&& fn) AEVA_EXCLUDES(fleet_mutex) {
    if (!fleet_mutex.try_lock()) {
      return false;
    }
    bool done = false;
    try {
      done = fn(fleet);
    } catch (...) {
      fleet.reset();
      fleet_mutex.unlock();
      throw;
    }
    fleet_mutex.unlock();
    return done;
  }
};

ProactiveAllocator::ProactiveAllocator(const modeldb::ModelDatabase& db,
                                       ProactiveConfig config)
    : ProactiveAllocator(std::vector<const modeldb::ModelDatabase*>{&db},
                         config) {}

ProactiveAllocator::ProactiveAllocator(
    std::vector<const modeldb::ModelDatabase*> dbs, ProactiveConfig config)
    : config_(config), runtime_(std::make_shared<SearchRuntime>()) {
  AEVA_REQUIRE(config_.alpha >= 0.0 && config_.alpha <= 1.0,
               "alpha must be in [0, 1], got ", config_.alpha);
  AEVA_REQUIRE(config_.max_partitions >= 1, "partition budget must be >= 1");
  AEVA_REQUIRE(config_.search_threads == 1,
               "search_threads must be 1: the parallel search was removed, "
               "got ", config_.search_threads);
  incremental_ = !config_.spread.enabled;
  AEVA_REQUIRE(!dbs.empty(), "need at least one model database");
  models_.reserve(dbs.size());
  for (const modeldb::ModelDatabase* db : dbs) {
    AEVA_REQUIRE(db != nullptr, "null model database");
    models_.emplace_back(*db, config.server_vm_cap);
  }
  if (config_.spread.enabled) {
    AEVA_REQUIRE(config_.spread.max_vms_per_domain >= 1,
                 "spread cap must be >= 1, got ",
                 config_.spread.max_vms_per_domain);
    AEVA_REQUIRE(config_.spread.domain_count >= 1,
                 "spread needs at least one failure domain");
  }
  if (config_.degrade_to_first_fit) {
    AEVA_REQUIRE(config_.fallback_multiplex >= 1,
                 "fallback multiplex factor must be >= 1, got ",
                 config_.fallback_multiplex);
    // Testbed servers have 4 CPUs regardless of hardware class.
    fallback_.emplace(config_.fallback_multiplex,
                      std::vector<int>(models_.size(), 4));
    // The degradation leg enforces the same spread constraint, so no path
    // out of this allocator can over-concentrate a request.
    fallback_->set_spread(config_.spread);
  }
  if (config_.obs != nullptr) {
    // Resolve every metric handle once; allocate() then guards on one
    // pointer and pays no name lookups (docs/OBSERVABILITY.md).
    obs::MetricsRegistry& m = config_.obs->metrics();
    obs_.calls = &m.counter("pa.allocate.calls");
    obs_.candidates = &m.counter("pa.search.candidates");
    obs_.evaluated = &m.counter("pa.search.evaluated");
    obs_.pruned_bound = &m.counter("pa.search.pruned_bound");
    obs_.pruned_infeasible = &m.counter("pa.search.pruned_infeasible");
    obs_.placed_primary = &m.counter("pa.alloc.primary");
    obs_.placed_fallback = &m.counter("pa.alloc.fallback");
    obs_.rejected = &m.counter("pa.alloc.rejected");
    obs_.budget_truncated = &m.counter("pa.search.budget_truncated");
    obs_.candidates_per_call = &m.histogram(
        "pa.search.candidates_per_call",
        {1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0});
    obs_.memo_hits = &m.gauge("pa.memo.hits");
    obs_.memo_misses = &m.gauge("pa.memo.misses");
    obs_.memo_hit_rate = &m.gauge("pa.memo.hit_rate");
    obs_.memo_entries = &m.gauge("pa.memo.entries");
    obs_.fleet_resyncs = &m.counter("pa.fleet.resyncs");
  }
}

const CostModel& ProactiveAllocator::cost_model(int hardware) const {
  AEVA_REQUIRE(hardware >= 0 &&
                   static_cast<std::size_t>(hardware) < models_.size(),
               "unknown hardware class ", hardware, " (have ",
               models_.size(), ")");
  return models_[static_cast<std::size_t>(hardware)];
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One placed block with its estimation context.
struct PlacedBlock {
  ClassCounts block;
  std::size_t server_index = 0;
  double time_per_class[workload::kProfileClassCount] = {0.0, 0.0, 0.0};
  double marginal_energy_j = 0.0;
};

/// A fully evaluated candidate partition.
struct Candidate {
  std::vector<PlacedBlock> blocks;
  double est_time_s = 0.0;
  double est_energy_j = 0.0;
  double combined = 0.0;
  bool qos_ok = true;
};

/// Scalar outcome of one evaluation; the placement detail stays in the
/// scratch buffer and is copied out only when the candidate improves on
/// the incumbent — most candidates never allocate.
struct EvalOutcome {
  double est_time_s = 0.0;
  double est_energy_j = 0.0;
  double combined = 0.0;
  bool qos_ok = true;
};

/// Candidate-outcome tallies — the struct FleetState reports too — flushed
/// into the observability registry after the search (stack counters on
/// the hot path; the flush is guarded, so a disabled session costs nothing
/// beyond the increments). Tallying never feeds back into the search —
/// results are unchanged.
using SearchTallies = PlanTallies;

/// Read-only evaluation context of one batch search call.
struct SearchContext {
  const ProactiveConfig& config;
  const std::vector<CostModel>& models;
  std::span<const ServerState> servers;
  std::vector<ClassCounts> base_alloc;
  std::vector<double> base_energy;
  /// Deadlines per class, tightest first, used by the QoS check.
  std::vector<double> deadlines[workload::kProfileClassCount];
  double n_vms = 0.0;
  double time_ref = 0.0;
  double energy_ref = 0.0;
  /// Branch-and-bound is armed only when the per-block partial sum is a
  /// sound lower bound of the final rank (docs/PERFORMANCE.md): the
  /// α-weighted goal's rank is a sum of per-block terms whose time part is
  /// always ≥ 0 and whose energy part is ≥ 0 exactly when every database
  /// is energy-monotone. The EDP goal is a product of totals — not
  /// separable — so it never prunes.
  bool prune_enabled = false;
  /// Per-job failure-domain spread constraint; null when disabled, so the
  /// hot paths guard on one pointer and the spread-free search stays
  /// bit-identical to the pre-spread model (docs/RESILIENCE.md).
  const SpreadConfig* spread = nullptr;
  /// Servers grouped by identical (hardware, base allocation, domain)
  /// state (domain joins the key only when spread is armed) —
  /// members of a group yield bitwise-identical placed_on results for any
  /// block, so the search estimates once per group and resolves the
  /// winner to its first unused member (the same tie a plain index-order
  /// scan keeps). Member lists are ascending.
  std::vector<std::vector<std::size_t>> groups;
  /// Per group, the first group with the same (hardware, base allocation).
  /// Groups that differ only in failure domain share every placed_on
  /// result, so each such mix is estimated once (with spread off every
  /// group is its own representative).
  std::vector<std::size_t> mix_rep;

  SearchContext(const ProactiveConfig& config_in,
                const std::vector<CostModel>& models_in,
                std::span<const ServerState> servers_in)
      : config(config_in), models(models_in), servers(servers_in) {}

  /// Failure domain of a server slot (only called with `spread` armed);
  /// -1 = unmapped, treated as unconstrained.
  [[nodiscard]] int domain_of(std::size_t server) const {
    return spread->domain_of(servers[server].id);
  }

  /// Marginal blast penalty of landing a `block_total`-VM block in
  /// `domain` given the request's VMs already there: blast_penalty ×
  /// ((n_d + b)² − n_d²) / n². The marginals telescope to the finalize()
  /// Herfindahl term, so steering the greedy server choice by them keeps
  /// the per-server ordering consistent with the candidate score. Only
  /// called with `spread` armed; an unmapped server is its own singleton
  /// domain (n_d = 0 — a server hosts at most one block per candidate).
  [[nodiscard]] double blast_marginal(
      int domain, int block_total,
      const std::vector<int>& domain_used) const {
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

  [[nodiscard]] const CostModel& model_of(std::size_t server) const {
    const int hardware = servers[server].hardware;
    AEVA_REQUIRE(hardware >= 0 &&
                     static_cast<std::size_t>(hardware) < models.size(),
                 "unknown hardware class ", hardware, " (have ",
                 models.size(), ")");
    return models[static_cast<std::size_t>(hardware)];
  }

  /// Estimation of `block` landing on server `s`: the per-class times, the
  /// marginal energy, the block's summed time and its per-VM QoS pass.
  /// Returns nullopt when the combined mix is infeasible there. Both the
  /// greedy placement and the branch-and-bound block minima build
  /// PlacedBlocks through this one helper, so their doubles are bitwise
  /// comparable.
  [[nodiscard]] std::optional<PlacedBlock> placed_on(const ClassCounts& block,
                                                     std::size_t s,
                                                     double& time_contrib,
                                                     bool& qos_pass) const;

  /// The per-VM rank the greedy placement orders servers by (energy vs
  /// normalized mean block time).
  [[nodiscard]] double selection_rank(const PlacedBlock& placed,
                                      double time_contrib) const;

  /// The chosen block's exact contribution to the final α-rank (the rank
  /// is the sum of these over all blocks, so partial sums are lower bounds
  /// whenever every term is ≥ 0).
  [[nodiscard]] double rank_contribution(const PlacedBlock& placed) const;

  /// Aggregate rank and QoS feasibility of a fully placed candidate.
  [[nodiscard]] EvalOutcome finalize(const std::vector<PlacedBlock>& blocks,
                                     std::vector<double>& times) const;
};

std::optional<PlacedBlock> SearchContext::placed_on(const ClassCounts& block,
                                                    std::size_t s,
                                                    double& time_contrib,
                                                    bool& qos_pass) const {
  const CostModel& model = model_of(s);
  const ClassCounts combined = base_alloc[s] + block;
  if (!model.feasible(combined)) {
    return std::nullopt;
  }
  const modeldb::Record rec = model.estimate(combined);
  time_contrib = 0.0;
  qos_pass = true;
  PlacedBlock placed;
  placed.block = block;
  placed.server_index = s;
  for (const ProfileClass profile : workload::kAllProfileClasses) {
    const auto ci = static_cast<std::size_t>(profile);
    AEVA_INVARIANT(ci < workload::kProfileClassCount,
                   "profile class out of range");
    const double t = block.of(profile) > 0 ? rec.time_of(profile) : 0.0;
    placed.time_per_class[ci] = t;
    time_contrib += block.of(profile) * t;
    if (block.of(profile) > 0 && !deadlines[ci].empty() &&
        t > deadlines[ci].front()) {
      qos_pass = false;
    }
  }
  // Marginal energy over the server's existing commitment. Record
  // energies include the 125 W powered-on baseline, so placing on an
  // empty (off) server pays its full wake-up cost while co-locating
  // on a busy server pays only the increment — the consolidation
  // incentive of the energy goal.
  placed.marginal_energy_j = rec.energy_j - base_energy[s];
  return placed;
}

double SearchContext::selection_rank(const PlacedBlock& placed,
                                     double time_contrib) const {
  const double energy_norm =
      placed.marginal_energy_j / (n_vms * energy_ref);
  const double time_norm =
      time_contrib / placed.block.total() / time_ref;
  return config.goal == ProactiveGoal::kEnergyDelayProduct
             ? std::max(energy_norm, 0.0) * time_norm
             : config.alpha * energy_norm + (1.0 - config.alpha) * time_norm;
}

double SearchContext::rank_contribution(const PlacedBlock& placed) const {
  double block_time = 0.0;
  for (const ProfileClass profile : workload::kAllProfileClasses) {
    block_time += placed.block.of(profile) *
                  placed.time_per_class[static_cast<int>(profile)];
  }
  return config.alpha * placed.marginal_energy_j / (n_vms * energy_ref) +
         (1.0 - config.alpha) * block_time / (n_vms * time_ref);
}

EvalOutcome SearchContext::finalize(const std::vector<PlacedBlock>& blocks,
                                    std::vector<double>& times) const {
  EvalOutcome out;
  double time_sum = 0.0;
  double energy_sum = 0.0;
  for (const PlacedBlock& placed : blocks) {
    for (const ProfileClass profile : workload::kAllProfileClasses) {
      time_sum += placed.block.of(profile) *
                  placed.time_per_class[static_cast<int>(profile)];
    }
    energy_sum += placed.marginal_energy_j;
  }
  out.est_time_s = time_sum / n_vms;
  out.est_energy_j = energy_sum;
  const double total_energy_norm = energy_sum / (n_vms * energy_ref);
  const double total_time_norm = out.est_time_s / time_ref;
  out.combined =
      config.goal == ProactiveGoal::kEnergyDelayProduct
          ? std::max(total_energy_norm, 0.0) * total_time_norm
          : config.alpha * total_energy_norm +
                (1.0 - config.alpha) * total_time_norm;

  if (spread != nullptr && spread->blast_penalty > 0.0) {
    // Expected blast-radius fraction Σ_d (n_d / n)² of the candidate (the
    // Herfindahl concentration of types.hpp SpreadConfig): a first-
    // occurrence O(b²) scan over the placed blocks — no allocation, and
    // the penalty is ≥ 0, so the branch-and-bound partial sums stay lower
    // bounds of the final rank. An unmapped server (domain -1) counts as
    // its own singleton domain.
    double herfindahl = 0.0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const int di = domain_of(blocks[i].server_index);
      bool counted_earlier = false;
      double in_domain = 0.0;
      for (std::size_t j = 0; j < blocks.size(); ++j) {
        const bool same_domain =
            di >= 0 ? domain_of(blocks[j].server_index) == di : i == j;
        if (!same_domain) {
          continue;
        }
        if (j < i) {
          counted_earlier = true;
          break;
        }
        in_domain += blocks[j].block.total();
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
    for (const PlacedBlock& placed : blocks) {
      for (int k = 0; k < placed.block.of(profile); ++k) {
        times.push_back(placed.time_per_class[ci]);
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

/// Prefix-incremental evaluation of the batch search. The enumeration
/// emits candidates in canonical lex order, so consecutive candidates
/// share long block prefixes — and a block's greedy placement is a pure
/// function of the blocks before it. The evaluator keeps the previous
/// candidate's placement stack and re-places only the suffix that
/// differs, which skips most per-candidate server scans. Server scans
/// themselves collapse onto the context's equivalence groups: placed_on
/// depends only on a server's (hardware, base allocation), so each (block
/// shape, group) pair is estimated once per allocate() call and replayed
/// from a memo afterwards. Values are bit-identical to the plain
/// per-server scorer (tests/testing/reference_pa.hpp): reused prefixes
/// and memoized group entries carry the exact PlacedBlock and rank doubles
/// it would recompute.
class IncrementalEvaluator {
 public:
  explicit IncrementalEvaluator(const SearchContext& ctx)
      : ctx_(ctx), used_(ctx.servers.size(), 0),
        domain_used_(ctx.spread != nullptr
                         ? static_cast<std::size_t>(ctx.spread->domain_count)
                         : 0,
                     0) {}

  /// Evaluates one typed partition: greedy placement per block, then the
  /// aggregate rank and the QoS feasibility check. Returns nullopt when
  /// some block fits nowhere, or — with pruning armed — as soon as a lower
  /// bound on the final rank exceeds `prune_above` (only candidates
  /// strictly worse than an already-complete one are ever abandoned, so
  /// the search result is unchanged). The per-block partial bounds are
  /// exact rank contributions; the threshold is re-checked against the
  /// current `prune_above` even on reused prefixes (it only tightens over
  /// a search, so a previously pruned prefix stays pruned); and the
  /// memoized per-shape block minima sharpen the bound with the cheapest
  /// possible cost of the blocks not yet placed — often rejecting a
  /// candidate before any server scan.
  [[nodiscard]] std::optional<EvalOutcome> evaluate(
      const partition::TypedPartition& blocks, double prune_above) {
    // Longest reusable prefix: blocks equal to the previous candidate's,
    // and actually placed last time (an abandoned evaluation keeps only
    // the blocks up to the abandonment point).
    std::size_t keep = 0;
    const std::size_t max_keep = std::min(placed_.size(), blocks.size());
    while (keep < max_keep && blocks[keep] == prefix_[keep]) {
      ++keep;
    }
    for (std::size_t i = placed_.size(); i > keep; --i) {
      used_[placed_[i - 1].server_index] = 0;
      if (ctx_.spread != nullptr) {
        const int domain = ctx_.domain_of(placed_[i - 1].server_index);
        if (domain >= 0) {
          domain_used_[static_cast<std::size_t>(domain)] -=
              placed_[i - 1].block.total();
        }
      }
    }
    placed_.resize(keep);
    bound_after_.resize(keep);
    prefix_.assign(blocks.begin(), blocks.end());

    double remaining_min = 0.0;
    if (ctx_.prune_enabled) {
      // Every unplaced block will cost at least its cheapest-anywhere
      // contribution (min over ALL servers, so removing used ones can
      // only increase the actual). A block with no feasible server at all
      // sinks the candidate outright — no placement could ever host it.
      for (std::size_t i = keep; i < blocks.size(); ++i) {
        const double block_min = min_contribution(blocks[i]);
        if (block_min == kInf) {
          ++tallies_.pruned_infeasible;
          return std::nullopt;  // infeasible on every server, even unused
        }
        remaining_min += block_min;
      }
      const double prefix_bound = keep > 0 ? bound_after_[keep - 1] : 0.0;
      if (prefix_bound + remaining_min > prune_above) {
        // The partial bounds are monotone (every term ≥ 0 when pruning is
        // armed): the candidate cannot beat the best complete one.
        ++tallies_.pruned_bound;
        return std::nullopt;
      }
    }
    for (std::size_t i = keep; i < blocks.size(); ++i) {
      if (ctx_.prune_enabled) {
        remaining_min -= min_contribution(blocks[i]);  // memoized, exact
      }
      std::optional<PlacedBlock> placed = place_grouped(blocks[i]);
      if (!placed.has_value()) {
        ++tallies_.pruned_infeasible;
        return std::nullopt;  // no unused server can host this block
      }
      used_[placed->server_index] = 1;
      if (ctx_.spread != nullptr) {
        const int domain = ctx_.domain_of(placed->server_index);
        if (domain >= 0) {
          domain_used_[static_cast<std::size_t>(domain)] +=
              placed->block.total();
        }
      }
      placed_.push_back(*placed);
      const double bound =
          (placed_.size() > 1 ? bound_after_.back() : 0.0) +
          ctx_.rank_contribution(placed_.back());
      bound_after_.push_back(bound);
      if (ctx_.prune_enabled && bound + remaining_min > prune_above) {
        ++tallies_.pruned_bound;
        return std::nullopt;  // cannot beat the best complete candidate
      }
    }
    ++tallies_.evaluated;
    return ctx_.finalize(placed_, times_);
  }

  /// The placement behind the last successful evaluate().
  [[nodiscard]] const std::vector<PlacedBlock>& blocks() const {
    return placed_;
  }

  /// Candidate-outcome tallies accumulated over this evaluator's life.
  [[nodiscard]] const SearchTallies& tallies() const noexcept {
    return tallies_;
  }

 private:
  /// One server-equivalence group's evaluation of a block shape. Every
  /// member of the group would produce exactly this PlacedBlock (modulo
  /// server_index) and these ranks, so the entry is computed once from the
  /// group's first member and replayed for the whole allocate() call.
  struct GroupEval {
    std::optional<PlacedBlock> placed;  ///< nullopt: infeasible for group
    bool qos_pass = true;
    double sel_rank = 0.0;      ///< greedy server-ordering rank
    double contribution = 0.0;  ///< rank_contribution (bound arithmetic)
  };

  /// Per-group evaluations of `block`, memoized by shape.
  [[nodiscard]] const std::vector<GroupEval>& shape_evals(
      const ClassCounts& block) {
    const std::uint64_t key = static_cast<std::uint64_t>(block.cpu) << 42 |
                              static_cast<std::uint64_t>(block.mem) << 21 |
                              static_cast<std::uint64_t>(block.io);
    const auto [it, inserted] = shape_evals_.try_emplace(key);
    if (!inserted) {
      return it->second;
    }
    std::vector<GroupEval>& evals = it->second;
    evals.reserve(ctx_.groups.size());
    for (std::size_t g = 0; g < ctx_.groups.size(); ++g) {
      if (ctx_.mix_rep[g] != g) {
        // Same hardware and mix as an earlier group: the same doubles
        // (place_grouped overwrites server_index with the chosen member).
        evals.push_back(evals[ctx_.mix_rep[g]]);
        continue;
      }
      const std::vector<std::size_t>& members = ctx_.groups[g];
      GroupEval eval;
      double time_contrib = 0.0;
      bool qos_pass = true;
      eval.placed =
          ctx_.placed_on(block, members.front(), time_contrib, qos_pass);
      if (eval.placed.has_value()) {
        eval.qos_pass = qos_pass;
        eval.sel_rank = ctx_.selection_rank(*eval.placed, time_contrib);
        eval.contribution = ctx_.rank_contribution(*eval.placed);
      }
      evals.push_back(std::move(eval));
    }
    return it->second;
  }

  /// Greedy marginal-cost server choice for one block given the servers
  /// already taken and the request's running per-domain VM tally, resolved
  /// over groups: the winning (qos desc, rank asc) entry — ties broken by
  /// the smallest unused member index across groups, which is exactly the
  /// server a plain index-order scan would keep (ties → first server of
  /// the list, as in the paper). Servers whose estimates respect every
  /// affected class's tightest deadline are preferred; QoS-violating
  /// options win only when no server passes (the candidate then fails the
  /// final QoS check and can only be selected via the relaxed path).
  [[nodiscard]] std::optional<PlacedBlock> place_grouped(
      const ClassCounts& block) {
    const std::vector<GroupEval>& evals = shape_evals(block);
    const GroupEval* best = nullptr;
    double best_rank = 0.0;
    std::size_t best_index = 0;
    for (std::size_t g = 0; g < evals.size(); ++g) {
      const GroupEval& eval = evals[g];
      if (!eval.placed.has_value()) {
        continue;
      }
      int domain = -1;
      if (ctx_.spread != nullptr) {
        // The group key includes the failure domain, so one check masks
        // every member — exactly the servers a per-server scan would skip.
        domain = ctx_.domain_of(ctx_.groups[g].front());
        if (domain >= 0 &&
            domain_used_[static_cast<std::size_t>(domain)] + block.total() >
                ctx_.spread->max_vms_per_domain) {
          continue;
        }
      }
      std::size_t index = ctx_.servers.size();
      for (const std::size_t s : ctx_.groups[g]) {
        if (used_[s] == 0) {
          index = s;
          break;
        }
      }
      if (index == ctx_.servers.size()) {
        continue;  // every member already hosts a block
      }
      // The memoized sel_rank is domain-usage-free; the blast marginal
      // depends on the running per-domain tally, so it is added here —
      // the same sum a per-server scan computes, bit for bit.
      const double rank =
          eval.sel_rank +
          (ctx_.spread != nullptr
               ? ctx_.blast_marginal(domain, block.total(), domain_used_)
               : 0.0);
      const bool better =
          best == nullptr || (eval.qos_pass && !best->qos_pass) ||
          (eval.qos_pass == best->qos_pass &&
           (rank < best_rank || (rank == best_rank && index < best_index)));
      if (better) {
        best = &eval;
        best_rank = rank;
        best_index = index;
      }
    }
    if (best == nullptr) {
      return std::nullopt;
    }
    PlacedBlock placed = *best->placed;
    placed.server_index = best_index;
    return placed;
  }

  /// Cheapest contribution of `block` over all servers (ignoring `used`),
  /// read off the memoized group entries; kInf when no server can host it
  /// at all. Built from the same placed_on doubles as real placements, so
  /// the minimum is bitwise ≤ any contribution place_grouped can produce.
  [[nodiscard]] double min_contribution(const ClassCounts& block) {
    double best = kInf;
    for (const GroupEval& eval : shape_evals(block)) {
      if (eval.placed.has_value()) {
        best = std::min(best, eval.contribution);
      }
    }
    return best;
  }

  const SearchContext& ctx_;
  std::vector<ClassCounts> prefix_;
  std::vector<PlacedBlock> placed_;
  std::vector<double> bound_after_;
  std::vector<char> used_;
  std::vector<int> domain_used_;  ///< request VMs per failure domain
  std::vector<double> times_;
  std::unordered_map<std::uint64_t, std::vector<GroupEval>> shape_evals_;
  SearchTallies tallies_;
};

/// Running optima of a search: strictly smaller rank wins, so equal ranks
/// keep the earlier candidate in canonical enumeration order.
struct SearchBest {
  std::optional<Candidate> any;
  std::optional<Candidate> qos;

  void consider(const EvalOutcome& out,
                const std::vector<PlacedBlock>& blocks) {
    const bool better_any = !any.has_value() || out.combined < any->combined;
    const bool better_qos =
        out.qos_ok && (!qos.has_value() || out.combined < qos->combined);
    if (!better_any && !better_qos) {
      return;  // the common case: no Candidate is ever materialized
    }
    Candidate cand;
    cand.blocks = blocks;
    cand.est_time_s = out.est_time_s;
    cand.est_energy_j = out.est_energy_j;
    cand.combined = out.combined;
    cand.qos_ok = out.qos_ok;
    if (better_any) {
      any = cand;
    }
    if (better_qos) {
      qos = std::move(cand);
    }
  }
};

}  // namespace

AllocationResult ProactiveAllocator::allocate(
    std::span<const VmRequest> vms,
    std::span<const ServerState> servers) const {
  AllocationResult result;
  allocate_into(vms, servers, result);
  return result;
}

void ProactiveAllocator::allocate_into(std::span<const VmRequest> vms,
                                       std::span<const ServerState> servers,
                                       AllocationResult& out) const {
  if (incremental_ && !vms.empty() && plan_incremental(vms, servers, out)) {
    return;
  }
  out = search(vms, servers);
}

bool ProactiveAllocator::plan_incremental(
    std::span<const VmRequest> vms, std::span<const ServerState> servers,
    AllocationResult& out) const {
  return runtime_->try_with_fleet([&](std::unique_ptr<FleetState>& fleet) {
    if (fleet == nullptr) {
      std::vector<const modeldb::ModelDatabase*> dbs;
      dbs.reserve(models_.size());
      for (const CostModel& model : models_) {
        dbs.push_back(&model.db());
      }
      fleet = std::make_unique<FleetState>(std::move(dbs), config_);
    }
    const SyncOutcome synced = fleet->sync(servers);
    if (synced == SyncOutcome::kUnordered) {
      return false;
    }
    fleet->plan_into(vms, out);
    if (out.outcome.path == AllocationPath::kIncremental) {
      out.outcome.path = AllocationPath::kPrimary;  // same search, same bits
    }
    if (obs_.calls != nullptr) {
      if (synced == SyncOutcome::kReset) {
        obs_.fleet_resyncs->add();
      }
      flush_obs(out, fleet->last_plan_tallies());
      // The `pa.memo.*` gauges report the FleetState score memo; the batch
      // search keeps no memo across calls and leaves them alone.
      const FleetStats stats = fleet->stats();
      obs_.memo_hits->set(static_cast<double>(stats.memo_hits));
      obs_.memo_misses->set(static_cast<double>(stats.memo_misses));
      obs_.memo_entries->set(static_cast<double>(stats.memo_entries));
      const double lookups =
          static_cast<double>(stats.memo_hits + stats.memo_misses);
      obs_.memo_hit_rate->set(
          lookups > 0.0 ? static_cast<double>(stats.memo_hits) / lookups
                        : 0.0);
    }
    return true;
  });
}

void ProactiveAllocator::flush_obs(const AllocationResult& result,
                                   const PlanTallies& tally) const {
  const std::size_t examined = result.partitions_examined;
  obs_.calls->add();
  obs_.candidates->add(examined);
  obs_.evaluated->add(tally.evaluated);
  obs_.pruned_bound->add(tally.pruned_bound);
  obs_.pruned_infeasible->add(tally.pruned_infeasible);
  obs_.candidates_per_call->record(static_cast<double>(examined));
  if (result.outcome.search_truncated) {
    obs_.budget_truncated->add();
  }
  switch (result.outcome.path) {
    case AllocationPath::kPrimary:
    case AllocationPath::kIncremental:
      obs_.placed_primary->add();
      break;
    case AllocationPath::kFallbackFirstFit:
      obs_.placed_fallback->add();
      break;
    case AllocationPath::kRejected:
      obs_.rejected->add();
      break;
  }
}

AllocationResult ProactiveAllocator::search(
    std::span<const VmRequest> vms,
    std::span<const ServerState> servers) const {
  AllocationResult result;
  if (vms.empty()) {
    result.complete = true;
    return result;
  }
  if (!config_.spread.feasible_width(vms.size())) {
    // Terminal: the declared failure domains cannot absorb a request this
    // wide under the per-domain cap — no search, retry, or fallback can
    // change that (the degradation leg enforces the same constraint).
    result.outcome = AllocationOutcome{AllocationPath::kRejected,
                                       RejectReason::kSpreadInfeasible,
                                       false};
    if (obs_.calls != nullptr) {
      obs_.calls->add();
      obs_.rejected->add();
    }
    return result;
  }

  ClassCounts request;
  for (const VmRequest& vm : vms) {
    ++request.of(vm.profile);
  }

  SearchContext ctx(config_, models_, servers);
  if (config_.spread.enabled) {
    ctx.spread = &config_.spread;
  }
  ctx.n_vms = static_cast<double>(vms.size());
  // Normalization references always come from hardware class 0 so ranks
  // stay comparable across a heterogeneous fleet.
  ctx.time_ref = models_.front().time_reference_s(request);
  ctx.energy_ref = models_.front().energy_reference_j(request);

  for (const VmRequest& vm : vms) {
    ctx.deadlines[static_cast<int>(vm.profile)].push_back(vm.max_exec_time_s);
  }
  for (auto& list : ctx.deadlines) {
    std::sort(list.begin(), list.end());
  }

  // Server-equivalence groups: placed_on reads only a server's hardware
  // class and base allocation, so servers that agree on both are
  // interchangeable up to the index tie-break. The standalone energy of a
  // mix (the marginal energy of the first block landing on a busy server
  // needs it) is one model estimate shared by every group holding it.
  ctx.base_alloc.reserve(servers.size());
  ctx.base_energy.reserve(servers.size());
  std::vector<double> group_energy;
  std::map<std::tuple<int, int, int, int, int>, std::size_t> group_ids;
  std::map<std::tuple<int, int, int, int>, std::size_t> mix_ids;
  for (std::size_t s = 0; s < servers.size(); ++s) {
    const ClassCounts& alloc = servers[s].allocated;
    // The spread quota masks whole domains mid-evaluation, so members of
    // a group must share one (unmapped servers are all unconstrained and
    // keep sharing the -1 key). With spread off the key degenerates to
    // the original 4-tuple grouping.
    const int domain =
        ctx.spread != nullptr ? ctx.spread->domain_of(servers[s].id) : -1;
    const auto key = std::make_tuple(servers[s].hardware, alloc.cpu,
                                     alloc.mem, alloc.io, domain);
    const auto [it, inserted] = group_ids.try_emplace(key, ctx.groups.size());
    if (inserted) {
      const auto [mix, new_mix] = mix_ids.try_emplace(
          std::make_tuple(servers[s].hardware, alloc.cpu, alloc.mem,
                          alloc.io),
          ctx.groups.size());
      ctx.groups.emplace_back();
      ctx.mix_rep.push_back(mix->second);
      group_energy.push_back(
          new_mix ? cost_model(servers[s].hardware).mix_energy_j(alloc)
                  : group_energy[mix->second]);
    }
    ctx.groups[it->second].push_back(s);
    ctx.base_alloc.push_back(alloc);
    ctx.base_energy.push_back(group_energy[it->second]);
  }

  if (config_.goal == ProactiveGoal::kAlphaWeighted) {
    bool energy_bounded = true;
    for (const CostModel& model : models_) {
      energy_bounded = energy_bounded && model.db().energy_monotone();
    }
    // α = 0 needs no energy bound: the rank is pure (non-negative) time.
    ctx.prune_enabled = config_.alpha == 0.0 || energy_bounded;
  }

  // A block is worth enumerating if some hardware class can host it.
  const auto block_ok = [&](const ClassCounts& block) {
    for (const CostModel& model : models_) {
      if (model.feasible(block)) {
        return true;
      }
    }
    return false;
  };
  const std::size_t max_blocks = std::max<std::size_t>(servers.size(), 1);

  // Candidates stream straight out of the enumeration (no
  // materialization); the pruning threshold tracks the running optimum.
  SearchBest best;
  IncrementalEvaluator inc(ctx);
  std::size_t examined = 0;
  const std::size_t visited = partition::for_each_typed_partition(
      request, block_ok, max_blocks,
      [&](const partition::TypedPartition& blocks) {
        ++examined;
        double prune_above = kInf;
        if (ctx.prune_enabled) {
          const std::optional<Candidate>& incumbent =
              config_.enforce_qos ? best.qos : best.any;
          prune_above = incumbent.has_value() ? incumbent->combined : kInf;
        }
        const std::optional<EvalOutcome> out =
            inc.evaluate(blocks, prune_above);
        if (out.has_value()) {
          best.consider(*out, inc.blocks());
        }
        return examined < config_.max_partitions;
      });
  AEVA_INVARIANT(visited == examined, "partition enumeration visited ",
                 visited, " but the scorer saw ", examined);
  const SearchTallies& tally = inc.tallies();
  result.partitions_examined = examined;

  // Budget truncation: the enumeration stopped at `max_partitions`, so
  // whatever is returned below is the best of the *examined* candidates,
  // not provably the best of the space. Recorded on the outcome of every
  // exit path (conservative: when the space holds exactly max_partitions
  // candidates the search did cover it, but the enumeration cannot tell).
  const bool search_truncated = examined >= config_.max_partitions;

  // Metrics flush (no-op when observability is off). Called once on every
  // exit path below with the result it returns; reads the search state but
  // never influences the decision.
  const auto obs_flush = [&](const AllocationResult& out) {
    if (obs_.calls != nullptr) {
      flush_obs(out, tally);
    }
  };

  std::optional<Candidate>& best_any = best.any;
  std::optional<Candidate>& best_qos = best.qos;
  std::optional<Candidate> chosen;
  if (!config_.enforce_qos) {
    chosen = std::move(best_any);
  } else if (best_qos.has_value()) {
    chosen = std::move(best_qos);
  } else if (config_.fallback_best_effort) {
    chosen = std::move(best_any);
  }
  if (!chosen.has_value()) {
    // Classify why the primary search failed before degrading: callers and
    // tests branch on the reason instead of inferring it from `complete`.
    RejectReason reason = RejectReason::kNoFeasibleServer;
    if (servers.empty()) {
      reason = RejectReason::kNoServers;  // all masked or failed
    } else if (!best.any.has_value() &&
               examined >= config_.max_partitions) {
      reason = RejectReason::kSearchBudgetExhausted;
    } else if (best.any.has_value()) {
      reason = RejectReason::kQosInfeasible;
    }
    if (fallback_.has_value()) {
      AllocationResult fb = fallback_->allocate(vms, servers);
      if (fb.complete) {
        fb.partitions_examined = examined;
        fb.satisfied_qos = false;  // the slot-based fallback is QoS-blind
        fb.outcome = AllocationOutcome{AllocationPath::kFallbackFirstFit,
                                       reason, search_truncated};
        obs_flush(fb);
        return fb;
      }
    }
    // Nothing could place the request: it stays queued, with the reason on
    // record.
    result.outcome = AllocationOutcome{AllocationPath::kRejected, reason,
                                       search_truncated};
    obs_flush(result);
    return result;
  }
  result.satisfied_qos = chosen->qos_ok;
  result.score.est_time_s = chosen->est_time_s;
  result.score.est_energy_j = chosen->est_energy_j;
  result.score.combined = chosen->combined;

  // Map typed blocks back onto concrete VMs: per class, the VM with the
  // tightest deadline goes to the block slot with the smallest estimated
  // time (the matching the QoS check assumed).
  for (const ProfileClass profile : workload::kAllProfileClasses) {
    const int ci = static_cast<int>(profile);
    std::vector<const VmRequest*> class_vms;
    for (const VmRequest& vm : vms) {
      if (vm.profile == profile) {
        class_vms.push_back(&vm);
      }
    }
    if (class_vms.empty()) {
      continue;
    }
    std::stable_sort(class_vms.begin(), class_vms.end(),
                     [](const VmRequest* a, const VmRequest* b) {
                       return a->max_exec_time_s < b->max_exec_time_s;
                     });
    struct Slot {
      double time = 0.0;
      std::size_t server_index = 0;
    };
    std::vector<Slot> slots;
    for (const PlacedBlock& placed : chosen->blocks) {
      for (int k = 0; k < placed.block.of(profile); ++k) {
        slots.push_back(Slot{placed.time_per_class[ci], placed.server_index});
      }
    }
    AEVA_INVARIANT(slots.size() == class_vms.size(),
                "block slots do not cover the request for class ",
                workload::to_string(profile));
    std::stable_sort(slots.begin(), slots.end(),
                     [](const Slot& a, const Slot& b) {
                       return a.time < b.time;
                     });
    for (std::size_t k = 0; k < class_vms.size(); ++k) {
      result.placements.push_back(
          Placement{class_vms[k]->id, servers[slots[k].server_index].id});
    }
  }
  result.complete = true;
  result.outcome.search_truncated = search_truncated;
  obs_flush(result);
  return result;
}

std::string ProactiveAllocator::name() const {
  const std::string suffix = fallback_.has_value() ? "+FF" : "";
  if (config_.goal == ProactiveGoal::kEnergyDelayProduct) {
    return "PA-EDP" + suffix;
  }
  const double alpha = config_.alpha;
  if (alpha == 0.0) return "PA-0" + suffix;
  if (alpha == 1.0) return "PA-1" + suffix;
  std::string text = util::format_fixed(alpha, 2);
  while (!text.empty() && text.back() == '0') {
    text.pop_back();
  }
  if (!text.empty() && text.back() == '.') {
    text.pop_back();
  }
  return "PA-" + text + suffix;
}

}  // namespace aeva::core
