#include "testing/reference_pa.hpp"

#include <algorithm>
#include <utility>

#include "partition/typed_partition.hpp"
#include "util/error.hpp"

namespace aeva::testing {

using core::AllocationOutcome;
using core::AllocationPath;
using core::AllocationResult;
using core::CostModel;
using core::Placement;
using core::ProactiveConfig;
using core::ProactiveGoal;
using core::RejectReason;
using core::ServerState;
using core::SpreadConfig;
using core::VmRequest;
using workload::ClassCounts;
using workload::ProfileClass;

namespace {

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
/// scratch buffer.
struct EvalOutcome {
  double est_time_s = 0.0;
  double est_energy_j = 0.0;
  double combined = 0.0;
  bool qos_ok = true;
};

/// Reusable buffers of one search.
struct EvalScratch {
  std::vector<char> used;
  std::vector<PlacedBlock> blocks;
  std::vector<double> times;     ///< QoS sort buffer
  std::vector<int> domain_used;  ///< request VMs per failure domain
};

/// Read-only evaluation context of one allocate() call.
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
  /// Per-job failure-domain spread constraint; null when disabled.
  const SpreadConfig* spread = nullptr;

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
  /// ((n_d + b)² − n_d²) / n². An unmapped server is its own singleton
  /// domain.
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
  /// Returns nullopt when the combined mix is infeasible there.
  [[nodiscard]] std::optional<PlacedBlock> placed_on(const ClassCounts& block,
                                                     std::size_t s,
                                                     double& time_contrib,
                                                     bool& qos_pass) const;

  /// The per-VM rank place_block orders servers by (energy vs normalized
  /// mean block time).
  [[nodiscard]] double selection_rank(const PlacedBlock& placed,
                                      double time_contrib) const;

  /// Greedy marginal-cost server choice for one block given the servers
  /// already taken (ties → first server of the list, as in the paper) and
  /// the request's running per-domain VM tally (spread constraint; empty
  /// and ignored when `spread` is null). Returns nullopt when no unused
  /// server can host the block.
  [[nodiscard]] std::optional<PlacedBlock> place_block(
      const ClassCounts& block, const std::vector<char>& used,
      const std::vector<int>& domain_used) const;

  /// Aggregate rank and QoS feasibility of a fully placed candidate.
  [[nodiscard]] EvalOutcome finalize(const std::vector<PlacedBlock>& blocks,
                                     std::vector<double>& times) const;

  /// Evaluates one typed partition: greedy placement per block, then the
  /// aggregate rank and the QoS feasibility check. Returns nullopt when
  /// some block fits nowhere. On success `scratch.blocks` holds the placed
  /// blocks until the next call.
  [[nodiscard]] std::optional<EvalOutcome> evaluate(
      const partition::TypedPartition& blocks, EvalScratch& scratch) const;
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

std::optional<PlacedBlock> SearchContext::place_block(
    const ClassCounts& block, const std::vector<char>& used,
    const std::vector<int>& domain_used) const {
  // Prefer servers where the block's estimated times respect every
  // affected class's tightest deadline; fall back to QoS-violating
  // options only when no server passes (the candidate then fails the
  // final QoS check and can only be selected via the relaxed path).
  std::optional<std::size_t> best_server;
  bool best_qos_pass = false;
  double best_rank = 0.0;
  PlacedBlock best_placed;
  for (std::size_t s = 0; s < servers.size(); ++s) {
    if (used[s] != 0) {
      continue;
    }
    int domain = -1;
    if (spread != nullptr) {
      domain = domain_of(s);
      if (domain >= 0 &&
          domain_used[static_cast<std::size_t>(domain)] + block.total() >
              spread->max_vms_per_domain) {
        continue;  // the block would push the request past its domain cap
      }
    }
    double time_contrib = 0.0;
    bool qos_pass = true;
    const std::optional<PlacedBlock> placed =
        placed_on(block, s, time_contrib, qos_pass);
    if (!placed.has_value()) {
      continue;
    }
    const double rank =
        selection_rank(*placed, time_contrib) +
        (spread != nullptr
             ? blast_marginal(domain, block.total(), domain_used)
             : 0.0);
    const bool better =
        !best_server.has_value() ||
        (qos_pass && !best_qos_pass) ||
        (qos_pass == best_qos_pass && rank < best_rank);
    if (better) {
      best_server = s;
      best_qos_pass = qos_pass;
      best_rank = rank;
      best_placed = *placed;
    }
  }
  if (!best_server.has_value()) {
    return std::nullopt;  // no server can host this block
  }
  return best_placed;
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
    // Herfindahl concentration of types.hpp SpreadConfig). An unmapped
    // server (domain -1) counts as its own singleton domain.
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

std::optional<EvalOutcome> SearchContext::evaluate(
    const partition::TypedPartition& blocks, EvalScratch& scratch) const {
  // A partition's blocks are per-server groups by definition: two blocks
  // sharing a server would be the coarser partition with those blocks
  // merged, which the enumeration visits separately.
  scratch.used.assign(servers.size(), 0);
  scratch.blocks.clear();
  if (spread != nullptr) {
    scratch.domain_used.assign(
        static_cast<std::size_t>(spread->domain_count), 0);
  }
  for (const ClassCounts& block : blocks) {
    std::optional<PlacedBlock> placed =
        place_block(block, scratch.used, scratch.domain_used);
    if (!placed.has_value()) {
      return std::nullopt;  // no server can host this block
    }
    scratch.used[placed->server_index] = 1;
    if (spread != nullptr) {
      const int domain = domain_of(placed->server_index);
      if (domain >= 0) {
        scratch.domain_used[static_cast<std::size_t>(domain)] +=
            block.total();
      }
    }
    scratch.blocks.push_back(*placed);
  }
  return finalize(scratch.blocks, scratch.times);
}

/// Keeps `cand` in `best` when it ranks strictly better (ties keep the
/// earlier candidate in enumeration order).
void keep_better(std::optional<Candidate>& best, const Candidate& cand) {
  if (!best.has_value() || cand.combined < best->combined) {
    best = cand;
  }
}

}  // namespace

ReferenceProactiveAllocator::ReferenceProactiveAllocator(
    const modeldb::ModelDatabase& db, ProactiveConfig config)
    : ReferenceProactiveAllocator(
          std::vector<const modeldb::ModelDatabase*>{&db}, std::move(config)) {}

ReferenceProactiveAllocator::ReferenceProactiveAllocator(
    std::vector<const modeldb::ModelDatabase*> dbs, ProactiveConfig config)
    : config_(std::move(config)),
      // Also validates the config and databases as production does.
      name_(core::ProactiveAllocator(dbs, config_).name()) {
  for (const modeldb::ModelDatabase* db : dbs) {
    models_.emplace_back(*db, config_.server_vm_cap);
  }
  if (config_.degrade_to_first_fit) {
    // Testbed servers have 4 CPUs regardless of hardware class.
    fallback_.emplace(config_.fallback_multiplex,
                      std::vector<int>(models_.size(), 4));
    fallback_->set_spread(config_.spread);
  }
}

AllocationResult ReferenceProactiveAllocator::allocate(
    std::span<const VmRequest> vms,
    std::span<const ServerState> servers) const {
  AllocationResult result;
  if (vms.empty()) {
    result.complete = true;
    return result;
  }
  if (!config_.spread.feasible_width(vms.size())) {
    result.outcome = AllocationOutcome{AllocationPath::kRejected,
                                       RejectReason::kSpreadInfeasible,
                                       false};
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

  // Current allocations and their standalone energies, one per server.
  ctx.base_alloc.reserve(servers.size());
  ctx.base_energy.reserve(servers.size());
  for (std::size_t s = 0; s < servers.size(); ++s) {
    ctx.base_alloc.push_back(servers[s].allocated);
    ctx.base_energy.push_back(
        ctx.model_of(s).mix_energy_j(servers[s].allocated));
  }

  for (const VmRequest& vm : vms) {
    ctx.deadlines[static_cast<int>(vm.profile)].push_back(vm.max_exec_time_s);
  }
  for (auto& list : ctx.deadlines) {
    std::sort(list.begin(), list.end());
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

  std::optional<Candidate> best_any;
  std::optional<Candidate> best_qos;
  EvalScratch scratch;
  std::size_t examined = 0;
  static_cast<void>(partition::for_each_typed_partition(
      request, block_ok, max_blocks,
      [&](const partition::TypedPartition& blocks) {
        ++examined;
        const std::optional<EvalOutcome> out = ctx.evaluate(blocks, scratch);
        if (out.has_value()) {
          Candidate cand;
          cand.blocks = scratch.blocks;
          cand.est_time_s = out->est_time_s;
          cand.est_energy_j = out->est_energy_j;
          cand.combined = out->combined;
          cand.qos_ok = out->qos_ok;
          keep_better(best_any, cand);
          if (cand.qos_ok) {
            keep_better(best_qos, cand);
          }
        }
        return examined < config_.max_partitions;
      }));
  result.partitions_examined = examined;
  const bool search_truncated = examined >= config_.max_partitions;

  std::optional<Candidate> chosen;
  if (!config_.enforce_qos) {
    chosen = best_any;
  } else if (best_qos.has_value()) {
    chosen = best_qos;
  } else if (config_.fallback_best_effort) {
    chosen = best_any;
  }
  if (!chosen.has_value()) {
    RejectReason reason = RejectReason::kNoFeasibleServer;
    if (servers.empty()) {
      reason = RejectReason::kNoServers;
    } else if (!best_any.has_value() && examined >= config_.max_partitions) {
      reason = RejectReason::kSearchBudgetExhausted;
    } else if (best_any.has_value()) {
      reason = RejectReason::kQosInfeasible;
    }
    if (fallback_.has_value()) {
      AllocationResult fb = fallback_->allocate(vms, servers);
      if (fb.complete) {
        fb.partitions_examined = examined;
        fb.satisfied_qos = false;  // the slot-based fallback is QoS-blind
        fb.outcome = AllocationOutcome{AllocationPath::kFallbackFirstFit,
                                       reason, search_truncated};
        return fb;
      }
    }
    result.outcome = AllocationOutcome{AllocationPath::kRejected, reason,
                                       search_truncated};
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
  return result;
}

}  // namespace aeva::testing
