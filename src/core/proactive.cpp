#include "core/proactive.hpp"

#include <optional>
#include <string>
#include <utility>

#include "core/incremental.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/strings.hpp"

namespace aeva::core {

/// The search state shared by const allocate() calls: the one FleetState,
/// behind the mutex every call holds for its sync and plan. Lives behind a
/// shared_ptr so allocator copies share it and the allocator type stays
/// movable.
struct ProactiveAllocator::SearchRuntime {
  util::Mutex mutex;
  /// Built by the first call, and again by the call after one that threw
  /// (a throw can leave the fleet half-rebuilt, so it is dropped).
  std::optional<FleetState> fleet AEVA_GUARDED_BY(mutex);
  /// The view the fleet mirrors and the last of its deltas applied; 0
  /// (never minted) while the fleet follows no view.
  std::uint64_t view_id AEVA_GUARDED_BY(mutex) = 0;
  std::uint64_t sequence AEVA_GUARDED_BY(mutex) = 0;
};

ProactiveAllocator::ProactiveAllocator(const modeldb::ModelDatabase& db,
                                       ProactiveConfig config)
    : ProactiveAllocator(std::vector<const modeldb::ModelDatabase*>{&db},
                         config) {}

ProactiveAllocator::ProactiveAllocator(
    std::vector<const modeldb::ModelDatabase*> dbs, ProactiveConfig config)
    : config_(std::move(config)), runtime_(std::make_shared<SearchRuntime>()) {
  FleetState::validate(config_, dbs);
  models_.reserve(dbs.size());
  for (const modeldb::ModelDatabase* db : dbs) {
    models_.emplace_back(*db, config_.server_vm_cap);
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
    obs_.fleet_walks = &m.counter("pa.fleet.walks");
  }
}

const CostModel& ProactiveAllocator::cost_model(int hardware) const {
  AEVA_REQUIRE(hardware >= 0 &&
                   static_cast<std::size_t>(hardware) < models_.size(),
               "unknown hardware class ", hardware, " (have ",
               models_.size(), ")");
  return models_[static_cast<std::size_t>(hardware)];
}

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
  decide(vms, servers, nullptr, out);
}

void ProactiveAllocator::allocate_into(std::span<const VmRequest> vms,
                                       std::span<const ServerState> servers,
                                       const ViewDelta& delta,
                                       AllocationResult& out) const {
  decide(vms, servers, &delta, out);
}

void ProactiveAllocator::decide(std::span<const VmRequest> vms,
                                std::span<const ServerState> servers,
                                const ViewDelta* delta,
                                AllocationResult& out) const {
  SearchRuntime& rt = *runtime_;
  const util::MutexGuard lock(rt.mutex);
  if (!rt.fleet.has_value()) {
    std::vector<const modeldb::ModelDatabase*> dbs;
    dbs.reserve(models_.size());
    for (const CostModel& model : models_) {
      dbs.push_back(&model.db());
    }
    rt.fleet.emplace(dbs, config_);
  }
  FleetState& fleet = *rt.fleet;
  // An empty request completes, and one wider than the spread constraint
  // admits rejects, before any search: neither needs the fleet current,
  // but a delta that continues the fleet's view is applied all the same.
  const bool searches =
      !vms.empty() && config_.spread.feasible_width(vms.size());
  const bool continues = delta != nullptr && delta->view_id != 0 &&
                         delta->view_id == rt.view_id &&
                         delta->sequence == rt.sequence + 1;
  try {
    SyncOutcome synced = SyncOutcome::kDeltas;
    bool walked = false;
    if (continues) {
      synced = fleet.sync(servers, delta->changed_ids);
      rt.sequence = delta->sequence;
    } else if (searches) {
      synced = fleet.sync(servers);
      walked = true;
      rt.view_id = delta != nullptr ? delta->view_id : 0;
      rt.sequence = delta != nullptr ? delta->sequence : 0;
    } else if (delta == nullptr) {
      rt.view_id = 0;  // a caller without deltas: follow no view
    }
    fleet.plan_into(vms, out);
    if (out.outcome.path == AllocationPath::kIncremental) {
      out.outcome.path = AllocationPath::kPrimary;  // the allocator's own leg
    }
    if (obs_.calls == nullptr || vms.empty()) {
      return;
    }
    if (!searches) {
      obs_.calls->add();
      obs_.rejected->add();
      return;
    }
    if (walked) {
      obs_.fleet_walks->add();
    }
    if (synced == SyncOutcome::kReset) {
      obs_.fleet_resyncs->add();
    }
    flush_obs(out, fleet.last_plan_tallies());
    const FleetStats stats = fleet.stats();
    obs_.memo_hits->set(static_cast<double>(stats.memo_hits));
    obs_.memo_misses->set(static_cast<double>(stats.memo_misses));
    obs_.memo_entries->set(static_cast<double>(stats.memo_entries));
    const double lookups =
        static_cast<double>(stats.memo_hits + stats.memo_misses);
    obs_.memo_hit_rate->set(
        lookups > 0.0 ? static_cast<double>(stats.memo_hits) / lookups
                      : 0.0);
  } catch (...) {
    rt.fleet.reset();
    rt.view_id = 0;
    throw;
  }
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

std::string ProactiveAllocator::name() const {
  const std::string suffix = config_.degrade_to_first_fit ? "+FF" : "";
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
