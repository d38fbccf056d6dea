#include "datacenter/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "datacenter/fcfs_queue.hpp"
#include "datacenter/topology.hpp"
#include "persist/snapshot.hpp"
#include "util/arena.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "workload/registry.hpp"

namespace aeva::datacenter {

using core::Placement;
using core::ServerState;
using core::VmRequest;
using workload::ClassCounts;
using workload::ProfileClass;

Simulator::Simulator(const modeldb::ModelDatabase& db, CloudConfig cloud)
    : Simulator(std::vector<const modeldb::ModelDatabase*>{&db},
                std::move(cloud)) {}
// Construction is cold; all per-run state lives inside run().
Simulator::Simulator(std::vector<const modeldb::ModelDatabase*> dbs,
                     CloudConfig cloud)
    : dbs_(std::move(dbs)), cloud_(std::move(cloud)) {
  AEVA_REQUIRE(cloud_.server_count >= 1, "cloud needs at least one server");
  AEVA_REQUIRE(cloud_.idle_power_w >= 0.0, "negative idle power");
  AEVA_REQUIRE(!dbs_.empty(), "need at least one model database");
  for (const modeldb::ModelDatabase* db : dbs_) {
    AEVA_REQUIRE(db != nullptr, "null model database");
  }
  if (!cloud_.hardware.empty()) {
    AEVA_REQUIRE(cloud_.hardware.size() ==
                     static_cast<std::size_t>(cloud_.server_count),
                 "hardware map size ", cloud_.hardware.size(),
                 " does not match server count ", cloud_.server_count);
    for (const int h : cloud_.hardware) {
      AEVA_REQUIRE(h >= 0 && static_cast<std::size_t>(h) < dbs_.size(),
                   "hardware class ", h, " has no model database");
    }
  }
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;

/// One resident VM.
struct RunningVm {
  std::int64_t vm_id = 0;
  std::size_t job_index = 0;
  ProfileClass profile{};
  double runtime_scale = 1.0;
  int server = 0;
  double start_s = 0.0;    ///< allocation instant
  double remaining = 1.0;  ///< normalized work left
  double rate = 0.0;       ///< progress per second under the current mix
  bool migrating = false;
  double migration_done_s = 0.0;  ///< transfer completion time while in flight
  int dest_server = -1;           ///< reserved destination while in flight
  // Resilience bookkeeping (inert while failures are disabled).
  int retries = 0;           ///< times this VM has been lost and re-queued
  double ckpt_done = 0.0;    ///< progress at the last checkpoint boundary
  double next_ckpt_s = std::numeric_limits<double>::infinity();
};

/// Per-server runtime state, struct-of-arrays (docs/ARCHITECTURE.md
/// "Event-loop hot path"). Each field lives in its own dense array, so a
/// scan touches exactly the bytes it needs. Per-event work follows the
/// busy and the changed servers, not the fleet:
/// - a **hosting bitmap** (one bit per server, set while it hosts a VM)
///   lets the interval accrual visit only hosting servers, in ascending id
///   order — the order, and so the floating-point sums, of a full scan;
/// - the allocator's core::ServerState **view** is kept incrementally:
///   mixes and power flags are patched in place on every commit and
///   membership changes only on crash/repair/isolation, so an admission
///   hands the allocator a span instead of materializing a fleet-sized
///   vector per attempt;
/// - a **change journal** records the ids those mutators touched since the
///   last take_delta(), which hands them to the allocator as a
///   core::ViewDelta, so an allocator that mirrors the fleet applies the
///   changes instead of walking the span.
/// Every write to `alloc` goes through add_vm/remove_vm/set_alloc, which
/// keep the bitmap, the view and the journal current.
class FleetSoA {
 public:
  static constexpr std::size_t kNotInView =
      std::numeric_limits<std::size_t>::max();

  // Every column is sized once, at construction.
  std::vector<ClassCounts> alloc;  ///< read-only outside the mutators
  std::vector<double> busy_power_w;
  // Flags & failure windows (inert while failures are disabled).
  std::vector<std::uint8_t> powered;
  std::vector<std::uint8_t> down;
  std::vector<std::uint8_t> isolated;  ///< ToR fault: masked, VMs stalled
  std::vector<std::uint8_t> ever_powered;
  std::vector<double> repair_s;
  std::vector<double> degrade_until;
  std::vector<double> degrade_mult;
  std::vector<double> brownout_until;
  std::vector<double> brownout_cap_w;

  FleetSoA(std::size_t n, const std::vector<int>& hardware_map)
      : alloc(n),
        busy_power_w(n, 0.0),
        powered(n, 0),
        down(n, 0),
        isolated(n, 0),
        ever_powered(n, 0),
        repair_s(n, kInf),
        degrade_until(n, -kInf),
        degrade_mult(n, 1.0),
        brownout_until(n, -kInf),
        brownout_cap_w(n, kInf),
        hosting_((n + 63) / 64, 0),
        hardware_(n, 0),
        view_pos_(n, kNotInView),
        journaled_(n, 0) {
    for (std::size_t s = 0; s < n; ++s) {
      hardware_[s] = hardware_map.empty() ? 0 : hardware_map[s];
    }
    view_.reserve(n);  // repairs re-insert without ever reallocating
    // Each id is journaled at most once per delta: fleet-size capacity
    // means a warm event never grows either buffer.
    journal_.reserve(n);
    handed_.reserve(n);
    rebuild_view();
  }

  [[nodiscard]] int hardware(std::size_t s) const { return hardware_[s]; }

  /// Calls `visit(s)` for every server hosting at least one VM, in
  /// ascending id order: O(n/64 + hosting).
  template <class Visit>
  void for_each_hosting(Visit&& visit) const {
    for (std::size_t w = 0; w < hosting_.size(); ++w) {
      for (std::uint64_t bits = hosting_[w]; bits != 0; bits &= bits - 1) {
        visit(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  /// The allocator's cluster picture: live (non-down) servers in id order —
  /// element-for-element what the seed loop's per-call materialization
  /// produced, kept current by the mutators below.
  [[nodiscard]] std::span<const ServerState> view() const { return view_; }

  /// The view's changes since the previous call, for the allocator call
  /// about to read view(): the journaled ids, ascending, under this view's
  /// id and the next sequence number. Empties the journal; the returned
  /// ids stay valid until the next take_delta().
  [[nodiscard]] core::ViewDelta take_delta() {
    handed_.swap(journal_);
    journal_.clear();
    for (const int s : handed_) {
      journaled_[static_cast<std::size_t>(s)] = 0;
    }
    std::sort(handed_.begin(), handed_.end());
    return core::ViewDelta{view_id_, ++sequence_, handed_};
  }

  /// Commits one VM: admission, restart, or a migration's destination
  /// reservation. Powers the host on (first use pays the wake premium).
  void add_vm(int server, ProfileClass profile) {
    const auto s = static_cast<std::size_t>(server);
    ++alloc[s].of(profile);
    powered[s] = 1;
    ever_powered[s] = 1;
    if (view_pos_[s] != kNotInView) {
      ServerState& entry = view_[view_pos_[s]];
      entry.allocated = alloc[s];
      entry.powered = true;
    }
    mark_hosting(s);
    journal(s);
  }

  /// Releases one VM: completion, transfer hand-off, aborted reservation.
  void remove_vm(int server, ProfileClass profile) {
    const auto s = static_cast<std::size_t>(server);
    --alloc[s].of(profile);
    if (view_pos_[s] != kNotInView) {
      view_[view_pos_[s]].allocated = alloc[s];
    }
    mark_hosting(s);
    journal(s);
  }

  /// Overwrites one server's resident mix: a crash zeroing a masked
  /// server, a snapshot restore (which rebuilds the view afterwards).
  void set_alloc(std::size_t s, const ClassCounts& mix) {
    alloc[s] = mix;
    if (view_pos_[s] != kNotInView) {
      view_[view_pos_[s]].allocated = mix;
    }
    mark_hosting(s);
    journal(s);
  }

  /// Masks a crashed server from the allocator view (order-preserving
  /// in-place erase — O(fleet) but crashes are rare by construction).
  /// The caller zeroes the resident mix afterwards with set_alloc(). A
  /// crash during a ToR isolation keeps the server masked either way
  /// (view membership is !down && !isolated throughout).
  void crash(int server) {
    const auto s = static_cast<std::size_t>(server);
    down[s] = 1;
    powered[s] = 0;
    remove_from_view(s);
    journal(s);
  }

  /// Returns a repaired server to the view — cold and empty, at its
  /// id-ordered slot (capacity was reserved up front: no allocation). A
  /// server repaired while its rack is still isolated stays masked until
  /// the switch heals.
  void repair(int server) {
    const auto s = static_cast<std::size_t>(server);
    down[s] = 0;
    if (isolated[s] == 0) {
      insert_into_view(s);
    }
    journal(s);
  }

  /// Masks a rack-isolated server (ToR fault). Residents stay resident —
  /// their progress is frozen by the caller — so the mix is untouched.
  void isolate(int server) {
    const auto s = static_cast<std::size_t>(server);
    isolated[s] = 1;
    remove_from_view(s);
    journal(s);
  }

  /// Lifts the isolation; the server rejoins the view unless it is also
  /// down (crashed mid-isolation, repair still pending).
  void deisolate(int server) {
    const auto s = static_cast<std::size_t>(server);
    isolated[s] = 0;
    if (down[s] == 0) {
      insert_into_view(s);
    }
    journal(s);
  }

  /// Rebuilds the view from the arrays (initial build, snapshot restore)
  /// under a freshly minted view id: an allocator that followed the old
  /// view walks the new one once. The journal restarts empty.
  void rebuild_view() {
    view_.clear();
    std::fill(view_pos_.begin(), view_pos_.end(), kNotInView);
    for (std::size_t s = 0; s < alloc.size(); ++s) {
      if (down[s] != 0 || isolated[s] != 0) {
        continue;
      }
      view_pos_[s] = view_.size();
      view_.push_back(ServerState{static_cast<int>(s), alloc[s],
                                  powered[s] != 0, hardware_[s]});
    }
    for (const int s : journal_) {
      journaled_[static_cast<std::size_t>(s)] = 0;
    }
    journal_.clear();
    view_id_ = core::mint_view_id();
    sequence_ = 0;
  }

 private:
  void mark_hosting(std::size_t s) {
    const std::uint64_t bit = std::uint64_t{1} << (s % 64);
    if (alloc[s].total() > 0) {
      hosting_[s / 64] |= bit;
    } else {
      hosting_[s / 64] &= ~bit;
    }
  }

  void journal(std::size_t s) {
    if (journaled_[s] == 0) {
      journaled_[s] = 1;
      journal_.push_back(static_cast<int>(s));
    }
  }

  void remove_from_view(std::size_t s) {
    const std::size_t pos = view_pos_[s];
    if (pos != kNotInView) {
      view_.erase(view_.begin() + static_cast<std::ptrdiff_t>(pos));
      view_pos_[s] = kNotInView;
      reindex_from(pos);
    }
  }

  void insert_into_view(std::size_t s) {
    if (view_pos_[s] != kNotInView) {
      return;
    }
    const int server = static_cast<int>(s);
    const auto it =
        std::lower_bound(view_.begin(), view_.end(), server,
                         [](const ServerState& a, int id) { return a.id < id; });
    const auto pos = static_cast<std::size_t>(it - view_.begin());
    view_.insert(it, ServerState{server, alloc[s], powered[s] != 0,
                                 hardware_[s]});
    reindex_from(pos);
  }

  void reindex_from(std::size_t pos) {
    for (std::size_t i = pos; i < view_.size(); ++i) {
      view_pos_[static_cast<std::size_t>(view_[i].id)] = i;
    }
  }

  // view_, journal_ and handed_ are reserved at fleet size, so neither a
  // repair re-insertion nor a warm event's journaling ever allocates;
  // every column is sized once, at construction.
  std::vector<std::uint64_t> hosting_;  ///< bit s%64 of word s/64
  std::vector<int> hardware_;
  std::vector<ServerState> view_;      ///< live servers, ascending id
  std::vector<std::size_t> view_pos_;  ///< server id → view_ index
  std::vector<std::uint8_t> journaled_;  ///< 1 while the id is in journal_
  std::vector<int> journal_;  ///< ids touched since the last take_delta()
  std::vector<int> handed_;   ///< the ids the last take_delta() returned
  std::uint64_t view_id_ = 0;
  std::uint64_t sequence_ = 0;
};

/// A VM lost to a crash, waiting to be re-placed.
struct RestartVm {
  std::size_t job_index = 0;
  double resume_done = 0.0;  ///< progress restored at restart (checkpoint)
  int retries = 0;           ///< losses so far, including the one queuing it
};

// --- snapshot identity (docs/RESILIENCE.md) ---------------------------------
// A snapshot is only meaningful against the exact run that wrote it, so
// every snapshot carries order-sensitive fingerprints of the workload and
// of the (cloud, allocator) configuration, and resume() refuses anything
// else. Doubles are mixed by bit pattern: "the same run" means the same
// bits, matching the bit-identical-resume guarantee.

std::uint64_t fingerprint_workload(const std::vector<trace::JobRequest>& jobs) {
  persist::Fingerprint fp;
  fp.mix(jobs.size());
  for (const trace::JobRequest& job : jobs) {
    fp.mix(static_cast<std::uint64_t>(job.id));
    fp.mix_double(job.submit_s);
    fp.mix(static_cast<std::uint64_t>(job.profile));
    fp.mix(static_cast<std::uint64_t>(job.vm_count));
    fp.mix_double(job.runtime_scale);
    fp.mix_double(job.deadline_s);
    fp.mix_double(job.max_exec_stretch);
    fp.mix(static_cast<std::uint64_t>(job.depends_on));
  }
  return fp.value();
}

std::uint64_t fingerprint_config(const CloudConfig& cloud,
                                 const std::string& allocator_name,
                                 std::size_t db_count) {
  persist::Fingerprint fp;
  fp.mix(static_cast<std::uint64_t>(cloud.server_count));
  fp.mix_double(cloud.idle_power_w);
  fp.mix(cloud.hardware.size());
  for (const int hardware : cloud.hardware) {
    fp.mix(static_cast<std::uint64_t>(hardware));
  }
  const MigrationConfig& mig = cloud.migration;
  fp.mix(mig.enabled ? 1 : 0);
  fp.mix(static_cast<std::uint64_t>(mig.trigger));
  fp.mix_double(mig.check_interval_s);
  fp.mix(static_cast<std::uint64_t>(mig.evict_below_vms));
  fp.mix(static_cast<std::uint64_t>(mig.max_concurrent));
  fp.mix_double(mig.transfer_mbps);
  fp.mix_double(mig.degradation);
  fp.mix_double(mig.downtime_work_fraction);
  const FailureConfig& fail = cloud.failure;
  fp.mix(fail.enabled ? 1 : 0);
  fp.mix(fail.script.size());
  for (const FailureEvent& event : fail.script) {
    fp.mix(static_cast<std::uint64_t>(event.kind));
    fp.mix(static_cast<std::uint64_t>(event.server));
    fp.mix_double(event.at_s);
    fp.mix_double(event.duration_s);
    fp.mix_double(event.magnitude);
  }
  fp.mix_double(fail.mtbf_s);
  fp.mix_double(fail.mttr_s);
  fp.mix(fail.seed);
  fp.mix(static_cast<std::uint64_t>(fail.recovery.policy));
  fp.mix_double(fail.recovery.checkpoint_period_s);
  fp.mix_double(fail.recovery.checkpoint_tax);
  fp.mix(static_cast<std::uint64_t>(fail.recovery.max_retries));
  // Correlated failure domains: the domain processes and the full rack →
  // PDU/ToR map are part of the run's identity — a snapshot from a
  // different topology must be refused.
  fp.mix_double(fail.domains.pdu_mtbf_s);
  fp.mix_double(fail.domains.pdu_mttr_s);
  fp.mix_double(fail.domains.tor_mtbf_s);
  fp.mix_double(fail.domains.tor_mttr_s);
  fp.mix(fail.topology != nullptr ? 1 : 0);
  if (fail.topology != nullptr) {
    const Topology& topo = *fail.topology;
    fp.mix(static_cast<std::uint64_t>(topo.rack_count()));
    for (const RackSpec& rack : topo.racks()) {
      fp.mix(static_cast<std::uint64_t>(rack.pdu));
      fp.mix(static_cast<std::uint64_t>(rack.tor));
      fp.mix(rack.servers.size());
      for (const int server : rack.servers) {
        fp.mix(static_cast<std::uint64_t>(server));
      }
    }
  }
  fp.mix(static_cast<std::uint64_t>(cloud.backfill_window));
  fp.mix(cloud.record_completions ? 1 : 0);
  fp.mix(db_count);
  fp.mix_string(allocator_name);
  return fp.value();
}

/// Throws the typed mismatch error resume() promises.
void require_snapshot(bool condition, const char* what) {
  if (!condition) {
    throw persist::SnapshotMismatchError(
        std::string("snapshot does not fit this run: ") + what);
  }
}

}  // namespace

SimMetrics Simulator::run(const trace::PreparedWorkload& workload,
                          const core::Allocator& allocator,
                          const IntervalObserver& observer) const {
  return run_impl(workload, allocator, observer, nullptr);
}

SimMetrics Simulator::resume(const trace::PreparedWorkload& workload,
                             const core::Allocator& allocator,
                             const persist::SimSnapshot& snapshot,
                             const IntervalObserver& observer) const {
  return run_impl(workload, allocator, observer, &snapshot);
}

SimMetrics Simulator::run_impl(const trace::PreparedWorkload& workload,
                               const core::Allocator& allocator,
                               const IntervalObserver& observer,
                               const persist::SimSnapshot* restore) const {
  AEVA_REQUIRE(!workload.jobs.empty(), "empty workload");
  const auto& jobs = workload.jobs;
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    AEVA_REQUIRE(jobs[i].submit_s >= jobs[i - 1].submit_s,
                 "workload not sorted by submission time at job ", i);
  }

  const auto n_servers = static_cast<std::size_t>(cloud_.server_count);
  FleetSoA fleet(n_servers, cloud_.hardware);
  std::vector<RunningVm> running;  // hoisted per-run, grows to peak then flat
  FcfsQueue queue;  // indices into jobs, FCFS with O(1) amortized erase

  // Reset-not-freed scratch (docs/ARCHITECTURE.md "Event-loop hot path"):
  // per-call helpers reset the pool on entry and take typed buffers whose
  // capacity survives across events, so a warm event performs no heap
  // allocation. Rule: a pool-using helper is never called while its caller
  // holds pool buffers. Buffers that must outlive helper calls (the due-
  // fault batch) are hoisted instead.
  util::ScratchPool scratch;
  std::vector<FailureEvent> due_faults;
  core::AllocationResult alloc_result;  // reused across allocate_into calls

  // --- fault injection & recovery (failure.hpp) ---------------------------
  const FailureConfig& fail = cloud_.failure;
  fail.validate(cloud_.server_count);
  const bool fail_on = fail.enabled;
  const bool ckpt_on =
      fail_on && fail.recovery.policy == RecoveryPolicy::kCheckpointRestart;
  std::deque<RestartVm> restarts;  // per-run; lost VMs await re-placement
  double useful_work_s = 0.0;      // solo-equivalent seconds of completed VMs

  // Workflow dependencies (JobRequest::depends_on): job ids resolve
  // through a flat sorted (id, index) table, binary-searched on the
  // arrival path — no node-based map. Built once per run; duplicate ids
  // resolve to the last index, matching the map semantics this replaces.
  std::vector<std::pair<long long, std::size_t>> index_of_id;
  index_of_id.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    index_of_id.emplace_back(jobs[i].id, i);
  }
  std::sort(index_of_id.begin(), index_of_id.end());
  const auto find_job_index = [&](long long id) -> const std::size_t* {
    const auto it = std::upper_bound(
        index_of_id.begin(), index_of_id.end(), id,
        [](long long value, const std::pair<long long, std::size_t>& entry) {
          return value < entry.first;
        });
    if (it == index_of_id.begin() || std::prev(it)->first != id) {
      return nullptr;
    }
    return &std::prev(it)->second;
  };
  // Per-run job bookkeeping, all sized once up front.
  std::vector<int> vms_left(jobs.size());
  std::vector<bool> job_done(jobs.size(), false);
  std::vector<std::vector<std::size_t>> dependents(jobs.size());
  std::size_t parked = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    vms_left[i] = jobs[i].vm_count;
    if (jobs[i].depends_on != 0) {
      const std::size_t* dep = find_job_index(jobs[i].depends_on);
      AEVA_REQUIRE(dep != nullptr, "job ", jobs[i].id,
                   " depends on unknown job ", jobs[i].depends_on);
      AEVA_REQUIRE(*dep < i, "job ", jobs[i].id,
                   " depends on a later job ", jobs[i].depends_on);
    }
  }

  SimMetrics metrics;
  metrics.jobs = jobs.size();
  util::RunningStats response_stats;
  util::RunningStats wait_stats;      // one sample per placed VM
  util::RunningStats job_wait_stats;  // one sample per admitted job

  const double t0 = jobs.front().submit_s;
  double now = t0;
  std::size_t next_job = 0;
  std::int64_t next_vm_id = 1;
  double busy_server_time = 0.0;  // ∫ busy_count dt

  // --- observability (docs/OBSERVABILITY.md) ------------------------------
  // Handles resolved once per run; all null without a session, so every
  // instrumentation site below is a single pointer test when disabled.
  struct SimObs {
    obs::Counter* loop_events = nullptr;
    obs::Counter* ev_arrival = nullptr;
    obs::Counter* ev_completion = nullptr;
    obs::Counter* ev_transfer = nullptr;
    obs::Counter* ev_sweep = nullptr;
    obs::Counter* ev_failure = nullptr;
    obs::Counter* ev_window = nullptr;
    obs::Counter* intervals = nullptr;
    obs::Counter* admissions = nullptr;
    obs::Counter* admission_failures = nullptr;
    obs::Counter* backfills = nullptr;
    obs::Counter* restarts_placed = nullptr;
    obs::Counter* restart_failures = nullptr;
    obs::Counter* db_lookups = nullptr;
    obs::Counter* crashes = nullptr;
    obs::Counter* degrades = nullptr;
    obs::Counter* brownouts = nullptr;
    obs::Counter* pdu_faults = nullptr;
    obs::Counter* tor_faults = nullptr;
    obs::Counter* abandoned = nullptr;
    obs::Counter* snapshots = nullptr;
    obs::Counter* snapshot_bytes = nullptr;
    obs::Histogram* queue_depth = nullptr;
    obs::Histogram* interval_s = nullptr;
    obs::TraceLog* trace = nullptr;
  } sobs;
  if (cloud_.obs != nullptr) {
    obs::MetricsRegistry& reg = cloud_.obs->metrics();
    sobs.loop_events = &reg.counter("sim.events");
    sobs.ev_arrival = &reg.counter("sim.events.arrival");
    sobs.ev_completion = &reg.counter("sim.events.completion");
    sobs.ev_transfer = &reg.counter("sim.events.transfer");
    sobs.ev_sweep = &reg.counter("sim.events.sweep");
    sobs.ev_failure = &reg.counter("sim.events.failure");
    sobs.ev_window = &reg.counter("sim.events.window");
    sobs.intervals = &reg.counter("sim.intervals");
    sobs.admissions = &reg.counter("sim.admissions");
    sobs.admission_failures = &reg.counter("sim.admission_failures");
    sobs.backfills = &reg.counter("sim.backfills");
    sobs.restarts_placed = &reg.counter("sim.vm_restarts");
    sobs.restart_failures = &reg.counter("sim.restart_failures");
    sobs.db_lookups = &reg.counter("sim.modeldb.lookups");
    sobs.crashes = &reg.counter("sim.failures.crash");
    sobs.degrades = &reg.counter("sim.failures.degrade");
    sobs.brownouts = &reg.counter("sim.failures.brownout");
    sobs.pdu_faults = &reg.counter("sim.failures.pdu");
    sobs.tor_faults = &reg.counter("sim.failures.tor");
    sobs.abandoned = &reg.counter("sim.vms_abandoned");
    sobs.snapshots = &reg.counter("sim.snapshots");
    sobs.snapshot_bytes = &reg.counter("sim.snapshot_bytes");
    sobs.queue_depth = &reg.histogram(
        "sim.queue_depth", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
    sobs.interval_s = &reg.histogram(
        "sim.interval_s", {1.0, 10.0, 60.0, 300.0, 900.0, 3600.0, 14400.0});
    sobs.trace = &cloud_.obs->trace();
  }
  // Run-level span: brackets the whole event loop on the simulated
  // timeline; its real_us is the wall-clock cost of the run.
  obs::Span run_span(sobs.trace, "run", "sim", t0);

  FailureSchedule failure_schedule(fail, cloud_.server_count, t0);

  // Correlated failure domains (failure.hpp "Correlated domain faults").
  // Per-switch heal instants close event intervals exactly like repair
  // windows do; +inf means healthy. The vector stays empty unless a ToR
  // fault can actually occur — an inert topology must leave the run (and
  // its snapshot bytes) identical to the topology-free model. The
  // blast-radius sum is the run-local accumulator behind
  // SimMetrics::blast_radius_vms_mean and travels through snapshots as
  // MetricsState::blast_radius_vm_sum.
  const Topology* topo = fail_on ? fail.topology : nullptr;
  const bool tor_possible =
      topo != nullptr &&
      (fail.domains.tor_mtbf_s > 0.0 ||
       std::any_of(fail.script.begin(), fail.script.end(),
                   [](const FailureEvent& event) {
                     return event.kind == FailureKind::kTorFault;
                   }));
  // Hoisted per-run state, sized once at setup; events only mutate it.
  std::vector<double> tor_heal_s(
      tor_possible ? static_cast<std::size_t>(topo->tor_count()) : 0, kInf);
  double blast_radius_vm_sum = 0.0;

  // Failure-window deadlines: every write of a finite repair, window-end
  // or heal instant below is reported, and the loop pops the due ones.
  WindowDeadlines deadlines(WindowDeadlines::Columns{
      &fleet.down, &fleet.repair_s, &fleet.degrade_until,
      &fleet.brownout_until, &tor_heal_s});
  if (fail_on) {
    deadlines.reserve();
  }

  // Hardware class of each server (class 0 when no map is configured).
  const auto hardware_of = [&](std::size_t s) { return fleet.hardware(s); };

  // Lost/useful work is measured in canonical solo-time-equivalent seconds
  // (class-0 base record), so the metric is placement-independent.
  const auto solo_time = [&](ProfileClass profile) {
    return db_of(0).base().of(profile).solo_time_s;
  };

  // Refreshes the cached record-derived quantities of one server: its mean
  // power and the progress rate of every VM it hosts.
  const auto refresh_server = [&](int server_id) {
    const auto s = static_cast<std::size_t>(server_id);
    if (fleet.alloc[s].total() == 0) {
      fleet.busy_power_w[s] = 0.0;
      return;
    }
    // Rack-isolated servers (ToR fault): residents stall — progress frozen
    // at rate zero, released on heal — while the machine idles at its
    // floor draw. Completion scans stay NaN-free: a stalled VM's
    // remaining/rate is +inf, never 0/0, because completed VMs (remaining
    // <= kEps) are removed before the next event scan.
    if (fail_on && fleet.isolated[s] != 0) {
      fleet.busy_power_w[s] = cloud_.idle_power_w;
      for (RunningVm& vm : running) {
        if (vm.server == server_id) {
          vm.rate = 0.0;
        }
      }
      return;
    }
    const modeldb::Record rec = db_of(hardware_of(s)).estimate(fleet.alloc[s]);
    if (sobs.db_lookups != nullptr) {
      sobs.db_lookups->add();
    }
    fleet.busy_power_w[s] = std::max(rec.avg_power_w(), cloud_.idle_power_w);
    // Failure modifiers: transient degradation windows slow every resident
    // VM; a brownout clamps the server's draw and slows VMs by the same
    // factor (DVFS-style); checkpointing VMs pay the checkpoint-I/O tax.
    double fail_mult = 1.0;
    if (fail_on) {
      if (now < fleet.degrade_until[s]) {
        fail_mult *= fleet.degrade_mult[s];
      }
      if (now < fleet.brownout_until[s] &&
          fleet.busy_power_w[s] > fleet.brownout_cap_w[s]) {
        fail_mult *= fleet.brownout_cap_w[s] / fleet.busy_power_w[s];
        fleet.busy_power_w[s] = fleet.brownout_cap_w[s];
      }
      if (ckpt_on) {
        fail_mult *= 1.0 - fail.recovery.checkpoint_tax;
      }
    }
    for (RunningVm& vm : running) {
      if (vm.server == server_id) {
        const double est = rec.time_of(vm.profile);
        AEVA_INVARIANT(est > 0.0, "non-positive estimated time");
        vm.rate = 1.0 / (vm.runtime_scale * est);
        if (vm.migrating) {
          vm.rate *= cloud_.migration.degradation;
        }
        if (fail_mult != 1.0) {
          vm.rate *= fail_mult;
        }
      }
    }
  };

  // The allocator view of the cluster is fleet.view(): crashed servers are
  // masked, so every strategy (and every decorator) is failure-aware
  // without knowing about failures. The view is maintained incrementally —
  // no per-call materialization (bench/event_loop_throughput gates this).

  // Workflow release: one VM of job `j` will never run again (completed or
  // abandoned); when it was the last, dependents unpark.
  const auto retire_vm_of_job = [&](std::size_t j) {
    if (--vms_left[j] == 0) {
      job_done[j] = true;
      for (const std::size_t dependent : dependents[j]) {
        queue.push_back(dependent);
        --parked;
      }
      dependents[j].clear();
    }
  };

  // Attempts to place one queued job (addressed by queue position); on
  // success the job is admitted and removed from the queue.
  const auto try_admit = [&](std::size_t queue_pos) -> bool {
    {
      const std::size_t j = queue[queue_pos];
      const trace::JobRequest& job = jobs[j];
      scratch.reset();
      std::vector<VmRequest>& request = scratch.take<VmRequest>();
      request.reserve(static_cast<std::size_t>(job.vm_count));
      // Per-type execution-time QoS: the allocator may only use mixes whose
      // estimated execution time stays within the contention cap. Database
      // estimates are in canonical-app time units, so the bound is too.
      const double exec_bound =
          job.max_exec_stretch *
          db_of(0).base().of(job.profile).solo_time_s;
      for (int k = 0; k < job.vm_count; ++k) {
        VmRequest vm;
        vm.id = next_vm_id + k;
        vm.profile = job.profile;
        vm.max_exec_time_s = exec_bound > 0.0 ? exec_bound : kInf;
        request.push_back(vm);
      }
      // The span's real_us measures the allocator's wall-clock latency for
      // this admission attempt; its simulated duration is zero (admission
      // is instantaneous in the model).
      obs::Span span(sobs.trace, "admit", "sim", now);
      allocator.allocate_into(request, fleet.view(), fleet.take_delta(),
                              alloc_result);
      const core::AllocationResult& result = alloc_result;
      if (!result.complete) {
        span.cancel();  // count the miss, don't trace it (volume)
        if (sobs.admission_failures != nullptr) {
          sobs.admission_failures->add();
        }
        ++metrics.rejects_by_reason[static_cast<std::size_t>(
            result.outcome.reason)];
        return false;  // no room (or no QoS-feasible room) right now
      }
      AEVA_INVARIANT(result.placements.size() == request.size(),
                  "allocator placed ", result.placements.size(), " of ",
                  request.size(), " VMs");
      if (result.outcome.path == core::AllocationPath::kFallbackFirstFit) {
        ++metrics.fallback_allocations;
      }
      for (const Placement& placement : result.placements) {
        AEVA_REQUIRE(placement.server_id >= 0 &&
                         placement.server_id < cloud_.server_count,
                     "allocator returned invalid server ",
                     placement.server_id);
        RunningVm vm;
        vm.vm_id = placement.vm_id;
        vm.job_index = j;
        vm.profile = job.profile;
        vm.runtime_scale = job.runtime_scale;
        vm.server = placement.server_id;
        vm.start_s = now;
        if (ckpt_on) {
          vm.next_ckpt_s = now + fail.recovery.checkpoint_period_s;
        }
        running.push_back(vm);
        fleet.add_vm(placement.server_id, job.profile);
        wait_stats.add(now - job.submit_s);
      }
      job_wait_stats.add(now - job.submit_s);
      next_vm_id += job.vm_count;
      // Refresh every touched server once.
      std::vector<int>& touched = scratch.take<int>();
      for (const Placement& placement : result.placements) {
        touched.push_back(placement.server_id);
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      for (const int s : touched) {
        refresh_server(s);
      }
      queue.erase_at(queue_pos);
      if (sobs.admissions != nullptr) {
        sobs.admissions->add();
        span.arg("job", std::to_string(job.id));
        span.arg("vms", std::to_string(job.vm_count));
        span.arg("servers", std::to_string(touched.size()));
      }
      span.close(now);
      return true;
    }
  };

  // Re-places the head of the restart queue (one VM lost to a crash).
  // Restarts go through the regular allocator, so recovery competes for
  // capacity under the same strategy and QoS bounds as fresh admissions.
  const auto try_restart = [&]() -> bool {
    const RestartVm& restart = restarts.front();
    const trace::JobRequest& job = jobs[restart.job_index];
    VmRequest request;
    request.id = next_vm_id;
    request.profile = job.profile;
    const double exec_bound =
        job.max_exec_stretch * db_of(0).base().of(job.profile).solo_time_s;
    request.max_exec_time_s = exec_bound > 0.0 ? exec_bound : kInf;
    obs::Span span(sobs.trace, "restart", "failure", now);
    allocator.allocate_into(std::span<const VmRequest>(&request, 1),
                            fleet.view(), fleet.take_delta(), alloc_result);
    const core::AllocationResult& result = alloc_result;
    if (!result.complete) {
      span.cancel();
      if (sobs.restart_failures != nullptr) {
        sobs.restart_failures->add();
      }
      ++metrics.rejects_by_reason[static_cast<std::size_t>(
          result.outcome.reason)];
      return false;
    }
    AEVA_INVARIANT(result.placements.size() == 1,
                   "allocator placed ", result.placements.size(),
                   " of 1 restart VM");
    if (result.outcome.path == core::AllocationPath::kFallbackFirstFit) {
      ++metrics.fallback_allocations;
    }
    const Placement& placement = result.placements.front();
    AEVA_REQUIRE(placement.server_id >= 0 &&
                     placement.server_id < cloud_.server_count,
                 "allocator returned invalid server ", placement.server_id);
    RunningVm vm;
    vm.vm_id = next_vm_id++;
    vm.job_index = restart.job_index;
    vm.profile = job.profile;
    vm.runtime_scale = job.runtime_scale;
    vm.server = placement.server_id;
    vm.start_s = now;
    vm.remaining = 1.0 - restart.resume_done;
    vm.retries = restart.retries;
    vm.ckpt_done = restart.resume_done;
    if (ckpt_on) {
      vm.next_ckpt_s = now + fail.recovery.checkpoint_period_s;
    }
    running.push_back(vm);
    fleet.add_vm(placement.server_id, job.profile);
    refresh_server(placement.server_id);
    ++metrics.vm_restarts;
    if (sobs.restarts_placed != nullptr) {
      sobs.restarts_placed->add();
      span.arg("job", std::to_string(job.id));
      span.arg("server", std::to_string(placement.server_id));
      span.arg("retries", std::to_string(vm.retries));
    }
    span.close(now);
    restarts.pop_front();
    return true;
  };

  // Admits queued jobs: recovery first (lost VMs are the oldest admitted
  // work), then FCFS; when the head cannot be placed and backfilling is
  // enabled, up to `backfill_window` younger jobs may jump ahead
  // (aggressive backfill, no reservations).
  const auto drain_queue = [&] {
    while (!restarts.empty() && try_restart()) {
    }
    while (!queue.empty()) {
      if (try_admit(0)) {
        continue;
      }
      bool backfilled = false;
      const auto window =
          static_cast<std::size_t>(std::max(0, cloud_.backfill_window));
      for (std::size_t p = 1; p < queue.size() && p <= window; ++p) {
        if (try_admit(p)) {
          backfilled = true;
          if (sobs.backfills != nullptr) {
            sobs.backfills->add();
          }
          break;
        }
      }
      if (!backfilled) {
        return;
      }
    }
  };

  // --- reactive consolidation (live migration) ----------------------------
  const MigrationConfig& mig = cloud_.migration;
  if (mig.enabled) {
    AEVA_REQUIRE(mig.check_interval_s > 0.0, "sweep interval must be positive");
    AEVA_REQUIRE(mig.evict_below_vms >= 1, "eviction threshold must be >= 1");
    AEVA_REQUIRE(mig.max_concurrent >= 1, "need at least one migration slot");
    AEVA_REQUIRE(mig.transfer_mbps > 0.0, "transfer bandwidth must be positive");
    AEVA_REQUIRE(mig.degradation > 0.0 && mig.degradation <= 1.0,
                 "degradation factor out of (0, 1]");
    AEVA_REQUIRE(mig.downtime_work_fraction >= 0.0 &&
                     mig.downtime_work_fraction < 1.0,
                 "downtime work fraction out of [0, 1)");
    if (mig.trigger == MigrationConfig::Trigger::kThermal) {
      AEVA_REQUIRE(mig.thermal_map != nullptr,
                   "thermal trigger requires a thermal map");
      AEVA_REQUIRE(mig.thermal_map->server_count() >= cloud_.server_count,
                   "thermal map covers ", mig.thermal_map->server_count(),
                   " servers, cloud has ", cloud_.server_count);
    }
  }
  double next_sweep = mig.enabled ? t0 + mig.check_interval_s : kInf;

  // Memory copied per migrating VM: the class's canonical footprint.
  const auto transfer_seconds = [&](ProfileClass profile) {
    return workload::canonical_app(profile).mem_footprint_mb /
           mig.transfer_mbps;
  };

  // Consolidation sweep: evict the VMs of lightly loaded servers onto
  // busier compatible machines so the sources can power down.
  const auto consolidation_sweep = [&] {
    int in_flight = 0;
    for (const RunningVm& vm : running) {
      in_flight += vm.migrating ? 1 : 0;
    }
    scratch.reset();
    // Servers already involved in a transfer are off limits.
    std::vector<std::uint8_t>& frozen = scratch.take<std::uint8_t>();
    frozen.assign(n_servers, 0);
    for (const RunningVm& vm : running) {
      if (vm.migrating) {
        frozen[static_cast<std::size_t>(vm.server)] = 1;
        frozen[static_cast<std::size_t>(vm.dest_server)] = 1;
      }
    }
    std::vector<std::pair<std::size_t, std::size_t>>& plan =
        scratch.take<std::pair<std::size_t, std::size_t>>();  // vm, dest
    std::vector<ClassCounts>& tentative = scratch.take<ClassCounts>();
    for (std::size_t src = 0; src < n_servers; ++src) {
      if (in_flight >= mig.max_concurrent) {
        break;
      }
      const int load = fleet.alloc[src].total();
      if (load == 0 || load > mig.evict_below_vms || frozen[src] != 0 ||
          (fail_on && fleet.isolated[src] != 0)) {
        continue;  // an isolated rack cannot drain (its VMs are stalled)
      }
      // Tentatively rehome every VM of this server.
      plan.clear();
      tentative.assign(fleet.alloc.begin(), fleet.alloc.end());
      bool ok = true;
      for (std::size_t v = 0; v < running.size() && ok; ++v) {
        const RunningVm& vm = running[v];
        if (vm.server != static_cast<int>(src) || vm.migrating) {
          if (vm.server == static_cast<int>(src) && vm.migrating) {
            ok = false;  // server already draining
          }
          continue;
        }
        bool placed = false;
        for (std::size_t dst = 0; dst < n_servers && !placed; ++dst) {
          if (dst == src || frozen[dst] != 0 ||
              (fail_on &&
               (fleet.down[dst] != 0 || fleet.isolated[dst] != 0))) {
            continue;
          }
          // Consolidate toward equally-or-more-loaded busy machines; an
          // empty destination would just move the problem, and a lighter
          // one would invert it (ping-pong guard).
          if (tentative[dst].total() == 0 ||
              tentative[dst].total() < fleet.alloc[src].total()) {
            continue;
          }
          ClassCounts combined = tentative[dst];
          ++combined.of(vm.profile);
          const core::CostModel model(db_of(hardware_of(dst)));
          if (!model.feasible(combined)) {
            continue;
          }
          plan.emplace_back(v, dst);
          tentative[dst] = combined;
          placed = true;
        }
        ok = placed;
      }
      if (!ok || plan.empty() ||
          in_flight + static_cast<int>(plan.size()) > mig.max_concurrent) {
        continue;
      }
      // Commit: reserve destinations and start the transfers.
      for (const auto& [v, dst] : plan) {
        RunningVm& vm = running[v];
        vm.migrating = true;
        vm.dest_server = static_cast<int>(dst);
        vm.migration_done_s = now + transfer_seconds(vm.profile);
        vm.remaining += mig.downtime_work_fraction;  // stop-and-copy loss
        fleet.add_vm(static_cast<int>(dst), vm.profile);
        frozen[dst] = 1;
        ++in_flight;
        ++metrics.migrations;
        metrics.migration_transfer_s += transfer_seconds(vm.profile);
        refresh_server(static_cast<int>(dst));
      }
      frozen[src] = 1;
      refresh_server(static_cast<int>(src));  // degradation on the movers
    }
  };

  // Reactive thermal sweep ([3]): servers over the inlet redline shed one
  // VM each toward the coolest feasible machine.
  const auto thermal_sweep = [&] {
    int in_flight = 0;
    for (const RunningVm& vm : running) {
      in_flight += vm.migrating ? 1 : 0;
    }
    scratch.reset();
    std::vector<std::uint8_t>& frozen = scratch.take<std::uint8_t>();
    frozen.assign(n_servers, 0);
    for (const RunningVm& vm : running) {
      if (vm.migrating) {
        frozen[static_cast<std::size_t>(vm.server)] = 1;
        frozen[static_cast<std::size_t>(vm.dest_server)] = 1;
      }
    }
    // Instantaneous power picture → predicted inlets.
    std::vector<double>& power = scratch.take<double>();
    power.assign(static_cast<std::size_t>(mig.thermal_map->server_count()),
                 0.0);
    for (std::size_t s = 0; s < n_servers; ++s) {
      power[s] = fleet.alloc[s].total() > 0 ? fleet.busy_power_w[s] : 0.0;
    }
    // Returned by value on the (cold) migration cadence, not per event.
    const std::vector<double> inlets = mig.thermal_map->inlet_temps(power);
    const double redline = mig.thermal_map->config().inlet_limit_c;

    // Hottest offenders first.
    std::vector<std::size_t>& order = scratch.take<std::size_t>();
    for (std::size_t s = 0; s < n_servers; ++s) {
      if (inlets[s] > redline && fleet.alloc[s].total() > 0 &&
          frozen[s] == 0 && !(fail_on && fleet.isolated[s] != 0)) {
        order.push_back(s);
      }
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return inlets[a] > inlets[b];
    });

    for (const std::size_t src : order) {
      if (in_flight >= mig.max_concurrent) {
        break;
      }
      // First resident, non-migrating VM of the hot server.
      RunningVm* mover = nullptr;
      for (RunningVm& vm : running) {
        if (vm.server == static_cast<int>(src) && !vm.migrating) {
          mover = &vm;
          break;
        }
      }
      if (mover == nullptr) {
        continue;
      }
      // Coolest feasible destination comfortably under the redline.
      std::size_t best = n_servers;
      for (std::size_t dst = 0; dst < n_servers; ++dst) {
        if (dst == src || frozen[dst] != 0 || inlets[dst] > redline - 1.0 ||
            (fail_on &&
             (fleet.down[dst] != 0 || fleet.isolated[dst] != 0))) {
          continue;
        }
        ClassCounts combined = fleet.alloc[dst];
        ++combined.of(mover->profile);
        const core::CostModel model(db_of(hardware_of(dst)));
        if (!model.feasible(combined)) {
          continue;
        }
        if (best == n_servers || inlets[dst] < inlets[best]) {
          best = dst;
        }
      }
      if (best == n_servers) {
        continue;
      }
      mover->migrating = true;
      mover->dest_server = static_cast<int>(best);
      mover->migration_done_s = now + transfer_seconds(mover->profile);
      mover->remaining += mig.downtime_work_fraction;
      fleet.add_vm(static_cast<int>(best), mover->profile);
      frozen[best] = 1;
      frozen[src] = 1;
      ++in_flight;
      ++metrics.migrations;
      metrics.migration_transfer_s += transfer_seconds(mover->profile);
      refresh_server(static_cast<int>(best));
      refresh_server(static_cast<int>(src));
    }
  };

  // Instant trace event for a fault that actually applied (guard call
  // sites on sobs.trace so the disabled path builds no strings).
  const auto trace_fault = [&](const char* kind, const FailureEvent& event) {
    obs::TraceEvent record;
    record.name = kind;
    record.cat = "failure";
    record.phase = 'i';
    record.ts_sim_s = now;
    record.args.emplace_back("server", std::to_string(event.server));
    record.args.emplace_back("duration_s", std::to_string(event.duration_s));
    sobs.trace->record(std::move(record));
  };

  // Crashes one server: loses every resident VM, aborts inbound transfers
  // cleanly (the VM never left its source), and masks the server until
  // `now + duration_s`. Shared by plain kCrash events and by each server
  // of a PDU feed fault. Resets the scratch pool — callers must not hold
  // pool buffers across a call (docs/ARCHITECTURE.md scratch rule).
  const auto apply_server_crash = [&](int server, double duration_s) {
    const auto sv = static_cast<std::size_t>(server);
    ++metrics.failures;
    if (sobs.crashes != nullptr) {
      sobs.crashes->add();
    }
    fleet.crash(server);  // masks, powers off (cold wake-up premium)
    fleet.repair_s[sv] = now + duration_s;
    deadlines.on_repair(server);
    fleet.degrade_until[sv] = -kInf;
    fleet.degrade_mult[sv] = 1.0;
    fleet.brownout_until[sv] = -kInf;
    fleet.brownout_cap_w[sv] = kInf;
    failure_schedule.on_crash(server);

    scratch.reset();
    std::vector<int>& touched = scratch.take<int>();
    // Inbound transfers abort cleanly: the VM stays whole on its source,
    // the destination reservation is dropped, the in-flight degradation
    // ends, and the stop-and-copy loss is refunded — the downtime never
    // happened, so charging it would double-account the abort.
    for (RunningVm& vm : running) {
      if (vm.migrating && vm.dest_server == server) {
        vm.migrating = false;
        vm.dest_server = -1;
        vm.remaining -= mig.downtime_work_fraction;
        touched.push_back(vm.server);
      }
    }
    // Resident VMs — including outbound movers, whose copy dies with the
    // source — are lost. Work beyond the resume point is destroyed.
    for (std::size_t i = 0; i < running.size();) {
      RunningVm& vm = running[i];
      if (vm.server != server) {
        ++i;
        continue;
      }
      if (vm.migrating) {
        fleet.remove_vm(vm.dest_server, vm.profile);
        touched.push_back(vm.dest_server);
      }
      const double done = std::max(1.0 - vm.remaining, 0.0);
      const double resume = ckpt_on ? std::min(vm.ckpt_done, done) : 0.0;
      metrics.lost_work_s +=
          (done - resume) * vm.runtime_scale * solo_time(vm.profile);
      if (fail.recovery.policy == RecoveryPolicy::kAbandonAfterRetries &&
          vm.retries >= fail.recovery.max_retries) {
        ++metrics.vms_abandoned;
        if (sobs.abandoned != nullptr) {
          sobs.abandoned->add();
        }
        retire_vm_of_job(vm.job_index);  // never re-runs; free dependents
      } else {
        restarts.push_back(RestartVm{vm.job_index, resume, vm.retries + 1});
      }
      running[i] = running.back();
      running.pop_back();
    }
    fleet.set_alloc(sv, ClassCounts{});
    fleet.busy_power_w[sv] = 0.0;
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    for (const int t : touched) {
      if (t != server) {
        refresh_server(t);
      }
    }
  };

  // Applies one due fault. Crashes lose every resident VM and mask the
  // server until repair; degrade/brownout just open their windows; PDU
  // faults crash every server on the feed in one correlated event; ToR
  // faults isolate a rack — residents stall in place, progress frozen,
  // and the whole rack rejoins the view when the switch heals.
  const auto apply_failure = [&](const FailureEvent& event) {
    const auto sv = static_cast<std::size_t>(event.server);
    if (event.kind == FailureKind::kDegrade) {
      if (fleet.down[sv] != 0) {
        return;  // a masked server cannot degrade further
      }
      fleet.degrade_until[sv] = now + event.duration_s;
      fleet.degrade_mult[sv] = event.magnitude;
      deadlines.on_window(event.server, fleet.degrade_until[sv]);
      refresh_server(event.server);
      if (sobs.degrades != nullptr) {
        sobs.degrades->add();
        trace_fault("degrade", event);
      }
      return;
    }
    if (event.kind == FailureKind::kBrownout) {
      if (fleet.down[sv] != 0) {
        return;
      }
      fleet.brownout_until[sv] = now + event.duration_s;
      fleet.brownout_cap_w[sv] = event.magnitude;
      deadlines.on_window(event.server, fleet.brownout_until[sv]);
      refresh_server(event.server);
      if (sobs.brownouts != nullptr) {
        sobs.brownouts->add();
        trace_fault("brownout", event);
      }
      return;
    }
    if (event.kind == FailureKind::kPduFault) {
      // event.server is the feed id; validate() guarantees a topology.
      ++metrics.correlated_failures;
      if (sobs.pdu_faults != nullptr) {
        sobs.pdu_faults->add();
        trace_fault("pdu", event);
      }
      // Blast radius: every VM resident on the feed at the fault instant.
      // (Residents only exist on up servers, so no down-mask is needed.)
      std::size_t blast = 0;
      for (const RunningVm& vm : running) {
        if (topo->pdu_of(vm.server) == event.server) {
          ++blast;
        }
      }
      blast_radius_vm_sum += static_cast<double>(blast);
      metrics.blast_radius_vms_max =
          std::max(metrics.blast_radius_vms_max, blast);
      // Expand to per-server crashes in ascending id order (the canonical
      // expansion order — bit-stable replay depends on it). Servers that
      // are already down keep their standing repair time.
      const double lost_before = metrics.lost_work_s;
      for (const int server : topo->servers_on_pdu(event.server)) {
        if (fleet.down[static_cast<std::size_t>(server)] != 0) {
          continue;
        }
        apply_server_crash(server, event.duration_s);
      }
      metrics.lost_work_correlated_s += metrics.lost_work_s - lost_before;
      return;
    }
    if (event.kind == FailureKind::kTorFault) {
      // event.server is the switch id. Residents stall rather than die,
      // so nothing is charged to lost work; the cost is frozen progress.
      ++metrics.correlated_failures;
      if (sobs.tor_faults != nullptr) {
        sobs.tor_faults->add();
        trace_fault("tor", event);
      }
      const double heal = now + event.duration_s;
      double& heal_slot = tor_heal_s[static_cast<std::size_t>(event.server)];
      if (heal_slot == kInf || heal_slot < heal) {
        heal_slot = heal;  // overlapping scripted windows extend the outage
        deadlines.on_heal(event.server);
      }
      scratch.reset();
      std::vector<int>& touched = scratch.take<int>();
      // In-flight transfers touching the rack abort cleanly, exactly as a
      // crash aborts inbound copies: the VM stays whole on its source, the
      // reservation is dropped, the stop-and-copy loss is refunded.
      for (RunningVm& vm : running) {
        if (!vm.migrating) {
          continue;
        }
        if (topo->tor_of(vm.server) != event.server &&
            topo->tor_of(vm.dest_server) != event.server) {
          continue;
        }
        fleet.remove_vm(vm.dest_server, vm.profile);
        touched.push_back(vm.dest_server);
        touched.push_back(vm.server);
        vm.migrating = false;
        vm.dest_server = -1;
        vm.remaining -= mig.downtime_work_fraction;
      }
      std::size_t blast = 0;
      for (const RunningVm& vm : running) {
        if (topo->tor_of(vm.server) == event.server) {
          ++blast;
        }
      }
      blast_radius_vm_sum += static_cast<double>(blast);
      metrics.blast_radius_vms_max =
          std::max(metrics.blast_radius_vms_max, blast);
      // Mask the whole rack (down servers too: a repair inside the window
      // stays masked until the switch heals — view membership is
      // !down && !isolated throughout).
      for (const int server : topo->servers_on_tor(event.server)) {
        if (fleet.isolated[static_cast<std::size_t>(server)] == 0) {
          fleet.isolate(server);
        }
      }
      // Stall residents (rate 0, idle draw) on the isolated servers, then
      // refresh outside servers whose transfers were just dropped.
      for (const int server : topo->servers_on_tor(event.server)) {
        if (fleet.down[static_cast<std::size_t>(server)] == 0) {
          refresh_server(server);
        }
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      for (const int t : touched) {
        if (topo->tor_of(t) != event.server) {
          refresh_server(t);
        }
      }
      return;
    }
    // Crash.
    if (fleet.down[sv] != 0) {
      return;  // scripted overlap with a sampled outage: already masked
    }
    if (sobs.crashes != nullptr) {
      trace_fault("crash", event);
    }
    apply_server_crash(event.server, event.duration_s);
  };

  std::size_t guard = 0;
  const std::size_t max_events =
      jobs.size() * 4 +
      static_cast<std::size_t>(workload.total_vms) * 6 + (1u << 17) +
      (fail_on ? fail.script.size() * 4 + (1u << 20) : 0u);

  // --- process-level durability (docs/RESILIENCE.md) ----------------------
  const SnapshotConfig& snap = cloud_.snapshot;
  const bool snap_on =
      snap.every_s > 0.0 && (!snap.path.empty() || snap.hook != nullptr);
  double next_snapshot_due = snap_on ? t0 + snap.every_s : kInf;
  std::uint64_t workload_fp = 0;
  std::uint64_t config_fp = 0;
  if (snap_on || restore != nullptr) {
    workload_fp = fingerprint_workload(jobs);
    config_fp = fingerprint_config(cloud_, allocator.name(), dbs_.size());
  }

  // Captures the complete loop state into a persist::SimSnapshot mirror,
  // writes it atomically when a path is configured, and hands it to the
  // hook. Pure observation: nothing the rest of the loop reads changes.
  const auto capture_snapshot = [&] {
    // The span's real_us is the wall-clock cost of encoding + writing the
    // checkpoint; its simulated duration is zero (checkpointing is outside
    // the simulated model).
    obs::Span span(sobs.trace, "snapshot", "persist", now);
    persist::SimSnapshot s;
    s.workload_fingerprint = workload_fp;
    s.config_fingerprint = config_fp;
    s.t0 = t0;
    s.now = now;
    s.next_job = next_job;
    s.next_vm_id = next_vm_id;
    s.guard = guard;
    s.busy_server_time = busy_server_time;
    s.useful_work_s = useful_work_s;
    s.next_sweep = next_sweep;
    s.parked = parked;
    s.servers.reserve(n_servers);
    for (std::size_t i = 0; i < n_servers; ++i) {
      persist::ServerPersistState out;
      out.alloc = fleet.alloc[i];
      out.busy_power_w = fleet.busy_power_w[i];
      out.powered = fleet.powered[i] != 0;
      out.down = fleet.down[i] != 0;
      out.isolated = fleet.isolated[i] != 0;
      out.repair_s = fleet.repair_s[i];
      out.degrade_until = fleet.degrade_until[i];
      out.degrade_mult = fleet.degrade_mult[i];
      out.brownout_until = fleet.brownout_until[i];
      out.brownout_cap_w = fleet.brownout_cap_w[i];
      out.ever_powered = fleet.ever_powered[i] != 0;
      s.servers.push_back(out);
    }
    s.running.reserve(running.size());
    for (const RunningVm& in : running) {
      persist::VmState out;
      out.vm_id = in.vm_id;
      out.job_index = in.job_index;
      out.profile = static_cast<std::int32_t>(in.profile);
      out.runtime_scale = in.runtime_scale;
      out.server = in.server;
      out.start_s = in.start_s;
      out.remaining = in.remaining;
      out.rate = in.rate;
      out.migrating = in.migrating;
      out.migration_done_s = in.migration_done_s;
      out.dest_server = in.dest_server;
      out.retries = in.retries;
      out.ckpt_done = in.ckpt_done;
      out.next_ckpt_s = in.next_ckpt_s;
      s.running.push_back(out);
    }
    s.queue.clear();
    s.queue.reserve(queue.size());
    queue.for_each(
        [&](std::size_t j) { s.queue.push_back(static_cast<std::uint64_t>(j)); });
    s.restarts.reserve(restarts.size());
    for (const RestartVm& in : restarts) {
      s.restarts.push_back(persist::RestartState{in.job_index, in.resume_done,
                                                 in.retries});
    }
    s.vms_left.assign(vms_left.begin(), vms_left.end());
    s.job_done.reserve(job_done.size());
    for (const bool done : job_done) {
      s.job_done.push_back(done ? 1 : 0);
    }
    s.dependents.reserve(dependents.size());
    for (const std::vector<std::size_t>& deps : dependents) {
      s.dependents.emplace_back(deps.begin(), deps.end());
    }
    persist::MetricsState& m = s.metrics;
    m.makespan_s = metrics.makespan_s;
    m.energy_j = metrics.energy_j;
    m.sla_violation_pct = metrics.sla_violation_pct;
    m.jobs = metrics.jobs;
    m.vms = metrics.vms;
    m.sla_violations = metrics.sla_violations;
    m.mean_response_s = metrics.mean_response_s;
    m.mean_wait_s = metrics.mean_wait_s;
    m.mean_job_wait_s = metrics.mean_job_wait_s;
    m.mean_busy_servers = metrics.mean_busy_servers;
    m.peak_busy_servers = metrics.peak_busy_servers;
    m.servers_powered = metrics.servers_powered;
    m.migrations = metrics.migrations;
    m.migration_transfer_s = metrics.migration_transfer_s;
    m.failures = metrics.failures;
    m.vm_restarts = metrics.vm_restarts;
    m.vms_abandoned = metrics.vms_abandoned;
    m.lost_work_s = metrics.lost_work_s;
    m.goodput_fraction = metrics.goodput_fraction;
    m.fallback_allocations = metrics.fallback_allocations;
    m.correlated_failures =
        static_cast<std::uint64_t>(metrics.correlated_failures);
    m.blast_radius_vms_max =
        static_cast<std::uint64_t>(metrics.blast_radius_vms_max);
    m.blast_radius_vm_sum = blast_radius_vm_sum;
    m.lost_work_correlated_s = metrics.lost_work_correlated_s;
    m.rejects_by_reason.reserve(metrics.rejects_by_reason.size());
    for (const std::size_t tally : metrics.rejects_by_reason) {
      m.rejects_by_reason.push_back(static_cast<std::uint64_t>(tally));
    }
    m.completions.reserve(metrics.completions.size());
    for (const VmCompletion& c : metrics.completions) {
      m.completions.push_back(persist::CompletionState{
          c.vm_id, c.job_id, static_cast<std::int32_t>(c.profile), c.server,
          c.submit_s, c.start_s, c.finish_s});
    }
    s.response_stats = response_stats.state();
    s.wait_stats = wait_stats.state();
    s.job_wait_stats = job_wait_stats.state();
    const FailureSchedule::State fs = failure_schedule.state();
    s.failure.script_next = fs.script_next;
    s.failure.streams = fs.streams;
    s.failure.sampled_next = fs.sampled_next;
    s.failure.pdu_streams = fs.pdu_streams;
    s.failure.pdu_next = fs.pdu_next;
    s.failure.tor_streams = fs.tor_streams;
    s.failure.tor_next = fs.tor_next;
    s.tor_heal_s = tor_heal_s;

    if (!snap.path.empty()) {
      const std::string bytes = persist::encode_snapshot(s);
      try {
        util::write_file_atomic(snap.path, bytes);
      } catch (const util::FileWriteError& error) {
        throw persist::SnapshotIoError(
            std::string("cannot write snapshot: ") + error.what());
      }
      if (sobs.snapshot_bytes != nullptr) {
        sobs.snapshot_bytes->add(bytes.size());
        span.arg("bytes", std::to_string(bytes.size()));
      }
    }
    if (sobs.snapshots != nullptr) {
      sobs.snapshots->add();
    }
    span.close(now);
    if (snap.hook) {
      snap.hook(s);
    }
  };

  // Restoring assigns every mutable local the loop reads, so the next
  // iteration computes exactly what the uninterrupted run's would have:
  // all doubles (rates, powers, accumulators) and all RNG stream
  // positions travel bit-exactly through the snapshot.
  if (restore != nullptr) {
    const persist::SimSnapshot& s = *restore;
    require_snapshot(s.workload_fingerprint == workload_fp,
                     "workload fingerprint differs");
    require_snapshot(s.config_fingerprint == config_fp,
                     "cloud/allocator configuration fingerprint differs");
    require_snapshot(s.servers.size() == n_servers, "server count differs");
    require_snapshot(s.vms_left.size() == jobs.size() &&
                         s.job_done.size() == jobs.size() &&
                         s.dependents.size() == jobs.size(),
                     "per-job state does not match the workload");
    require_snapshot(s.next_job <= jobs.size(),
                     "arrival cursor out of range");
    for (const std::uint64_t j : s.queue) {
      require_snapshot(j < jobs.size(), "queued job index out of range");
    }
    std::size_t parked_count = 0;
    for (const std::vector<std::uint64_t>& deps : s.dependents) {
      parked_count += deps.size();
      for (const std::uint64_t j : deps) {
        require_snapshot(j < jobs.size(), "parked job index out of range");
      }
    }
    require_snapshot(parked_count == s.parked,
                     "parked-job count disagrees with the dependents lists");
    for (const persist::VmState& vm : s.running) {
      require_snapshot(vm.job_index < jobs.size(),
                       "running VM's job out of range");
      require_snapshot(vm.server >= 0 &&
                           static_cast<std::size_t>(vm.server) < n_servers,
                       "running VM's server out of range");
      require_snapshot(vm.dest_server >= -1 &&
                           vm.dest_server < static_cast<int>(n_servers),
                       "running VM's destination out of range");
      require_snapshot(!vm.migrating || vm.dest_server >= 0,
                       "migrating VM without a destination");
    }
    for (const persist::RestartState& r : s.restarts) {
      require_snapshot(r.job_index < jobs.size(),
                       "restart VM's job out of range");
    }
    require_snapshot(s.tor_heal_s.size() == tor_heal_s.size(),
                     "per-switch heal table does not match the topology");

    now = s.now;
    next_job = static_cast<std::size_t>(s.next_job);
    next_vm_id = s.next_vm_id;
    guard = static_cast<std::size_t>(s.guard);
    busy_server_time = s.busy_server_time;
    useful_work_s = s.useful_work_s;
    next_sweep = s.next_sweep;
    parked = static_cast<std::size_t>(s.parked);
    for (std::size_t i = 0; i < n_servers; ++i) {
      const persist::ServerPersistState& in = s.servers[i];
      fleet.set_alloc(i, in.alloc);
      fleet.busy_power_w[i] = in.busy_power_w;
      fleet.powered[i] = in.powered ? 1 : 0;
      fleet.down[i] = in.down ? 1 : 0;
      fleet.isolated[i] = in.isolated ? 1 : 0;
      fleet.repair_s[i] = in.repair_s;
      fleet.degrade_until[i] = in.degrade_until;
      fleet.degrade_mult[i] = in.degrade_mult;
      fleet.brownout_until[i] = in.brownout_until;
      fleet.brownout_cap_w[i] = in.brownout_cap_w;
      fleet.ever_powered[i] = in.ever_powered ? 1 : 0;
    }
    fleet.rebuild_view();  // bulk writes above bypass the incremental sync
    running.clear();
    running.reserve(s.running.size());
    for (const persist::VmState& in : s.running) {
      RunningVm vm;
      vm.vm_id = in.vm_id;
      vm.job_index = static_cast<std::size_t>(in.job_index);
      vm.profile = static_cast<ProfileClass>(in.profile);
      vm.runtime_scale = in.runtime_scale;
      vm.server = in.server;
      vm.start_s = in.start_s;
      vm.remaining = in.remaining;
      vm.rate = in.rate;
      vm.migrating = in.migrating;
      vm.migration_done_s = in.migration_done_s;
      vm.dest_server = in.dest_server;
      vm.retries = in.retries;
      vm.ckpt_done = in.ckpt_done;
      vm.next_ckpt_s = in.next_ckpt_s;
      running.push_back(vm);
    }
    queue.clear();
    for (const std::uint64_t j : s.queue) {
      queue.push_back(static_cast<std::size_t>(j));
    }
    restarts.clear();
    for (const persist::RestartState& in : s.restarts) {
      restarts.push_back(RestartVm{static_cast<std::size_t>(in.job_index),
                                   in.resume_done, in.retries});
    }
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      vms_left[j] = s.vms_left[j];
      job_done[j] = s.job_done[j] != 0;
      dependents[j].assign(s.dependents[j].begin(), s.dependents[j].end());
    }
    const persist::MetricsState& m = s.metrics;
    metrics.makespan_s = m.makespan_s;
    metrics.energy_j = m.energy_j;
    metrics.sla_violation_pct = m.sla_violation_pct;
    metrics.jobs = static_cast<std::size_t>(m.jobs);
    metrics.vms = static_cast<std::size_t>(m.vms);
    metrics.sla_violations = static_cast<std::size_t>(m.sla_violations);
    metrics.mean_response_s = m.mean_response_s;
    metrics.mean_wait_s = m.mean_wait_s;
    metrics.mean_job_wait_s = m.mean_job_wait_s;
    metrics.mean_busy_servers = m.mean_busy_servers;
    metrics.peak_busy_servers = m.peak_busy_servers;
    metrics.servers_powered = static_cast<std::size_t>(m.servers_powered);
    metrics.migrations = static_cast<std::size_t>(m.migrations);
    metrics.migration_transfer_s = m.migration_transfer_s;
    metrics.failures = static_cast<std::size_t>(m.failures);
    metrics.vm_restarts = static_cast<std::size_t>(m.vm_restarts);
    metrics.vms_abandoned = static_cast<std::size_t>(m.vms_abandoned);
    metrics.lost_work_s = m.lost_work_s;
    metrics.goodput_fraction = m.goodput_fraction;
    metrics.fallback_allocations =
        static_cast<std::size_t>(m.fallback_allocations);
    metrics.correlated_failures =
        static_cast<std::size_t>(m.correlated_failures);
    metrics.blast_radius_vms_max =
        static_cast<std::size_t>(m.blast_radius_vms_max);
    blast_radius_vm_sum = m.blast_radius_vm_sum;
    metrics.lost_work_correlated_s = m.lost_work_correlated_s;
    if (m.rejects_by_reason.size() != metrics.rejects_by_reason.size()) {
      throw persist::SnapshotMismatchError(
          "snapshot carries " + std::to_string(m.rejects_by_reason.size()) +
          " reject-reason tallies; this build knows " +
          std::to_string(metrics.rejects_by_reason.size()));
    }
    for (std::size_t i = 0; i < metrics.rejects_by_reason.size(); ++i) {
      metrics.rejects_by_reason[i] =
          static_cast<std::size_t>(m.rejects_by_reason[i]);
    }
    metrics.completions.clear();
    metrics.completions.reserve(m.completions.size());
    for (const persist::CompletionState& c : m.completions) {
      metrics.completions.push_back(VmCompletion{
          c.vm_id, c.job_id, static_cast<ProfileClass>(c.profile), c.server,
          c.submit_s, c.start_s, c.finish_s});
    }
    response_stats.restore(s.response_stats);
    wait_stats.restore(s.wait_stats);
    job_wait_stats.restore(s.job_wait_stats);
    FailureSchedule::State fail_state;
    fail_state.script_next = static_cast<std::size_t>(s.failure.script_next);
    fail_state.streams = s.failure.streams;
    fail_state.sampled_next = s.failure.sampled_next;
    fail_state.pdu_streams = s.failure.pdu_streams;
    fail_state.pdu_next = s.failure.pdu_next;
    fail_state.tor_streams = s.failure.tor_streams;
    fail_state.tor_next = s.failure.tor_next;
    failure_schedule.restore(fail_state);
    tor_heal_s = s.tor_heal_s;
    deadlines.rebuild();  // derived state: re-read from the fields
  }

  while (next_job < jobs.size() || !queue.empty() || !running.empty() ||
         parked > 0 || !restarts.empty()) {
    AEVA_INVARIANT(++guard <= max_events,
                "simulation event budget exhausted — strategy starved the "
                "queue or the model diverged");

    // Pending faults close the interval, as do repair instants and
    // degradation/brownout window ends (rates must recompute there). Both
    // are out-of-line calls, made before the completion scan below: with a
    // call between that scan and its use, GCC keeps the scan's two
    // running minima in stack slots, and the loop-carried store/reload
    // made the whole paper_matrix workload ~10% slower.
    const double next_failure =
        fail_on ? failure_schedule.next_time() : kInf;
    const double next_window = fail_on ? deadlines.next(now) : kInf;
    // Next event: job arrival, earliest VM completion, finished transfer,
    // or a consolidation sweep (only meaningful while VMs run).
    const double next_arrival =
        next_job < jobs.size() ? jobs[next_job].submit_s : kInf;
    double next_completion = kInf;
    double next_transfer = kInf;
    for (const RunningVm& vm : running) {
      next_completion = std::min(next_completion, now + vm.remaining / vm.rate);
      if (vm.migrating) {
        next_transfer = std::min(next_transfer, vm.migration_done_s);
      }
    }
    const double sweep_event =
        mig.enabled && !running.empty() ? next_sweep : kInf;
    const double next_event =
        std::min({next_arrival, next_completion, next_transfer, sweep_event,
                  next_failure, next_window});
    if (!std::isfinite(next_event)) {
      throw std::runtime_error(
          "datacenter simulation deadlocked: queued jobs but no running VMs "
          "and no future arrivals (strategy '" +
          allocator.name() + "' cannot place the head-of-line job)");
    }
    if (sobs.loop_events != nullptr) {
      sobs.loop_events->add();
      sobs.queue_depth->record(static_cast<double>(queue.size()));
      // Attribute the step to the earliest source (ties resolve in the
      // order the min above considers them — observability only).
      obs::Counter* which = sobs.ev_window;
      if (next_event == next_arrival) {
        which = sobs.ev_arrival;
      } else if (next_event == next_completion) {
        which = sobs.ev_completion;
      } else if (next_event == next_transfer) {
        which = sobs.ev_transfer;
      } else if (next_event == sweep_event) {
        which = sobs.ev_sweep;
      } else if (next_event == next_failure) {
        which = sobs.ev_failure;
      }
      which->add();
    }

    // Accrue energy and progress over [now, next_event].
    const double dt = next_event - now;
    if (dt > 0.0) {
      if (sobs.intervals != nullptr) {
        sobs.intervals->add();
        sobs.interval_s->record(dt);
      }
      double busy = 0.0;
      double power = 0.0;
      // Fresh index-order sums every interval, never an incrementally
      // maintained total: `energy_j += power * dt` is bit-identity-pinned
      // (tests/datacenter/bit_identity_seeds_test.cpp), and a running
      // accumulator would reorder the floating-point summation. Hosting
      // servers draw the model record's mean power, which includes the
      // fixed 125 W baseline of a powered-on machine; empty servers are
      // powered off — consolidation "minimizes the number of servers that
      // are in operation" (Sect. I) — so the hosting bitmap's ascending
      // walk visits exactly the terms of a full scan, in its order.
      fleet.for_each_hosting([&](std::size_t s) {
        busy += 1.0;
        power += fleet.busy_power_w[s];
      });
      metrics.energy_j += power * dt;
      if (observer) {
        // The column itself: every server that hosts nothing draws 0 W
        // there (refresh_server and crashes zero it).
        observer(now, next_event, fleet.busy_power_w);
      }
      busy_server_time += busy * dt;
      metrics.peak_busy_servers = std::max(metrics.peak_busy_servers, busy);
      for (RunningVm& vm : running) {
        // Checkpoint boundaries inside the interval: the rate is constant
        // over [now, next_event], so snapshots need no extra events —
        // progress at each boundary is interpolated exactly.
        if (ckpt_on) {
          while (vm.next_ckpt_s <= next_event + kEps) {
            const double at_boundary =
                (1.0 - vm.remaining) + vm.rate * (vm.next_ckpt_s - now);
            vm.ckpt_done =
                std::min(std::max(at_boundary, vm.ckpt_done), 1.0);
            vm.next_ckpt_s += fail.recovery.checkpoint_period_s;
          }
        }
        vm.remaining -= vm.rate * dt;
      }
      now = next_event;
    }

    // Process arrivals at `now`; jobs with an unmet dependency park until
    // their predecessor completes.
    while (next_job < jobs.size() && jobs[next_job].submit_s <= now + kEps) {
      const trace::JobRequest& job = jobs[next_job];
      const std::size_t* dep =
          job.depends_on != 0 ? find_job_index(job.depends_on) : nullptr;
      if (dep != nullptr && !job_done[*dep]) {
        dependents[*dep].push_back(next_job);
        ++parked;
      } else {
        queue.push_back(next_job);
      }
      ++next_job;
    }

    // Finish transfers whose copy completed: the VM switches to its
    // reserved destination and the source drops it.
    for (RunningVm& vm : running) {
      if (vm.migrating && vm.migration_done_s <= now + kEps) {
        const int source = vm.server;
        fleet.remove_vm(source, vm.profile);
        vm.server = vm.dest_server;
        vm.migrating = false;
        vm.dest_server = -1;
        refresh_server(source);
        refresh_server(vm.server);
      }
    }

    // Process completions at `now`.
    for (std::size_t i = 0; i < running.size();) {
      RunningVm& vm = running[i];
      if (vm.remaining <= kEps || vm.remaining / vm.rate <= kEps) {
        const trace::JobRequest& job = jobs[vm.job_index];
        const double response = now - job.submit_s;
        response_stats.add(response);
        if (response > job.deadline_s + kEps) {
          ++metrics.sla_violations;
        }
        ++metrics.vms;
        if (cloud_.record_completions) {
          metrics.completions.push_back(VmCompletion{
              vm.vm_id, job.id, vm.profile, vm.server, job.submit_s,
              vm.start_s, now});
        }
        useful_work_s += vm.runtime_scale * solo_time(vm.profile);
        // Workflow release: the job's last VM frees its dependents.
        retire_vm_of_job(vm.job_index);
        fleet.remove_vm(vm.server, vm.profile);
        const int touched = vm.server;
        int abandoned_dest = -1;
        if (vm.migrating) {
          // The VM finished mid-copy: release the reservation.
          abandoned_dest = vm.dest_server;
          fleet.remove_vm(abandoned_dest, vm.profile);
        }
        running[i] = running.back();
        running.pop_back();
        refresh_server(touched);
        if (abandoned_dest >= 0) {
          refresh_server(abandoned_dest);
        }
      } else {
        ++i;
      }
    }

    if (fail_on) {
      // Expired degradation/brownout windows: reset and recompute rates.
      for (const int id : deadlines.windows_due(now + kEps)) {
        const auto s = static_cast<std::size_t>(id);
        bool expired = false;
        if (fleet.degrade_until[s] != -kInf &&
            fleet.degrade_until[s] <= now + kEps) {
          fleet.degrade_until[s] = -kInf;
          fleet.degrade_mult[s] = 1.0;
          expired = true;
        }
        if (fleet.brownout_until[s] != -kInf &&
            fleet.brownout_until[s] <= now + kEps) {
          fleet.brownout_until[s] = -kInf;
          fleet.brownout_cap_w[s] = kInf;
          expired = true;
        }
        if (expired && fleet.down[s] == 0) {
          refresh_server(id);
        }
      }
      // Due faults, then repairs (a crash with zero repair time comes
      // back — cold and empty — within the same instant).
      failure_schedule.pop_due(now, due_faults);
      for (const FailureEvent& event : due_faults) {
        apply_failure(event);
      }
      for (const int id : deadlines.repairs_due(now + kEps)) {
        const auto s = static_cast<std::size_t>(id);
        if (fleet.down[s] != 0 && fleet.repair_s[s] <= now + kEps) {
          fleet.repair(id);
          fleet.repair_s[s] = kInf;
          failure_schedule.on_repair(id, now);
        }
      }
      // Due ToR heals: the whole rack rejoins the allocator view at the
      // same instant and stalled residents resume at full rate. Servers
      // that crashed mid-isolation stay masked until their repair.
      if (topo != nullptr) {
        for (const int id : deadlines.heals_due(now + kEps)) {
          const auto r = static_cast<std::size_t>(id);
          if (tor_heal_s[r] == kInf || tor_heal_s[r] > now + kEps) {
            continue;
          }
          tor_heal_s[r] = kInf;
          for (const int server : topo->servers_on_tor(id)) {
            if (fleet.isolated[static_cast<std::size_t>(server)] == 0) {
              continue;
            }
            fleet.deisolate(server);
            if (fleet.down[static_cast<std::size_t>(server)] == 0) {
              refresh_server(server);
            }
          }
        }
      }
    }

    // Periodic migration sweep (catching up over idle gaps).
    if (mig.enabled && next_sweep <= now + kEps) {
      if (!running.empty()) {
        if (mig.trigger == MigrationConfig::Trigger::kThermal) {
          thermal_sweep();
        } else {
          consolidation_sweep();
        }
      }
      while (next_sweep <= now + kEps) {
        next_sweep += mig.check_interval_s;
      }
    }

    drain_queue();

    // Periodic checkpoint at the loop boundary. Deliberately *not* an
    // event source: inserting snapshot times into the interval min would
    // split `power*dt` / `rate*dt` accrual and change floating-point
    // summation order, breaking the snapshots-on vs. snapshots-off
    // bit-identity contract (gated by bench/snapshot_overhead).
    if (snap_on && now + kEps >= next_snapshot_due) {
      capture_snapshot();
      while (next_snapshot_due <= now + kEps) {
        next_snapshot_due += snap.every_s;
      }
    }
  }

  metrics.makespan_s = now - t0;
  metrics.mean_response_s = response_stats.mean();
  metrics.mean_wait_s = wait_stats.mean();
  metrics.mean_job_wait_s = job_wait_stats.mean();
  metrics.sla_violation_pct =
      metrics.vms > 0
          ? 100.0 * static_cast<double>(metrics.sla_violations) /
                static_cast<double>(metrics.vms)
          : 0.0;
  metrics.mean_busy_servers =
      metrics.makespan_s > 0.0 ? busy_server_time / metrics.makespan_s : 0.0;
  for (std::size_t s = 0; s < n_servers; ++s) {
    metrics.servers_powered +=
        (fleet.powered[s] != 0 || fleet.ever_powered[s] != 0) ? 1 : 0;
  }
  metrics.goodput_fraction =
      useful_work_s + metrics.lost_work_s > 0.0
          ? useful_work_s / (useful_work_s + metrics.lost_work_s)
          : 1.0;
  metrics.blast_radius_vms_mean =
      metrics.correlated_failures > 0
          ? blast_radius_vm_sum /
                static_cast<double>(metrics.correlated_failures)
          : 0.0;
  if (cloud_.obs != nullptr) {
    obs::MetricsRegistry& reg = cloud_.obs->metrics();
    reg.gauge("sim.makespan_s").set(metrics.makespan_s);
    reg.gauge("sim.energy_j").set(metrics.energy_j);
    reg.gauge("sim.sla_violation_pct").set(metrics.sla_violation_pct);
    reg.gauge("sim.lost_work_s").set(metrics.lost_work_s);
    reg.gauge("sim.goodput_fraction").set(metrics.goodput_fraction);
    reg.gauge("sim.lost_work_correlated_s")
        .set(metrics.lost_work_correlated_s);
    reg.gauge("sim.blast_radius_vms_mean").set(metrics.blast_radius_vms_mean);
    run_span.arg("strategy", allocator.name());
    run_span.arg("jobs", std::to_string(metrics.jobs));
    run_span.arg("vms", std::to_string(metrics.vms));
  }
  run_span.close(now);
  return metrics;
}

}  // namespace aeva::datacenter
