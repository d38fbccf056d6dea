#pragma once

/// \file simulator.hpp
/// Trace-driven datacenter (cloud) simulator — the paper's evaluation
/// vehicle (Sect. IV).
///
/// A cloud of identical testbed-class servers executes a prepared workload
/// under a pluggable allocation strategy. Time and energy are accounted
/// from the empirical model database per allocation interval, following
/// Fig. 4: whenever a server's VM mix changes, a new interval starts; a VM
/// progresses through interval i at rate 1 / (scale · t̂_i), where t̂_i is
/// the database's estimated execution time for the VM's class under the
/// interval's mix, and a server's power during the interval is the
/// database record's mean power. A server powers on the first time a VM is
/// placed on it and then stays on until the run ends, dissipating the
/// fixed 125 W baseline whenever it hosts no VMs (Sect. IV-A). Strategies
/// that consolidate therefore genuinely save energy by never waking part
/// of the cloud — and the over-dimensioned LARGER cloud consumes *more*
/// energy despite finishing sooner, exactly as the paper observes, because
/// its strategies spread load across more servers.
///
/// Scheduling is FCFS with all-or-nothing admission per job request; the
/// paper's scheduling/provisioning overheads are deliberately not modeled
/// ("we do not consider the overhead for scheduling and resource
/// provisioning").

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/types.hpp"
#include "datacenter/failure.hpp"
#include "modeldb/database.hpp"
#include "obs/session.hpp"
#include "thermal/thermal_model.hpp"
#include "trace/prepare.hpp"

namespace aeva::persist {
struct SimSnapshot;
}  // namespace aeva::persist

namespace aeva::datacenter {

/// Reactive consolidation via live VM migration — the dynamic techniques
/// of the paper's related work ([2], [3], [8]): periodically sweep for
/// under-utilized servers and migrate their VMs onto busier compatible
/// machines so the sources can power down. Migration is costly: the VM
/// runs degraded while its memory is copied, both machines host it for
/// the transfer, and the stop-and-copy phase loses a slice of progress.
struct MigrationConfig {
  bool enabled = false;
  /// What the periodic sweep reacts to.
  enum class Trigger {
    /// Under-utilized servers are drained so they can power down
    /// (energy-driven consolidation, [2]).
    kConsolidation,
    /// Servers whose predicted inlet temperature crosses the redline shed
    /// VMs toward cool machines — the reactive thermal management via VM
    /// migration of the authors' prior work [3]. Requires `thermal_map`.
    kThermal,
  };
  Trigger trigger = Trigger::kConsolidation;
  /// Thermal topology for the kThermal trigger (non-owning; must outlive
  /// the simulation). Its inlet redline is taken from the map's config.
  const thermal::ThermalMap* thermal_map = nullptr;
  /// Consolidation sweep period (seconds).
  double check_interval_s = 900.0;
  /// Servers hosting at most this many VMs are eviction candidates.
  int evict_below_vms = 2;
  /// At most this many VMs in flight per sweep.
  int max_concurrent = 8;
  /// Live-migration transfer bandwidth (MB/s of the shared network).
  double transfer_mbps = 30.0;
  /// Progress multiplier while the VM is being copied.
  double degradation = 0.8;
  /// Fraction of total work lost to the stop-and-copy downtime.
  double downtime_work_fraction = 0.01;
};

/// Process-level durability (docs/RESILIENCE.md, "Process-level
/// durability"): periodically capture the complete simulator state so a
/// killed run can be resumed bit-identically. Snapshots are taken at
/// event-loop boundaries — never by inserting events — so enabling them
/// cannot perturb the simulation: metrics are bit-identical with
/// snapshotting on or off (gated by bench/snapshot_overhead).
struct SnapshotConfig {
  /// Minimum simulated seconds between snapshots; <= 0 disables
  /// snapshotting entirely.
  double every_s = 0.0;
  /// Snapshot file, atomically replaced at every checkpoint (temp file +
  /// fsync + rename); empty → no file is written (hook-only capture).
  std::string path;
  /// Optional in-process consumer, invoked with every captured snapshot
  /// after the file write; tests and drivers use it to collect
  /// checkpoints without touching the filesystem.
  std::function<void(const persist::SimSnapshot&)> hook;
};

/// The simulated cloud.
struct CloudConfig {
  int server_count = 60;        ///< SMALLER reference size
  double idle_power_w = 125.0;  ///< fixed draw of a powered-on idle server
  /// Hardware class per server (heterogeneous-fleet extension); empty →
  /// every server is class 0. When non-empty, the size must equal
  /// `server_count` and each entry must index a model database handed to
  /// the simulator.
  std::vector<int> hardware;
  /// Reactive-consolidation policy (disabled by default).
  MigrationConfig migration;
  /// Fault injection & recovery (disabled by default; when disabled the
  /// run is bit-identical to the fail-free model — see failure.hpp).
  FailureConfig failure;
  /// Queue discipline: 0 → strict FCFS (the paper's setup). A positive
  /// value enables simple backfilling — when the head-of-line job cannot
  /// be placed, up to this many younger queued jobs may jump ahead if the
  /// strategy can place them. (No reservations: small jobs can in theory
  /// delay the head, the classic aggressive-backfill tradeoff.)
  int backfill_window = 0;
  /// Record one VmCompletion per VM in SimMetrics::completions (off by
  /// default — 10k records per run are only worth paying for when a
  /// distribution analysis consumes them).
  bool record_completions = false;
  /// Observability session (docs/OBSERVABILITY.md). Null (the default)
  /// disables all metric and trace emission from the simulator; a run is
  /// bit-identical either way — the session only records what happened.
  std::shared_ptr<obs::Session> obs;
  /// Periodic checkpointing of the simulator state (disabled by default;
  /// enabling it never changes the simulation — see SnapshotConfig).
  SnapshotConfig snapshot;
};

/// One VM's lifecycle record (emitted when `record_completions` is set).
struct VmCompletion {
  std::int64_t vm_id = 0;
  long long job_id = 0;
  workload::ProfileClass profile{};
  int server = 0;
  double submit_s = 0.0;
  double start_s = 0.0;   ///< allocation instant
  double finish_s = 0.0;

  [[nodiscard]] double response_s() const noexcept {
    return finish_s - submit_s;
  }
  [[nodiscard]] double wait_s() const noexcept { return start_s - submit_s; }
};

/// Aggregate run metrics (Sect. IV-C).
struct SimMetrics {
  double makespan_s = 0.0;  ///< earliest submission → latest completion
  double energy_j = 0.0;    ///< total cloud energy over the makespan
  double sla_violation_pct = 0.0;  ///< % of VMs missing their deadline

  std::size_t jobs = 0;
  std::size_t vms = 0;
  std::size_t sla_violations = 0;
  double mean_response_s = 0.0;   ///< completion − submission, mean over VMs
  /// Allocation − submission, averaged over *VMs*: a 16-VM job admitted
  /// after a long wait contributes 16 samples, so the mean is capacity-
  /// weighted — "how long did the average requested VM wait". Kept as the
  /// primary published metric (reports and goldens depend on it).
  double mean_wait_s = 0.0;
  /// Allocation − submission, averaged over *jobs*: one sample per
  /// admitted job regardless of its VM count — "how long did the average
  /// submitter wait". Diverges from mean_wait_s whenever wide jobs queue
  /// differently from narrow ones.
  double mean_job_wait_s = 0.0;
  double mean_busy_servers = 0.0; ///< time-averaged count of busy servers
  double peak_busy_servers = 0.0;
  std::size_t servers_powered = 0;  ///< servers that ever hosted a VM
  std::size_t migrations = 0;       ///< live migrations performed
  double migration_transfer_s = 0.0;  ///< total time VMs spent in flight

  // --- resilience (populated only when CloudConfig::failure is enabled) ---
  std::size_t failures = 0;     ///< server crashes applied
  std::size_t vm_restarts = 0;  ///< lost VMs successfully re-placed
  std::size_t vms_abandoned = 0;  ///< VMs dropped after exhausting retries
  /// Canonical-solo-time-equivalent seconds of computation destroyed by
  /// crashes (progress beyond the resume point × runtime_scale × the
  /// class's class-0 solo time). Checkpointed progress is not lost work.
  double lost_work_s = 0.0;
  /// useful / (useful + lost), where useful is the same solo-equivalent
  /// measure summed over completed VMs. 1.0 in a fail-free run.
  double goodput_fraction = 1.0;
  // --- correlated failure domains (docs/RESILIENCE.md; requires a wired
  // FailureConfig::topology) ----------------------------------------------
  /// Correlated domain faults applied: PDU feed faults (every server on
  /// the feed crashes at once) plus ToR isolations (the rack stalls).
  std::size_t correlated_failures = 0;
  /// Largest blast radius of one correlated fault, in resident VMs
  /// (crashed by the PDU fault or stalled by the ToR isolation).
  std::size_t blast_radius_vms_max = 0;
  /// Mean blast radius over all correlated faults (0 when none fired).
  double blast_radius_vms_mean = 0.0;
  /// Portion of lost_work_s destroyed by correlated (PDU) faults — ToR
  /// isolation stalls work but destroys none.
  double lost_work_correlated_s = 0.0;
  /// Requests placed via an allocator's degradation fallback
  /// (AllocationPath::kFallbackFirstFit).
  std::size_t fallback_allocations = 0;
  /// Allocator rejection events tallied by reason (index =
  /// core::RejectReason value); includes transient rejections of jobs
  /// that were later placed on retry. datacenter_sim renders this with
  /// each reason's retryable/terminal classification.
  std::array<std::size_t, core::kRejectReasonCount> rejects_by_reason{};
  /// Per-VM lifecycle records; populated only with
  /// CloudConfig::record_completions.
  std::vector<VmCompletion> completions;
};

/// Event-driven cloud simulator. One instance per database + cloud size;
/// `run` is const and reentrant.
class Simulator {
 public:
  /// Homogeneous cloud; the database must outlive the simulator.
  Simulator(const modeldb::ModelDatabase& db, CloudConfig cloud);

  /// Heterogeneous cloud: one empirical model per hardware class, indexed
  /// by `cloud.hardware`. All databases must outlive the simulator.
  Simulator(std::vector<const modeldb::ModelDatabase*> dbs,
            CloudConfig cloud);

  /// Optional per-interval observer: invoked with (interval start,
  /// interval end, instantaneous power per server in Watts) for every
  /// constant-allocation interval. Used by the thermal substrate to track
  /// inlet temperatures without coupling the simulator to it. The power
  /// vector is the simulator's live per-server column: read it during the
  /// call, copy it to keep it.
  using IntervalObserver =
      std::function<void(double, double, const std::vector<double>&)>;

  /// Executes the workload under the given strategy and returns the
  /// metrics. Throws std::invalid_argument on an empty workload and
  /// std::runtime_error if the strategy permanently starves the queue.
  [[nodiscard]] SimMetrics run(const trace::PreparedWorkload& workload,
                               const core::Allocator& allocator,
                               const IntervalObserver& observer = {}) const;

  /// Continues a previously snapshotted run of the *same* workload under
  /// the *same* cloud configuration and allocator, and returns the final
  /// metrics — bit-identical, field for field, to what the uninterrupted
  /// run would have returned. Throws persist::SnapshotMismatchError when
  /// the snapshot does not belong to this (workload, cloud, allocator)
  /// triple or carries out-of-range state.
  [[nodiscard]] SimMetrics resume(const trace::PreparedWorkload& workload,
                                  const core::Allocator& allocator,
                                  const persist::SimSnapshot& snapshot,
                                  const IntervalObserver& observer = {}) const;

  [[nodiscard]] const CloudConfig& cloud() const noexcept { return cloud_; }

 private:
  [[nodiscard]] const modeldb::ModelDatabase& db_of(int hardware) const {
    return *dbs_[static_cast<std::size_t>(hardware)];
  }

  [[nodiscard]] SimMetrics run_impl(const trace::PreparedWorkload& workload,
                                    const core::Allocator& allocator,
                                    const IntervalObserver& observer,
                                    const persist::SimSnapshot* restore) const;

  std::vector<const modeldb::ModelDatabase*> dbs_;
  CloudConfig cloud_;
};

}  // namespace aeva::datacenter
