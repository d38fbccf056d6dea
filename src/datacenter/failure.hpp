#pragma once

/// \file failure.hpp
/// Fault injection & resilience model for the datacenter simulator.
///
/// The paper's evaluation (Sect. IV) assumes a fail-free cloud; production
/// energy-aware allocators cannot (Beloglazov et al.'s taxonomy treats
/// failure handling as first-class). This subsystem injects server-level
/// faults into the interval-accounting event loop:
///
///  * **crash** — the server powers off instantly, every resident VM is
///    lost, and the machine is masked from the allocator until its repair
///    completes (it returns cold: the wake-up premium is paid again);
///  * **degrade** — a transient slowdown: every VM on the server runs at a
///    multiplier of its modeled progress rate for a window (correctable
///    faults, noisy neighbours outside the model, throttling);
///  * **brownout** — a power-capped interval: the server's draw is clamped
///    to a watt budget and VM progress slows proportionally (DVFS-style).
///
/// On top of the independent per-server faults, a wired `Topology`
/// (datacenter/topology.hpp) unlocks **correlated failure domains**
/// (docs/RESILIENCE.md, "Correlated failure domains"):
///
///  * **pdu** — a power-feed fault crashes every server on the feed in a
///    single event; all of them share one repair window and return
///    together (cold);
///  * **tor** — a top-of-rack switch fault isolates its rack: resident
///    VMs stall (progress frozen, not lost) and the rack's servers are
///    masked from the allocator until the switch heals, when every
///    resident resumes at once.
///
/// Faults come from a deterministic script, from seeded per-server
/// MTBF/MTTR exponential sampling, or both. Per-server sampling draws
/// from the dedicated `util::named_stream(seed, "failures")` stream and
/// domain sampling from `util::named_stream(seed, "domain-failures")`
/// (one forked substream per PDU feed, then per ToR switch), so enabling
/// failures — or adding domain faults to a run that already samples
/// per-server crashes — can never perturb trace generation or any other
/// consumer of the experiment seed; with `FailureConfig::enabled ==
/// false` the simulator's behaviour is bit-identical to the fail-free
/// model. Every batch of simultaneous faults is emitted in the canonical
/// (time, domain/server, kind) order, so replays are bit-stable no
/// matter which source produced each event.
///
/// Lost VMs re-enter the queue under a recovery policy: restart from zero,
/// periodic-checkpoint restart (resume at the last checkpoint boundary,
/// paying a checkpoint-I/O progress tax while running), or abandon after N
/// retries. docs/RESILIENCE.md specifies the semantics in full.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace aeva::datacenter {

class Topology;

/// Fault taxonomy. The first three target one server; the domain kinds
/// target a whole failure domain and require a wired Topology.
enum class FailureKind {
  kCrash,     ///< server off, VMs lost, masked until repair
  kDegrade,   ///< progress-rate multiplier for a window
  kBrownout,  ///< power-capped interval (proportional slowdown)
  kPduFault,  ///< power feed out: every server on it crashes at once
  kTorFault,  ///< rack switch out: residents stall until the heal
};

[[nodiscard]] constexpr const char* to_string(FailureKind kind) noexcept {
  switch (kind) {
    case FailureKind::kCrash: return "crash";
    case FailureKind::kDegrade: return "degrade";
    case FailureKind::kBrownout: return "brownout";
    case FailureKind::kPduFault: return "pdu";
    case FailureKind::kTorFault: return "tor";
  }
  return "?";
}

/// One scheduled fault.
struct FailureEvent {
  FailureKind kind = FailureKind::kCrash;
  /// Target server index — or, for the domain kinds, the PDU feed index
  /// (kPduFault) / ToR switch index (kTorFault). The same field doubles
  /// as the second key of the canonical (time, domain/server, kind)
  /// event order.
  int server = 0;
  double at_s = 0.0;    ///< absolute simulation time (same clock as submits)
  /// Crash/pdu: repair time (masked window). Degrade/brownout/tor:
  /// window length.
  double duration_s = 0.0;
  /// Degrade: progress-rate multiplier in (0, 1]. Brownout: power cap in
  /// Watts (> 0). Ignored for crashes and domain faults.
  double magnitude = 1.0;
};

/// Canonical fault order: (time, domain/server, kind). Simultaneous
/// faults apply in exactly this order regardless of whether they came
/// from the script or a sampler, which is what makes replays of a fault
/// batch bit-stable (tests/datacenter/failure_test.cpp pins this).
[[nodiscard]] constexpr bool canonical_event_order(
    const FailureEvent& a, const FailureEvent& b) noexcept {
  if (a.at_s != b.at_s) {
    return a.at_s < b.at_s;
  }
  if (a.server != b.server) {
    return a.server < b.server;
  }
  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
}

/// What happens to a VM lost in a crash.
enum class RecoveryPolicy {
  kRestartFromZero,    ///< all progress lost; the VM re-queues at work = 0
  kCheckpointRestart,  ///< resume from the last periodic checkpoint
  kAbandonAfterRetries,///< restart from zero at most `max_retries` times
};

[[nodiscard]] constexpr const char* to_string(RecoveryPolicy policy) noexcept {
  switch (policy) {
    case RecoveryPolicy::kRestartFromZero: return "restart-from-zero";
    case RecoveryPolicy::kCheckpointRestart: return "checkpoint-restart";
    case RecoveryPolicy::kAbandonAfterRetries: return "abandon-after-retries";
  }
  return "?";
}

/// Recovery tuning.
struct RecoveryConfig {
  RecoveryPolicy policy = RecoveryPolicy::kRestartFromZero;
  /// Checkpoint-restart: wall-clock period between per-VM checkpoints,
  /// counted from the VM's (re)start instant.
  double checkpoint_period_s = 900.0;
  /// Checkpoint-restart: fraction of progress rate lost to checkpoint I/O
  /// while the VM runs (the progress tax), in [0, 1).
  double checkpoint_tax = 0.02;
  /// Abandon-after-retries: a VM is dropped once it has been restarted
  /// this many times and is lost again (>= 0; 0 drops on the first loss).
  int max_retries = 3;
};

/// Correlated-domain fault sampling (requires FailureConfig::topology).
/// Both processes are exponential MTBF/MTTR like the per-server sampler,
/// but drawn from the dedicated "domain-failures" named stream so wiring
/// them up cannot shift any per-server draw.
struct DomainFailureConfig {
  /// Mean time between faults per PDU feed, seconds. 0 disables PDU
  /// sampling (scripted pdu events still apply).
  double pdu_mtbf_s = 0.0;
  /// Mean repair time of a PDU fault (every server on the feed shares
  /// the window), seconds.
  double pdu_mttr_s = 7200.0;
  /// Mean time between faults per ToR switch, seconds. 0 disables ToR
  /// sampling.
  double tor_mtbf_s = 0.0;
  /// Mean isolation window of a ToR fault, seconds.
  double tor_mttr_s = 1800.0;
};

/// Fault-injection configuration, carried by CloudConfig. Disabled by
/// default; when disabled every other field is inert and the simulator is
/// bit-identical to the fail-free model.
struct FailureConfig {
  bool enabled = false;
  /// Deterministic scripted fault trace (applied in time order; see also
  /// parse_failure_script for the on-disk format).
  std::vector<FailureEvent> script;
  /// Per-server mean time between sampled crashes, seconds. 0 disables
  /// stochastic sampling (scripted faults only).
  double mtbf_s = 0.0;
  /// Mean time to repair for sampled crashes (exponential), seconds.
  double mttr_s = 1800.0;
  /// Seed of the dedicated "failures" / "domain-failures" sampling
  /// streams.
  std::uint64_t seed = 2026;
  RecoveryConfig recovery;
  /// Rack/PDU/ToR map of the fleet (not owned; must outlive the run).
  /// Required by domain faults — scripted or sampled — and by nothing
  /// else: a null topology with no domain faults behaves exactly as
  /// before the field existed.
  const Topology* topology = nullptr;
  DomainFailureConfig domains;

  /// Validates ranges, that every scripted event targets a server (or
  /// domain) in range, and that `topology` — when present — covers
  /// exactly `server_count` servers. Throws std::invalid_argument.
  void validate(int server_count) const;
};

/// Merged, time-ordered fault source: scripted events plus lazily sampled
/// per-server crashes. One instance per simulation run.
class FailureSchedule {
 public:
  /// `config` must outlive the schedule and already be validated;
  /// `start_s` is the simulation start (first submission).
  FailureSchedule(const FailureConfig& config, int server_count,
                  double start_s);

  /// Time of the earliest pending fault, or +infinity when none.
  [[nodiscard]] double next_time() const noexcept;

  /// Pops every fault due at or before `now` into `out`, which is
  /// cleared first — hot callers hand in a reused scratch buffer so a
  /// fault-free event costs no heap allocation. The batch is emitted in
  /// the canonical (time, domain/server, kind) order whatever mix of
  /// script, per-server sampling, and domain sampling produced it.
  void pop_due(double now, std::vector<FailureEvent>& out);

  /// Convenience overload materializing a fresh vector (tests, cold paths).
  [[nodiscard]] std::vector<FailureEvent> pop_due(double now) {
    std::vector<FailureEvent> due;
    pop_due(now, due);
    return due;
  }

  /// Suppresses sampled crashes for a server that just went down.
  void on_crash(int server);

  /// Re-arms sampling for a repaired server from its repair instant.
  void on_repair(int server, double repair_s);

  /// Mutable schedule state for checkpoint/restore (src/persist/). The
  /// script itself is re-derived from the config on construction, so only
  /// the cursors and sampling state need to travel.
  struct State {
    std::size_t script_next = 0;
    std::vector<util::Rng::State> streams;
    std::vector<double> sampled_next;
    std::vector<util::Rng::State> pdu_streams;
    std::vector<double> pdu_next;
    std::vector<util::Rng::State> tor_streams;
    std::vector<double> tor_next;
  };

  /// Captures the mutable state.
  [[nodiscard]] State state() const;

  /// Restores state captured from a schedule built with an identical
  /// config; throws std::invalid_argument when the per-server or
  /// per-domain vectors do not match this schedule's shape.
  void restore(const State& state);

 private:
  std::vector<FailureEvent> script_;   ///< canonical event order
  std::size_t script_next_ = 0;
  std::vector<util::Rng> streams_;     ///< one sampling stream per server
  std::vector<double> sampled_next_;   ///< +inf while down or unsampled
  double mtbf_s_ = 0.0;
  double mttr_s_ = 0.0;
  // Domain sampling (empty unless a topology with a sampled process is
  // wired). Unlike per-server crashes, domain processes re-arm at pop
  // time — next = heal instant + exp(mtbf) — which is equivalent to
  // re-arming at the heal because nothing else touches these streams.
  std::vector<util::Rng> pdu_streams_;
  std::vector<double> pdu_next_;
  std::vector<util::Rng> tor_streams_;
  std::vector<double> tor_next_;
  double pdu_mtbf_s_ = 0.0;
  double pdu_mttr_s_ = 0.0;
  double tor_mtbf_s_ = 0.0;
  double tor_mttr_s_ = 0.0;
};

/// The failure-window deadlines of one simulation run — repair instants,
/// degradation/brownout window ends and ToR heal instants — kept in binary
/// min-heaps with lazy invalidation, so the event loop finds the next
/// deadline, and the due ones, without scanning the fleet. The caller sets
/// a deadline field and then reports it here, which pushes (time, id); an
/// entry stays live only while the field it names still holds that time,
/// so overwritten and cleared deadlines drop out when they surface. The
/// columns are the caller's per-server (and per-switch) fields, read in
/// place: they must outlive this object.
class WindowDeadlines {
 public:
  struct Columns {
    const std::vector<std::uint8_t>* down = nullptr;
    const std::vector<double>* repair_s = nullptr;
    const std::vector<double>* degrade_until = nullptr;
    const std::vector<double>* brownout_until = nullptr;
    const std::vector<double>* tor_heal_s = nullptr;  ///< per switch
  };

  explicit WindowDeadlines(Columns columns) : columns_(columns) {}

  /// Sizes every buffer for the columns once, so steady events never
  /// allocate (callers skip it when failures are off).
  void reserve();

  /// Deadline set: the server's repair_s, its degrade_until or
  /// brownout_until (`until`), or the switch's heal instant.
  void on_repair(int server);
  void on_window(int server, double until);
  void on_heal(int tor);

  /// Re-derives every entry from the columns (snapshot restore).
  void rebuild();

  /// The earliest deadline still ahead: any live repair or heal, or a
  /// window end strictly after `now` — the value a scan of the columns
  /// finds. A window that ended at or before `now` (opened with a zero
  /// duration) is no event; the next windows_due() reports it.
  [[nodiscard]] double next(double now);

  /// Servers whose degrade or brownout window may have ended by
  /// `horizon`, repairs due by `horizon`, and switches due to heal by
  /// `horizon` — each ascending and distinct, valid until the next call
  /// of any of the three. Callers re-check the fields.
  [[nodiscard]] const std::vector<int>& windows_due(double horizon);
  [[nodiscard]] const std::vector<int>& repairs_due(double horizon);
  [[nodiscard]] const std::vector<int>& heals_due(double horizon);

 private:
  struct Entry {
    double time = 0.0;
    int id = 0;
  };
  enum class Kind { kWindow, kRepair, kHeal };

  [[nodiscard]] bool live(Kind kind, const Entry& entry) const;
  void push(std::vector<Entry>& heap, double time, int id);
  void pop(std::vector<Entry>& heap);
  /// Drops dead entries off the top; the live top's time, or +inf.
  [[nodiscard]] double earliest_live(Kind kind, std::vector<Entry>& heap);
  /// Pops every entry due by `horizon` into `out` (live ones only), then
  /// sorts `out` and drops repeats.
  void pop_due(Kind kind, std::vector<Entry>& heap, double horizon,
               std::vector<int>& out);

  Columns columns_;
  std::vector<Entry> windows_;  ///< degrade and brownout ends
  std::vector<Entry> repairs_;
  std::vector<Entry> heals_;
  std::vector<int> passed_;     ///< window ends next() stepped over
  std::vector<int> due_;
};

/// Parses a scripted failure trace. Format, one event per line:
///
///     # comment (also ';')
///     crash    <server> <at_s> <repair_s>
///     degrade  <server> <at_s> <window_s> <rate-multiplier>
///     brownout <server> <at_s> <window_s> <cap_w>
///     pdu      <feed>   <at_s> <repair_s>
///     tor      <switch> <at_s> <window_s>
///
/// Domain lines name a PDU feed / ToR switch of the run's Topology
/// (bounds checked at FailureConfig::validate time, when the topology is
/// known). Throws std::invalid_argument on malformed input (unknown
/// kind, wrong arity, non-finite numbers, out-of-range magnitudes).
[[nodiscard]] std::vector<FailureEvent> parse_failure_script(std::istream& in);
[[nodiscard]] std::vector<FailureEvent> parse_failure_script(
    const std::string& text);

/// Reads a script file; std::runtime_error when unreadable.
[[nodiscard]] std::vector<FailureEvent> read_failure_script_file(
    const std::string& path);

/// Writes events in the parse_failure_script format (round-trippable).
void write_failure_script(std::ostream& out,
                          const std::vector<FailureEvent>& events);

}  // namespace aeva::datacenter
