#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <utility>

#include "core/incremental.hpp"
#include "datacenter/topology.hpp"
#include "util/error.hpp"

namespace aeva::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Canonical same-instant event ordering (documented contract): repairs
/// return capacity first, releases free it next, the in-flight decision
/// commits before new work is considered, and arrivals go last (scheduled
/// retries before fresh stream arrivals — the stream is drained after the
/// heap at every instant).
enum EventKind : int {
  kRepairEvent = 0,
  kReleaseEvent = 1,
  kDecisionDoneEvent = 2,
  kArrivalEvent = 3,
};

struct Event {
  double t = 0.0;
  int kind = kArrivalEvent;
  std::uint64_t seq = 0;
  // Payload (by kind): repair → server; release → group; arrival →
  // request + attempt. Decision-done carries no payload (the single
  // in-flight slot holds it).
  std::int32_t server = -1;
  std::int64_t group = -1;
  ServeRequest request;
  std::int32_t attempt = 0;
};

/// Min-heap order on (t, kind, seq).
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.t != b.t) return a.t > b.t;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.seq > b.seq;
  }
};

struct Resident {
  int klass = 0;
  workload::ProfileClass profile{};
  double qos_time_s = kInf;
  double release_s = kInf;
  std::vector<std::int32_t> servers;
};

struct InFlight {
  ServeRequest request;
  std::int32_t attempt = 0;
  double enqueue_s = 0.0;
  double started_s = 0.0;
  core::AllocationResult result;
  ServeMode mode = ServeMode::kNormal;
};

struct QueuedEntry {
  ServeRequest request;
  double enqueue_s = 0.0;
  std::int32_t attempt = 0;
};

/// Pre-resolved metric handles; all null when obs is disabled so the hot
/// path pays one pointer test per site (the SimObs pattern).
struct ServeObs {
  obs::Counter* arrivals = nullptr;
  obs::Counter* admitted = nullptr;
  obs::Counter* placed = nullptr;
  obs::Counter* rejected = nullptr;
  obs::Counter* sheds = nullptr;
  obs::Counter* expired = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* breaker_trips = nullptr;
  obs::Counter* breaker_rearms = nullptr;
  obs::Counter* crashes = nullptr;
  obs::Counter* restarts = nullptr;
  obs::Counter* incremental_decisions = nullptr;
  obs::Counter* oracle_checks = nullptr;
  obs::Counter* oracle_divergences = nullptr;
  obs::Counter* fleet_resyncs = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* mode = nullptr;
  obs::Histogram* decision_latency = nullptr;

  void resolve(obs::Session* session) {
    if (session == nullptr) {
      return;
    }
    obs::MetricsRegistry& reg = session->metrics();
    arrivals = &reg.counter("serve.arrivals");
    admitted = &reg.counter("serve.admitted");
    placed = &reg.counter("serve.placed");
    rejected = &reg.counter("serve.rejected");
    sheds = &reg.counter("serve.sheds");
    expired = &reg.counter("serve.deadline.expired");
    retries = &reg.counter("serve.retries");
    breaker_trips = &reg.counter("serve.breaker.trips");
    breaker_rearms = &reg.counter("serve.breaker.rearms");
    crashes = &reg.counter("serve.crashes");
    restarts = &reg.counter("serve.restarts");
    incremental_decisions = &reg.counter("serve.incremental.decisions");
    oracle_checks = &reg.counter("serve.incremental.oracle_checks");
    oracle_divergences = &reg.counter("serve.incremental.divergences");
    fleet_resyncs = &reg.counter("serve.incremental.resyncs");
    queue_depth = &reg.gauge("serve.queue.depth");
    mode = &reg.gauge("serve.mode");
    decision_latency = &reg.histogram(
        "serve.decision.latency_s",
        {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
         5.0});
  }
};

/// Result equality for the oracle cross-check (the incremental planner
/// labels its successful primary searches kIncremental; everything else
/// must agree verbatim, doubles bitwise).
[[nodiscard]] bool plans_equal(const core::AllocationResult& a,
                               const core::AllocationResult& b) {
  const auto norm = [](core::AllocationPath path) {
    return path == core::AllocationPath::kIncremental
               ? core::AllocationPath::kPrimary
               : path;
  };
  if (a.complete != b.complete || a.satisfied_qos != b.satisfied_qos ||
      a.partitions_examined != b.partitions_examined ||
      norm(a.outcome.path) != norm(b.outcome.path) ||
      a.outcome.reason != b.outcome.reason ||
      a.outcome.search_truncated != b.outcome.search_truncated ||
      a.score.est_time_s != b.score.est_time_s ||
      a.score.est_energy_j != b.score.est_energy_j ||
      a.score.combined != b.score.combined ||
      a.placements.size() != b.placements.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    if (a.placements[i].vm_id != b.placements[i].vm_id ||
        a.placements[i].server_id != b.placements[i].server_id) {
      return false;
    }
  }
  return true;
}

void append_json_number(std::string& out, double value) {
  if (std::isinf(value)) {
    out += value > 0 ? "1e999" : "-1e999";
    return;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

}  // namespace

void ServeConfig::validate() const {
  AEVA_REQUIRE(server_count > 0, "server_count must be positive, got ",
               server_count);
  AEVA_REQUIRE(degraded_multiplex >= 1,
               "degraded_multiplex must be >= 1, got ", degraded_multiplex);
  AEVA_REQUIRE(queue.capacity > 0, "queue capacity must be positive");
  AEVA_REQUIRE(deadline.initial_latency_s >= 0.0 &&
                   std::isfinite(deadline.initial_latency_s),
               "initial latency estimate must be finite and >= 0");
  AEVA_REQUIRE(deadline.ewma_alpha > 0.0 && deadline.ewma_alpha <= 1.0,
               "ewma_alpha must be in (0, 1], got ", deadline.ewma_alpha);
  AEVA_REQUIRE(health.queue_low <= health.queue_high,
               "queue watermarks inverted: low ", health.queue_low,
               " > high ", health.queue_high);
  AEVA_REQUIRE(health.latency_low_s <= health.latency_high_s,
               "latency watermarks inverted: low ", health.latency_low_s,
               " > high ", health.latency_high_s);
  AEVA_REQUIRE(health.trip_after >= 1, "trip_after must be >= 1, got ",
               health.trip_after);
  AEVA_REQUIRE(health.rearm_after >= 1, "rearm_after must be >= 1, got ",
               health.rearm_after);
  AEVA_REQUIRE(health.min_class_when_shedding >= 0 &&
                   health.min_class_when_shedding <= kClassCount,
               "min_class_when_shedding out of range: ",
               health.min_class_when_shedding);
  AEVA_REQUIRE(retry.max_attempts >= 0, "max_attempts must be >= 0, got ",
               retry.max_attempts);
  AEVA_REQUIRE(retry.base_s > 0.0 && std::isfinite(retry.base_s),
               "retry base must be positive and finite");
  AEVA_REQUIRE(retry.multiplier >= 1.0, "retry multiplier must be >= 1");
  AEVA_REQUIRE(retry.cap_s >= retry.base_s,
               "retry cap must be >= base, got ", retry.cap_s);
  AEVA_REQUIRE(retry.jitter >= 0.0 && retry.jitter <= 1.0,
               "retry jitter must be in [0, 1], got ", retry.jitter);
  AEVA_REQUIRE(cost.base_s > 0.0 && std::isfinite(cost.base_s),
               "decision base cost must be positive and finite");
  AEVA_REQUIRE(cost.per_partition_s >= 0.0 &&
                   std::isfinite(cost.per_partition_s),
               "per-partition cost must be finite and >= 0");
  AEVA_REQUIRE(cost.degraded_s > 0.0 && std::isfinite(cost.degraded_s),
               "degraded decision cost must be positive and finite");
  AEVA_REQUIRE(cost.incremental_s > 0.0 && std::isfinite(cost.incremental_s),
               "incremental decision cost must be positive and finite");
  AEVA_REQUIRE(incremental.oracle_every_s >= 0.0 &&
                   std::isfinite(incremental.oracle_every_s),
               "oracle period must be finite and >= 0, got ",
               incremental.oracle_every_s);
  AEVA_REQUIRE(incremental.drift_watermark >= 1,
               "drift watermark must be >= 1, got ",
               incremental.drift_watermark);
  AEVA_REQUIRE(snapshot.every_s >= 0.0, "snapshot period must be >= 0");
  if (failure.enabled) {
    failure.validate(server_count);
    // Serve has no progress model: a ToR fault's stall-without-loss
    // semantics cannot be honoured, so reject rather than misrepresent.
    AEVA_REQUIRE(failure.domains.tor_mtbf_s == 0.0,
                 "serve mode does not support ToR fault sampling; "
                 "set domains.tor_mtbf_s = 0");
    for (const datacenter::FailureEvent& ev : failure.script) {
      AEVA_REQUIRE(ev.kind != datacenter::FailureKind::kTorFault,
                   "serve mode does not support scripted ToR faults "
                   "(switch ", ev.server, " at t=", ev.at_s, ")");
    }
  }
}

AllocationService::AllocationService(const modeldb::ModelDatabase& db,
                                     ServeConfig config)
    : config_(std::move(config)),
      db_(&db),
      primary_(db,
               [this] {
                 // The primary chain shares the service's obs session
                 // unless the caller wired its own.
                 core::ProactiveConfig pc = config_.proactive;
                 if (pc.obs == nullptr) {
                   pc.obs = config_.obs;
                 }
                 return pc;
               }()),
      degraded_(config_.degraded_multiplex) {
  config_.validate();
}

std::uint64_t AllocationService::config_fingerprint() const {
  persist::Fingerprint fp;
  fp.mix_string("serve-config-v2");
  fp.mix(static_cast<std::uint64_t>(config_.server_count));
  const core::ProactiveConfig& pa = config_.proactive;
  fp.mix(static_cast<std::uint64_t>(pa.goal));
  fp.mix_double(pa.alpha);
  fp.mix(pa.enforce_qos ? 1 : 0);
  fp.mix(pa.fallback_best_effort ? 1 : 0);
  fp.mix(pa.max_partitions);
  fp.mix(static_cast<std::uint64_t>(pa.server_vm_cap));
  fp.mix(pa.degrade_to_first_fit ? 1 : 0);
  fp.mix(static_cast<std::uint64_t>(pa.fallback_multiplex));
  // Search-execution knobs are deliberately excluded: they never change
  // allocation results, so a resumed process may use a different thread
  // count (same policy as the simulator's config fingerprint).
  fp.mix(static_cast<std::uint64_t>(config_.degraded_multiplex));
  fp.mix(config_.queue.capacity);
  fp.mix(static_cast<std::uint64_t>(config_.queue.policy));
  fp.mix(config_.deadline.enforce ? 1 : 0);
  fp.mix_double(config_.deadline.initial_latency_s);
  fp.mix_double(config_.deadline.ewma_alpha);
  fp.mix(config_.health.enabled ? 1 : 0);
  fp.mix_double(config_.health.queue_high);
  fp.mix_double(config_.health.queue_low);
  fp.mix_double(config_.health.latency_high_s);
  fp.mix_double(config_.health.latency_low_s);
  fp.mix(static_cast<std::uint64_t>(config_.health.trip_after));
  fp.mix(static_cast<std::uint64_t>(config_.health.rearm_after));
  fp.mix(static_cast<std::uint64_t>(config_.health.min_class_when_shedding));
  fp.mix(config_.retry.enabled ? 1 : 0);
  fp.mix(static_cast<std::uint64_t>(config_.retry.max_attempts));
  fp.mix_double(config_.retry.base_s);
  fp.mix_double(config_.retry.multiplier);
  fp.mix_double(config_.retry.cap_s);
  fp.mix_double(config_.retry.jitter);
  fp.mix_double(config_.cost.base_s);
  fp.mix_double(config_.cost.per_partition_s);
  fp.mix_double(config_.cost.degraded_s);
  fp.mix_double(config_.cost.incremental_s);
  fp.mix(config_.incremental.enabled ? 1 : 0);
  fp.mix_double(config_.incremental.oracle_every_s);
  fp.mix(config_.incremental.oracle_every_decisions);
  fp.mix(config_.incremental.drift_watermark);
  fp.mix(config_.failure.enabled ? 1 : 0);
  if (config_.failure.enabled) {
    fp.mix(config_.failure.script.size());
    for (const datacenter::FailureEvent& ev : config_.failure.script) {
      fp.mix(static_cast<std::uint64_t>(ev.kind));
      fp.mix(static_cast<std::uint64_t>(ev.server));
      fp.mix_double(ev.at_s);
      fp.mix_double(ev.duration_s);
      fp.mix_double(ev.magnitude);
    }
    fp.mix_double(config_.failure.mtbf_s);
    fp.mix_double(config_.failure.mttr_s);
    fp.mix(config_.failure.seed);
  }
  fp.mix(config_.seed);
  return fp.value();
}

/// The deterministic event loop: one instance per run()/resume() call.
struct AllocationService::Loop {
  const AllocationService& svc;
  const ServeConfig& cfg;
  const std::vector<ServeRequest>& stream;

  // --- mutable state (everything here travels in ServeSnapshot) ----------
  double now = 0.0;
  std::size_t cursor = 0;        ///< next stream arrival
  std::uint64_t next_seq = 0;    ///< event tie-break counter
  std::int64_t next_vm_id = 1;
  double next_snapshot_s = kInf;
  double depth_changed_s = 0.0;

  std::vector<core::ServerState> servers;
  std::vector<std::uint8_t> down;  ///< per-server crash mask
  /// up_servers() scratch (not snapshotted — derived): reused across
  /// decisions so the steady-state loop builds no fleet-sized vector per
  /// call. Invalidated by the next up_servers() call.
  mutable std::vector<core::ServerState> up_scratch;
  /// Bounded admission queue: capacity-checked against
  /// cfg.queue.capacity on every admission (see admit()).
  std::deque<QueuedEntry> queue;
  std::vector<Event> heap;  ///< binary heap via std::push_heap/pop_heap
  std::map<std::int64_t, Resident> residents;  ///< id-ordered (determinism)
  std::optional<InFlight> in_flight;

  ServeMode rung = ServeMode::kNormal;
  int breach_streak = 0;
  int healthy_streak = 0;
  double latency_ewma = 0.0;
  double mode_since_s = 0.0;

  /// Incremental rung: the cached per-server planner (mirrors every
  /// committed capacity change below) plus the oracle cadence position.
  std::optional<core::FleetState> fleet;
  double next_oracle_s = kInf;
  std::uint64_t decisions_since_oracle = 0;
  std::uint64_t divergences_since_resync = 0;

  util::Rng retry_rng;
  std::optional<datacenter::FailureSchedule> failures;
  /// Scheduled client retries outstanding in the heap. Tracked separately
  /// because pending repair/release events are *not* work: once the
  /// stream, queue, retries, and residents are all drained, the run is
  /// over even though sampled failures would keep generating repairs.
  std::size_t pending_retries = 0;

  ServeMetrics metrics;
  util::RunningStats latency_stats;
  util::RunningStats wait_stats;
  double depth_integral = 0.0;
  std::vector<DecisionRecord> log;

  bool draining = false;
  ServeObs obs;

  Loop(const AllocationService& service, const std::vector<ServeRequest>& s)
      : svc(service),
        cfg(service.config_),
        stream(s),
        retry_rng(util::named_stream(cfg.seed, "serve.retry")) {
    servers.resize(static_cast<std::size_t>(cfg.server_count));
    for (int i = 0; i < cfg.server_count; ++i) {
      servers[static_cast<std::size_t>(i)].id = i;
    }
    down.assign(static_cast<std::size_t>(cfg.server_count), 0);
    if (cfg.incremental.enabled) {
      fleet.emplace(*service.db_, cfg.proactive);
      fleet->reset(servers);
      if (cfg.incremental.oracle_every_s > 0.0) {
        next_oracle_s = cfg.incremental.oracle_every_s;
      }
    }
    latency_ewma = cfg.deadline.initial_latency_s;
    if (cfg.failure.enabled) {
      failures.emplace(cfg.failure, cfg.server_count, 0.0);
    }
    if (cfg.snapshot.every_s > 0.0) {
      next_snapshot_s = cfg.snapshot.every_s;
    }
    obs.resolve(cfg.obs.get());
  }

  // --- small helpers -------------------------------------------------------

  void push_event(Event ev) {
    ev.seq = next_seq++;
    push_event_with_seq(std::move(ev));
  }

  /// Inserts an event whose seq is already assigned (resume path).
  void push_event_with_seq(Event ev) {
    if (ev.kind == kArrivalEvent) {
      ++pending_retries;
    }
    heap.push_back(std::move(ev));
    std::push_heap(heap.begin(), heap.end(), EventAfter{});
  }

  Event pop_event() {
    std::pop_heap(heap.begin(), heap.end(), EventAfter{});
    Event ev = std::move(heap.back());
    heap.pop_back();
    if (ev.kind == kArrivalEvent) {
      --pending_retries;
    }
    return ev;
  }

  /// Integrates queue depth up to `now`; call immediately *before* any
  /// push/pop mutates the queue.
  void integrate_depth() {
    depth_integral += static_cast<double>(queue.size()) * (now - depth_changed_s);
    depth_changed_s = now;
  }

  void set_rung(ServeMode next) {
    metrics.time_in_mode_s[static_cast<std::size_t>(rung)] +=
        now - mode_since_s;
    mode_since_s = now;
    rung = next;
    AEVA_OBS_IF(obs.mode, obs.mode->set(static_cast<double>(rung)));
  }

  void observe_health() {
    if (!cfg.health.enabled) {
      return;
    }
    const double depth = static_cast<double>(queue.size());
    const bool breach = depth >= cfg.health.queue_high ||
                        latency_ewma >= cfg.health.latency_high_s;
    const bool healthy = depth <= cfg.health.queue_low &&
                         latency_ewma <= cfg.health.latency_low_s;
    if (breach) {
      ++breach_streak;
      healthy_streak = 0;
      if (breach_streak >= cfg.health.trip_after &&
          rung != ServeMode::kShedding) {
        set_rung(static_cast<ServeMode>(static_cast<int>(rung) + 1));
        ++metrics.breaker_trips;
        AEVA_OBS_IF(obs.breaker_trips, obs.breaker_trips->add());
        breach_streak = 0;
      }
    } else if (healthy) {
      ++healthy_streak;
      breach_streak = 0;
      if (healthy_streak >= cfg.health.rearm_after &&
          rung != ServeMode::kNormal) {
        set_rung(static_cast<ServeMode>(static_cast<int>(rung) - 1));
        ++metrics.breaker_rearms;
        AEVA_OBS_IF(obs.breaker_rearms, obs.breaker_rearms->add());
        healthy_streak = 0;
      }
    } else {
      // Between the watermarks: both streaks are strictly consecutive.
      breach_streak = 0;
      healthy_streak = 0;
    }
  }

  void journal(DecisionRecord rec) { log.push_back(std::move(rec)); }

  // --- rejection / retry ---------------------------------------------------

  /// Journals one rejection event and, when the reason is retryable and
  /// budget remains, schedules the client's next attempt with
  /// exponential backoff and seeded jitter.
  void handle_reject(const ServeRequest& req, std::int32_t attempt,
                     core::RejectReason reason, double wait_s,
                     double latency_s) {
    AEVA_OBS_IF(obs.rejected, obs.rejected->add());
    DecisionRecord rec;
    rec.t = now;
    rec.request_id = req.id;
    rec.attempt = attempt;
    rec.klass = req.klass;
    rec.event = DecisionEvent::kRejected;
    rec.mode = rung;
    rec.path = core::AllocationPath::kRejected;
    rec.reason = reason;
    rec.wait_s = wait_s;
    rec.latency_s = latency_s;

    bool retry_scheduled = false;
    if (core::is_retryable(reason) && cfg.retry.enabled) {
      const std::int32_t next_attempt = attempt + 1;
      if (next_attempt <= cfg.retry.max_attempts) {
        double backoff = cfg.retry.base_s;
        for (std::int32_t k = 0; k < attempt && backoff < cfg.retry.cap_s;
             ++k) {
          backoff *= cfg.retry.multiplier;
        }
        backoff = std::min(backoff, cfg.retry.cap_s);
        const double delay = backoff * (1.0 + cfg.retry.jitter *
                                                  retry_rng.uniform());
        const double at = now + delay;
        if (at <= req.deadline_s) {
          Event ev;
          ev.t = at;
          ev.kind = kArrivalEvent;
          ev.request = req;
          ev.attempt = next_attempt;
          push_event(std::move(ev));
          ++metrics.retries;
          AEVA_OBS_IF(obs.retries, obs.retries->add());
          rec.retry_at_s = at;
          retry_scheduled = true;
        }
        // When the retry would land past the deadline the client gives
        // up; the journal keeps the underlying cause (the terminal
        // marker is the absent retry_at).
      } else {
        rec.reason = core::RejectReason::kRetriesExhausted;
        ++metrics.retries_exhausted;
      }
    }
    // Every rejection event is tallied exactly once, by the reason it
    // was journaled under.
    ++metrics.rejects_by_reason[static_cast<std::size_t>(rec.reason)];
    if (!retry_scheduled) {
      ++metrics.rejected_final;
    }
    journal(std::move(rec));
  }

  // --- admission -----------------------------------------------------------

  void admit(const ServeRequest& req, std::int32_t attempt) {
    ++metrics.arrivals;
    AEVA_OBS_IF(obs.arrivals, obs.arrivals->add());
    if (req.deadline_s < now) {
      ++metrics.expired;
      AEVA_OBS_IF(obs.expired, obs.expired->add());
      handle_reject(req, attempt, core::RejectReason::kDeadlineExpired, 0.0,
                    0.0);
      return;
    }
    if (rung == ServeMode::kShedding &&
        req.klass < cfg.health.min_class_when_shedding) {
      ++metrics.sheds;
      AEVA_OBS_IF(obs.sheds, obs.sheds->add());
      handle_reject(req, attempt, core::RejectReason::kAdmissionShed, 0.0,
                    0.0);
      return;
    }
    if (cfg.deadline.enforce && std::isfinite(req.deadline_s)) {
      // Deadline-aware admission: predicted completion = now + (waiters
      // ahead + this request) × the moving latency estimate. Equality
      // admits (boundary contract, pinned by deadline_boundary tests).
      const double pending = static_cast<double>(queue.size()) +
                             (in_flight.has_value() ? 1.0 : 0.0) + 1.0;
      const double predicted = now + pending * latency_ewma;
      if (predicted > req.deadline_s) {
        handle_reject(req, attempt, core::RejectReason::kDeadlineUnmeetable,
                      0.0, 0.0);
        return;
      }
    }
    if (queue.size() >= cfg.queue.capacity) {
      switch (cfg.queue.policy) {
        case ShedPolicy::kRejectNewest: {
          ++metrics.sheds;
          AEVA_OBS_IF(obs.sheds, obs.sheds->add());
          handle_reject(req, attempt, core::RejectReason::kAdmissionQueueFull,
                        0.0, 0.0);
          return;
        }
        case ShedPolicy::kRejectOldest: {
          QueuedEntry victim = std::move(queue.front());
          integrate_depth();
          queue.pop_front();
          ++metrics.sheds;
          AEVA_OBS_IF(obs.sheds, obs.sheds->add());
          handle_reject(victim.request, victim.attempt,
                        core::RejectReason::kAdmissionShed,
                        now - victim.enqueue_s, 0.0);
          break;  // fall through to admission of the arrival
        }
        case ShedPolicy::kRejectByClass: {
          // Evict the first queued entry of the lowest class strictly
          // below the arrival's class; refuse the arrival when nothing
          // outranks it.
          std::size_t victim_index = queue.size();
          int victim_class = req.klass;
          for (std::size_t i = 0; i < queue.size(); ++i) {
            if (queue[i].request.klass < victim_class) {
              victim_class = queue[i].request.klass;
              victim_index = i;
            }
          }
          if (victim_index == queue.size()) {
            ++metrics.sheds;
            AEVA_OBS_IF(obs.sheds, obs.sheds->add());
            handle_reject(req, attempt, core::RejectReason::kAdmissionShed,
                          0.0, 0.0);
            return;
          }
          QueuedEntry victim = std::move(
              queue[victim_index]);
          integrate_depth();
          queue.erase(queue.begin() +
                      static_cast<std::ptrdiff_t>(victim_index));
          ++metrics.sheds;
          AEVA_OBS_IF(obs.sheds, obs.sheds->add());
          handle_reject(victim.request, victim.attempt,
                        core::RejectReason::kAdmissionShed,
                        now - victim.enqueue_s, 0.0);
          break;
        }
      }
    }
    integrate_depth();
    queue.push_back(QueuedEntry{req, now, attempt});
    ++metrics.admitted;
    AEVA_OBS_IF(obs.admitted, obs.admitted->add());
    metrics.peak_queue_depth = std::max(
        metrics.peak_queue_depth, static_cast<double>(queue.size()));
    AEVA_OBS_IF(obs.queue_depth,
                obs.queue_depth->set(static_cast<double>(queue.size())));
    observe_health();
  }

  // --- decisions -----------------------------------------------------------

  [[nodiscard]] const std::vector<core::ServerState>& up_servers() const {
    up_scratch.clear();
    up_scratch.reserve(servers.size());
    for (std::size_t i = 0; i < servers.size(); ++i) {
      if (down[i] == 0) {
        up_scratch.push_back(servers[i]);
      }
    }
    return up_scratch;
  }

  void start_decision() {
    while (!in_flight.has_value() && !queue.empty() && !draining) {
      QueuedEntry entry = std::move(queue.front());
      integrate_depth();
      queue.pop_front();
      AEVA_OBS_IF(obs.queue_depth,
                  obs.queue_depth->set(static_cast<double>(queue.size())));
      if (entry.request.deadline_s < now) {
        ++metrics.expired;
        AEVA_OBS_IF(obs.expired, obs.expired->add());
        handle_reject(entry.request, entry.attempt,
                      core::RejectReason::kDeadlineExpired,
                      now - entry.enqueue_s, 0.0);
        continue;
      }
      InFlight fl;
      fl.request = entry.request;
      fl.attempt = entry.attempt;
      fl.enqueue_s = entry.enqueue_s;
      fl.started_s = now;
      fl.mode = rung;
      std::vector<core::VmRequest> vms;
      vms.reserve(static_cast<std::size_t>(entry.request.vm_count));
      for (int i = 0; i < entry.request.vm_count; ++i) {
        vms.push_back(core::VmRequest{next_vm_id++, entry.request.profile,
                                      entry.request.qos_time_s});
      }
      // Only the allocators that take a span get the O(fleet) up-server
      // copy; the incremental planner reads its own mirror.
      bool used_incremental = false;
      if (rung != ServeMode::kNormal) {
        fl.result = svc.degraded_.allocate(vms, up_servers());
      } else if (!fleet.has_value()) {
        fl.result = svc.primary_.allocate(vms, up_servers());
      } else {
        const bool oracle_due =
            now >= next_oracle_s ||
            (cfg.incremental.oracle_every_decisions > 0 &&
             decisions_since_oracle + 1 >=
                 cfg.incremental.oracle_every_decisions);
        if (oracle_due) {
          run_oracle(fl, vms);
        } else {
          fl.result = fleet->plan(vms);
          ++decisions_since_oracle;
          ++metrics.decisions_incremental;
          AEVA_OBS_IF(obs.incremental_decisions,
                      obs.incremental_decisions->add());
          used_incremental = true;
        }
      }
      const double cost =
          used_incremental
              ? cfg.cost.incremental_s
              : (rung == ServeMode::kNormal
                     ? cfg.cost.base_s +
                           cfg.cost.per_partition_s *
                               static_cast<double>(
                                   fl.result.partitions_examined)
                     : cfg.cost.degraded_s);
      Event done;
      done.t = now + cost;
      done.kind = kDecisionDoneEvent;
      push_event(std::move(done));
      in_flight = std::move(fl);
    }
  }

  /// Oracle pass: the exhaustive allocator produces the authoritative
  /// answer for this decision while the incremental planner runs in its
  /// shadow. A mismatch in either the plan or the per-server capacity
  /// mirror counts one divergence; `drift_watermark` divergences since
  /// the last resync rebuild the fleet from ground truth.
  void run_oracle(InFlight& fl, const std::vector<core::VmRequest>& vms) {
    ++metrics.oracle_checks;
    AEVA_OBS_IF(obs.oracle_checks, obs.oracle_checks->add());
    decisions_since_oracle = 0;
    if (cfg.incremental.oracle_every_s > 0.0) {
      while (next_oracle_s <= now) {
        next_oracle_s += cfg.incremental.oracle_every_s;
      }
    }
    const core::AllocationResult shadow = fleet->plan(vms);
    fl.result = svc.primary_.allocate(vms, up_servers());
    if (!plans_equal(shadow, fl.result) || !fleet_in_sync()) {
      ++metrics.oracle_divergences;
      AEVA_OBS_IF(obs.oracle_divergences, obs.oracle_divergences->add());
      if (++divergences_since_resync >= cfg.incremental.drift_watermark) {
        fleet->reset(servers, &down);
        divergences_since_resync = 0;
        ++metrics.fleet_resyncs;
        AEVA_OBS_IF(obs.fleet_resyncs, obs.fleet_resyncs->add());
      }
    }
  }

  /// True when the fleet mirror matches the loop's ground-truth capacity
  /// state server for server.
  [[nodiscard]] bool fleet_in_sync() const {
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const core::AllocationNode& node = fleet->node(servers[i].id);
      if (node.down != (down[i] != 0) ||
          node.powered != servers[i].powered ||
          !(node.allocated == servers[i].allocated)) {
        return false;
      }
    }
    return true;
  }

  void commit_placement(const InFlight& fl) {
    Resident res;
    res.klass = fl.request.klass;
    res.profile = fl.request.profile;
    res.qos_time_s = fl.request.qos_time_s;
    res.release_s = std::isnan(fl.request.release_at_s)
                        ? (std::isfinite(fl.request.hold_s)
                               ? now + fl.request.hold_s
                               : kInf)
                        : fl.request.release_at_s;
    res.servers.reserve(fl.result.placements.size());
    for (const core::Placement& p : fl.result.placements) {
      res.servers.push_back(p.server_id);
    }

    DecisionRecord rec;
    rec.t = now;
    rec.request_id = fl.request.id;
    rec.attempt = fl.attempt;
    rec.klass = fl.request.klass;
    rec.event = DecisionEvent::kPlaced;
    rec.mode = fl.mode;
    rec.path = fl.result.outcome.path;
    rec.reason = fl.result.outcome.reason;
    rec.wait_s = fl.started_s - fl.enqueue_s;
    rec.latency_s = now - fl.started_s;
    rec.servers = res.servers;

    ++metrics.placed;
    AEVA_OBS_IF(obs.placed, obs.placed->add());
    if (fl.result.outcome.path == core::AllocationPath::kFallbackFirstFit) {
      ++metrics.placed_fallback;
    }
    if (fl.mode != ServeMode::kNormal) {
      ++metrics.placed_degraded;
    }

    if (res.release_s <= now) {
      // Residency already over (a re-admitted group outlived its own
      // release window): the capacity returns immediately.
      journal(std::move(rec));
      return;
    }
    for (const core::Placement& p : fl.result.placements) {
      core::ServerState& server =
          servers[static_cast<std::size_t>(p.server_id)];
      ++server.allocated.of(fl.request.profile);
      server.powered = true;
      if (fleet.has_value()) {
        fleet->allocate(p.server_id, fl.request.profile);
      }
    }
    const bool is_restart = !std::isnan(fl.request.release_at_s);
    if (std::isfinite(res.release_s) && !is_restart) {
      Event ev;
      ev.t = res.release_s;
      ev.kind = kReleaseEvent;
      ev.group = fl.request.id;
      push_event(std::move(ev));
    }
    // Restarted groups reuse their original pending release event (lazy
    // release: the handler checks residency), so none is scheduled here.
    residents.emplace(fl.request.id, std::move(res));
    journal(std::move(rec));
  }

  void complete_decision() {
    AEVA_INVARIANT(in_flight.has_value(),
                   "decision-done event with no in-flight decision");
    const InFlight fl = std::move(*in_flight);
    in_flight.reset();

    const double latency = now - fl.started_s;
    latency_ewma = cfg.deadline.ewma_alpha * latency +
                   (1.0 - cfg.deadline.ewma_alpha) * latency_ewma;
    latency_stats.add(latency);
    wait_stats.add(fl.started_s - fl.enqueue_s);
    AEVA_OBS_IF(obs.decision_latency, obs.decision_latency->record(latency));

    bool targets_up = true;
    for (const core::Placement& p : fl.result.placements) {
      if (down[static_cast<std::size_t>(p.server_id)] != 0) {
        targets_up = false;
        break;
      }
    }

    if (fl.result.complete && targets_up) {
      commit_placement(fl);
    } else if (fl.result.complete) {
      // A target crashed while the decision was in flight: the placement
      // is void; the request retries like any capacity rejection.
      ++metrics.invalidated;
      handle_reject(fl.request, fl.attempt,
                    core::RejectReason::kNoFeasibleServer,
                    fl.started_s - fl.enqueue_s, latency);
    } else {
      core::RejectReason reason = fl.result.outcome.reason;
      if (reason == core::RejectReason::kNone) {
        reason = core::RejectReason::kNoFeasibleServer;
      }
      handle_reject(fl.request, fl.attempt, reason,
                    fl.started_s - fl.enqueue_s, latency);
    }
    observe_health();
  }

  // --- failures ------------------------------------------------------------

  void apply_failure(const datacenter::FailureEvent& ev) {
    switch (ev.kind) {
      case datacenter::FailureKind::kCrash:
        apply_crash(ev);
        break;
      case datacenter::FailureKind::kPduFault:
        apply_pdu_fault(ev);
        break;
      case datacenter::FailureKind::kTorFault:
        AEVA_INVARIANT(false,
                       "ToR fault reached the serve loop despite validate()");
        break;
      default:
        break;  // degrade/brownout: no effect on the serve capacity model
    }
  }

  /// A PDU feed fault is one correlated event that crashes every server
  /// on the feed (ascending id, mirroring the simulator's expansion); the
  /// groups destroyed by the expansion are tallied as correlated losses.
  void apply_pdu_fault(const datacenter::FailureEvent& ev) {
    ++metrics.correlated_failures;
    const std::uint64_t lost_before = metrics.groups_lost;
    datacenter::FailureEvent member = ev;
    member.kind = datacenter::FailureKind::kCrash;
    for (const int server :
         cfg.failure.topology->servers_on_pdu(ev.server)) {
      member.server = server;
      apply_crash(member);
    }
    metrics.groups_lost_correlated += metrics.groups_lost - lost_before;
  }

  void apply_crash(const datacenter::FailureEvent& ev) {
    if (ev.kind != datacenter::FailureKind::kCrash) {
      return;  // unreachable via apply_failure; keeps the helper total
    }
    const std::size_t s = static_cast<std::size_t>(ev.server);
    if (down[s] != 0) {
      return;  // already masked; the pending repair stands
    }
    ++metrics.crashes;
    AEVA_OBS_IF(obs.crashes, obs.crashes->add());
    down[s] = 1;
    servers[s].powered = false;
    servers[s].allocated = workload::ClassCounts{};
    if (fleet.has_value()) {
      fleet->crash(ev.server);
    }

    // Every group with any VM on the crashed server is lost whole
    // (request-granularity recovery), in id order for determinism.
    std::vector<std::int64_t> lost;
    for (const auto& [id, res] : residents) {
      for (const std::int32_t server : res.servers) {
        if (server == ev.server) {
          lost.push_back(id);
          break;
        }
      }
    }
    for (const std::int64_t id : lost) {
      auto it = residents.find(id);
      Resident res = std::move(it->second);
      residents.erase(it);
      // Free the group's slots on surviving servers (the crashed one was
      // zeroed above).
      for (const std::int32_t server : res.servers) {
        if (server != ev.server && down[static_cast<std::size_t>(server)] == 0) {
          --servers[static_cast<std::size_t>(server)].allocated.of(res.profile);
          if (fleet.has_value()) {
            fleet->deallocate(server, res.profile);
          }
        }
      }
      ++metrics.groups_lost;
      DecisionRecord rec;
      rec.t = now;
      rec.request_id = id;
      rec.klass = res.klass;
      rec.event = DecisionEvent::kLost;
      rec.mode = rung;
      rec.path = core::AllocationPath::kRejected;
      rec.servers = res.servers;
      journal(std::move(rec));

      if (res.release_s > now) {
        // Re-admit the group as a fresh obligation: no client deadline,
        // but the original absolute release instant is preserved.
        ServeRequest restart;
        restart.id = id;
        restart.arrival_s = now;
        restart.klass = res.klass;
        restart.profile = res.profile;
        restart.vm_count = static_cast<int>(res.servers.size());
        restart.qos_time_s = res.qos_time_s;
        restart.deadline_s = kInf;
        restart.hold_s = kInf;
        restart.release_at_s = res.release_s;
        ++metrics.restarts;
        AEVA_OBS_IF(obs.restarts, obs.restarts->add());
        admit(restart, 0);
      }
    }

    Event repair;
    repair.t = now + ev.duration_s;
    repair.kind = kRepairEvent;
    repair.server = ev.server;
    push_event(std::move(repair));
    failures->on_crash(ev.server);
  }

  void apply_repair(std::int32_t server) {
    const std::size_t s = static_cast<std::size_t>(server);
    down[s] = 0;  // returns cold (powered == false) and empty
    if (fleet.has_value()) {
      fleet->repair(server);
    }
    if (failures.has_value()) {
      failures->on_repair(server, now);
    }
  }

  void apply_release(std::int64_t group) {
    const auto it = residents.find(group);
    if (it == residents.end() || it->second.release_s > now) {
      return;  // lazily cancelled (lost to a crash / re-placed later)
    }
    const Resident res = std::move(it->second);
    residents.erase(it);
    for (const std::int32_t server : res.servers) {
      if (down[static_cast<std::size_t>(server)] == 0) {
        --servers[static_cast<std::size_t>(server)].allocated.of(res.profile);
        if (fleet.has_value()) {
          fleet->deallocate(server, res.profile);
        }
      }
    }
  }

  // --- snapshotting --------------------------------------------------------

  [[nodiscard]] persist::ServeSnapshot capture(
      std::uint64_t stream_fp) const {
    AEVA_INVARIANT(!in_flight.has_value(),
                   "serve snapshots are taken at decision boundaries only");
    persist::ServeSnapshot s;
    s.stream_fingerprint = stream_fp;
    s.config_fingerprint = svc.config_fingerprint();
    s.now = now;
    s.next_arrival = cursor;
    s.next_seq = next_seq;
    s.next_vm_id = next_vm_id;
    s.next_snapshot_s = next_snapshot_s;
    s.depth_changed_s = depth_changed_s;

    s.servers.reserve(servers.size());
    for (std::size_t i = 0; i < servers.size(); ++i) {
      persist::ServeServerState server;
      server.alloc = servers[i].allocated;
      server.powered = servers[i].powered;
      server.down = down[i] != 0;
      s.servers.push_back(server);
    }

    const auto to_request_state = [](const ServeRequest& r) {
      persist::ServeRequestState out;
      out.id = r.id;
      out.arrival_s = r.arrival_s;
      out.klass = r.klass;
      out.profile = static_cast<std::int32_t>(r.profile);
      out.vm_count = r.vm_count;
      out.qos_time_s = r.qos_time_s;
      out.deadline_s = r.deadline_s;
      out.hold_s = r.hold_s;
      out.release_at_s = r.release_at_s;
      return out;
    };

    s.queue.reserve(queue.size());
    for (const QueuedEntry& q : queue) {
      persist::ServeQueuedState qs;
      qs.request = to_request_state(q.request);
      qs.enqueue_s = q.enqueue_s;
      qs.attempt = q.attempt;
      s.queue.push_back(qs);
    }

    // The heap is serialized in seq order (reinserting preserves the
    // (t, kind, seq) order, so the resumed heap pops identically).
    std::vector<Event> sorted = heap;
    std::sort(sorted.begin(), sorted.end(),
              [](const Event& a, const Event& b) { return a.seq < b.seq; });
    for (const Event& ev : sorted) {
      switch (ev.kind) {
        case kArrivalEvent: {
          persist::ServeRetryState r;
          r.request = to_request_state(ev.request);
          r.at_s = ev.t;
          r.seq = ev.seq;
          r.attempt = ev.attempt;
          s.retries.push_back(std::move(r));
          break;
        }
        case kReleaseEvent: {
          persist::ServeReleaseState r;
          r.group_id = ev.group;
          r.at_s = ev.t;
          r.seq = ev.seq;
          s.releases.push_back(r);
          break;
        }
        case kRepairEvent: {
          persist::ServeRepairState r;
          r.server = ev.server;
          r.at_s = ev.t;
          r.seq = ev.seq;
          s.repairs.push_back(r);
          break;
        }
        default:
          AEVA_INVARIANT(false, "unexpected event kind in snapshot capture");
      }
    }

    s.residents.reserve(residents.size());
    for (const auto& [id, res] : residents) {
      persist::ServeResidentState r;
      r.group_id = id;
      r.klass = res.klass;
      r.profile = static_cast<std::int32_t>(res.profile);
      r.qos_time_s = res.qos_time_s;
      r.release_s = res.release_s;
      r.servers = res.servers;
      s.residents.push_back(std::move(r));
    }

    s.health.rung = static_cast<std::int32_t>(rung);
    s.health.breach_streak = breach_streak;
    s.health.healthy_streak = healthy_streak;
    s.health.latency_ewma_s = latency_ewma;
    s.health.mode_since_s = mode_since_s;

    s.incremental.next_oracle_s = next_oracle_s;
    s.incremental.decisions_since_oracle = decisions_since_oracle;
    s.incremental.divergences_since_resync = divergences_since_resync;

    s.retry_rng = retry_rng.state();
    if (failures.has_value()) {
      const datacenter::FailureSchedule::State fs = failures->state();
      s.failure.script_next = fs.script_next;
      s.failure.streams = fs.streams;
      s.failure.sampled_next = fs.sampled_next;
      s.failure.pdu_streams = fs.pdu_streams;
      s.failure.pdu_next = fs.pdu_next;
      s.failure.tor_streams = fs.tor_streams;
      s.failure.tor_next = fs.tor_next;
    }

    persist::ServeMetricsState& m = s.metrics;
    m.offered = metrics.offered;
    m.arrivals = metrics.arrivals;
    m.admitted = metrics.admitted;
    m.placed = metrics.placed;
    m.placed_fallback = metrics.placed_fallback;
    m.placed_degraded = metrics.placed_degraded;
    m.rejected_final = metrics.rejected_final;
    m.sheds = metrics.sheds;
    m.expired = metrics.expired;
    m.retries = metrics.retries;
    m.retries_exhausted = metrics.retries_exhausted;
    m.invalidated = metrics.invalidated;
    m.breaker_trips = metrics.breaker_trips;
    m.breaker_rearms = metrics.breaker_rearms;
    m.crashes = metrics.crashes;
    m.correlated_failures = metrics.correlated_failures;
    m.groups_lost = metrics.groups_lost;
    m.groups_lost_correlated = metrics.groups_lost_correlated;
    m.restarts = metrics.restarts;
    m.decisions_incremental = metrics.decisions_incremental;
    m.oracle_checks = metrics.oracle_checks;
    m.oracle_divergences = metrics.oracle_divergences;
    m.fleet_resyncs = metrics.fleet_resyncs;
    m.rejects_by_reason.assign(metrics.rejects_by_reason.begin(),
                               metrics.rejects_by_reason.end());
    m.time_in_mode_s.assign(metrics.time_in_mode_s.begin(),
                            metrics.time_in_mode_s.end());
    m.queue_depth_integral = depth_integral;
    m.peak_queue_depth = metrics.peak_queue_depth;

    s.latency_stats = latency_stats.state();
    s.wait_stats = wait_stats.state();

    s.log.reserve(log.size());
    for (const DecisionRecord& rec : log) {
      persist::ServeDecisionState d;
      d.t = rec.t;
      d.request_id = rec.request_id;
      d.attempt = rec.attempt;
      d.klass = rec.klass;
      d.event = static_cast<std::int32_t>(rec.event);
      d.mode = static_cast<std::int32_t>(rec.mode);
      d.path = static_cast<std::int32_t>(rec.path);
      d.reason = static_cast<std::int32_t>(rec.reason);
      d.wait_s = rec.wait_s;
      d.latency_s = rec.latency_s;
      d.retry_at_s = rec.retry_at_s;
      d.servers = rec.servers;
      s.log.push_back(std::move(d));
    }
    return s;
  }

  void restore(const persist::ServeSnapshot& s, std::uint64_t stream_fp) {
    if (s.stream_fingerprint != stream_fp) {
      throw persist::SnapshotMismatchError(
          "serve snapshot was taken against a different arrival stream");
    }
    if (s.config_fingerprint != svc.config_fingerprint()) {
      throw persist::SnapshotMismatchError(
          "serve snapshot was taken under a different service config");
    }
    if (s.servers.size() != servers.size()) {
      throw persist::SnapshotMismatchError(
          "serve snapshot fleet size " + std::to_string(s.servers.size()) +
          " does not match configured " + std::to_string(servers.size()));
    }
    if (s.next_arrival > stream.size()) {
      throw persist::SnapshotMismatchError(
          "serve snapshot arrival cursor past the end of the stream");
    }

    now = s.now;
    cursor = static_cast<std::size_t>(s.next_arrival);
    next_seq = s.next_seq;
    next_vm_id = s.next_vm_id;
    // The checkpoint cadence belongs to the *resuming* process, not the
    // snapshot: a resume without periodic snapshots must not inherit a
    // finite due time (maybe_snapshot would spin advancing it by 0).
    if (cfg.snapshot.every_s > 0.0) {
      next_snapshot_s = std::isfinite(s.next_snapshot_s)
                            ? s.next_snapshot_s
                            : cfg.snapshot.every_s;
      while (next_snapshot_s <= now) {
        next_snapshot_s += cfg.snapshot.every_s;
      }
    } else {
      next_snapshot_s = kInf;
    }
    depth_changed_s = s.depth_changed_s;

    for (std::size_t i = 0; i < servers.size(); ++i) {
      servers[i].allocated = s.servers[i].alloc;
      servers[i].powered = s.servers[i].powered;
      down[i] = s.servers[i].down ? 1 : 0;
    }

    const auto from_request_state = [](const persist::ServeRequestState& r) {
      ServeRequest out;
      out.id = r.id;
      out.arrival_s = r.arrival_s;
      out.klass = r.klass;
      out.profile = workload::kAllProfileClasses[static_cast<std::size_t>(
          r.profile)];
      out.vm_count = r.vm_count;
      out.qos_time_s = r.qos_time_s;
      out.deadline_s = r.deadline_s;
      out.hold_s = r.hold_s;
      out.release_at_s = r.release_at_s;
      return out;
    };

    queue.clear();
    for (const persist::ServeQueuedState& q : s.queue) {
      queue.push_back(
          QueuedEntry{from_request_state(q.request), q.enqueue_s, q.attempt});
    }
    if (queue.size() > cfg.queue.capacity) {
      throw persist::SnapshotMismatchError(
          "serve snapshot queue exceeds the configured capacity");
    }

    heap.clear();
    for (const persist::ServeRetryState& r : s.retries) {
      Event ev;
      ev.t = r.at_s;
      ev.kind = kArrivalEvent;
      ev.seq = r.seq;
      ev.request = from_request_state(r.request);
      ev.attempt = r.attempt;
      push_event_with_seq(std::move(ev));
    }
    for (const persist::ServeReleaseState& r : s.releases) {
      Event ev;
      ev.t = r.at_s;
      ev.kind = kReleaseEvent;
      ev.seq = r.seq;
      ev.group = r.group_id;
      push_event_with_seq(std::move(ev));
    }
    for (const persist::ServeRepairState& r : s.repairs) {
      if (r.server < 0 || r.server >= cfg.server_count) {
        throw persist::SnapshotMismatchError(
            "serve snapshot repair targets unknown server " +
            std::to_string(r.server));
      }
      Event ev;
      ev.t = r.at_s;
      ev.kind = kRepairEvent;
      ev.seq = r.seq;
      ev.server = r.server;
      push_event_with_seq(std::move(ev));
    }

    residents.clear();
    for (const persist::ServeResidentState& r : s.residents) {
      Resident res;
      res.klass = r.klass;
      res.profile = workload::kAllProfileClasses[static_cast<std::size_t>(
          r.profile)];
      res.qos_time_s = r.qos_time_s;
      res.release_s = r.release_s;
      for (const std::int32_t server : r.servers) {
        if (server < 0 || server >= cfg.server_count) {
          throw persist::SnapshotMismatchError(
              "serve snapshot resident references unknown server " +
              std::to_string(server));
        }
        res.servers.push_back(server);
      }
      residents.emplace(r.group_id, std::move(res));
    }

    rung = static_cast<ServeMode>(s.health.rung);
    breach_streak = s.health.breach_streak;
    healthy_streak = s.health.healthy_streak;
    latency_ewma = s.health.latency_ewma_s;
    mode_since_s = s.health.mode_since_s;

    next_oracle_s = s.incremental.next_oracle_s;
    decisions_since_oracle = s.incremental.decisions_since_oracle;
    divergences_since_resync = s.incremental.divergences_since_resync;
    if (fleet.has_value()) {
      // The planner itself is rebuilt from the restored ground truth (the
      // score memo is pure, so this does not perturb later decisions).
      fleet->reset(servers, &down);
    }

    retry_rng.set_state(s.retry_rng);
    if (failures.has_value()) {
      datacenter::FailureSchedule::State fs;
      fs.script_next = static_cast<std::size_t>(s.failure.script_next);
      fs.streams = s.failure.streams;
      fs.sampled_next = s.failure.sampled_next;
      fs.pdu_streams = s.failure.pdu_streams;
      fs.pdu_next = s.failure.pdu_next;
      fs.tor_streams = s.failure.tor_streams;
      fs.tor_next = s.failure.tor_next;
      failures->restore(fs);
    }

    const persist::ServeMetricsState& m = s.metrics;
    metrics.offered = m.offered;
    metrics.arrivals = m.arrivals;
    metrics.admitted = m.admitted;
    metrics.placed = m.placed;
    metrics.placed_fallback = m.placed_fallback;
    metrics.placed_degraded = m.placed_degraded;
    metrics.rejected_final = m.rejected_final;
    metrics.sheds = m.sheds;
    metrics.expired = m.expired;
    metrics.retries = m.retries;
    metrics.retries_exhausted = m.retries_exhausted;
    metrics.invalidated = m.invalidated;
    metrics.breaker_trips = m.breaker_trips;
    metrics.breaker_rearms = m.breaker_rearms;
    metrics.crashes = m.crashes;
    metrics.correlated_failures = m.correlated_failures;
    metrics.groups_lost = m.groups_lost;
    metrics.groups_lost_correlated = m.groups_lost_correlated;
    metrics.restarts = m.restarts;
    metrics.decisions_incremental = m.decisions_incremental;
    metrics.oracle_checks = m.oracle_checks;
    metrics.oracle_divergences = m.oracle_divergences;
    metrics.fleet_resyncs = m.fleet_resyncs;
    if (m.rejects_by_reason.size() != core::kRejectReasonCount ||
        m.time_in_mode_s.size() != static_cast<std::size_t>(kServeModeCount)) {
      throw persist::SnapshotMismatchError(
          "serve snapshot tallies do not match this build's enums");
    }
    std::copy(m.rejects_by_reason.begin(), m.rejects_by_reason.end(),
              metrics.rejects_by_reason.begin());
    std::copy(m.time_in_mode_s.begin(), m.time_in_mode_s.end(),
              metrics.time_in_mode_s.begin());
    depth_integral = m.queue_depth_integral;
    metrics.peak_queue_depth = m.peak_queue_depth;

    util::RunningStats fresh_latency;
    fresh_latency.restore(s.latency_stats);
    latency_stats = fresh_latency;
    util::RunningStats fresh_wait;
    fresh_wait.restore(s.wait_stats);
    wait_stats = fresh_wait;

    log.clear();
    log.reserve(s.log.size());
    for (const persist::ServeDecisionState& d : s.log) {
      if (d.reason >= static_cast<std::int32_t>(core::kRejectReasonCount)) {
        throw persist::SnapshotMismatchError(
            "serve snapshot log carries reject reason " +
            std::to_string(d.reason) + " unknown to this build");
      }
      DecisionRecord rec;
      rec.t = d.t;
      rec.request_id = d.request_id;
      rec.attempt = d.attempt;
      rec.klass = d.klass;
      rec.event = static_cast<DecisionEvent>(d.event);
      rec.mode = static_cast<ServeMode>(d.mode);
      rec.path = static_cast<core::AllocationPath>(d.path);
      rec.reason = static_cast<core::RejectReason>(d.reason);
      rec.wait_s = d.wait_s;
      rec.latency_s = d.latency_s;
      rec.retry_at_s = d.retry_at_s;
      rec.servers = d.servers;
      log.push_back(std::move(rec));
    }
  }

  void maybe_snapshot(std::uint64_t stream_fp) {
    if (in_flight.has_value() || now < next_snapshot_s) {
      return;
    }
    while (next_snapshot_s <= now) {
      next_snapshot_s += cfg.snapshot.every_s;
    }
    emit_snapshot(stream_fp);
  }

  void emit_snapshot(std::uint64_t stream_fp) {
    if (cfg.snapshot.path.empty() && !cfg.snapshot.hook) {
      return;
    }
    const persist::ServeSnapshot snap = capture(stream_fp);
    if (!cfg.snapshot.path.empty()) {
      persist::write_serve_snapshot_file(cfg.snapshot.path, snap);
    }
    if (cfg.snapshot.hook) {
      cfg.snapshot.hook(snap);
    }
  }

  // --- the loop ------------------------------------------------------------

  ServeResult go(std::uint64_t stream_fp, bool resumed = false) {
    if (resumed) {
      // Snapshots are captured mid-instant, after the arrival phase but
      // before the decision phase — resume re-enters exactly there.
      start_decision();
    }
    while (true) {
      if (!draining && cfg.stop && cfg.stop()) {
        draining = true;
      }
      if (draining && !in_flight.has_value()) {
        break;
      }
      const double t_heap = heap.empty() ? kInf : heap.front().t;
      const double t_fail =
          failures.has_value() ? failures->next_time() : kInf;
      const double t_stream =
          (!draining && cursor < stream.size()) ? stream[cursor].arrival_s
                                                : kInf;
      // Termination: pending repairs and releases are not work by
      // themselves, and sampled failures generate crash times forever —
      // the run ends when the stream, queue, scheduled retries, and
      // resident groups (whose loss to a crash would create new work)
      // are all drained.
      const bool has_work = in_flight.has_value() || !queue.empty() ||
                            pending_retries > 0 || !residents.empty() ||
                            t_stream < kInf;
      if (!has_work) {
        break;
      }
      double t_next = std::min(t_heap, t_stream);
      if (t_fail < t_next) {
        t_next = t_fail;
      }
      if (t_next == kInf) {
        break;  // residents held forever with no event source: idle
      }
      AEVA_INVARIANT(t_next >= now, "serve event loop time went backwards");
      now = t_next;

      // Phase 1: every heap event at this instant, canonical order.
      while (!heap.empty() && heap.front().t == now) {
        const Event ev = pop_event();
        switch (ev.kind) {
          case kRepairEvent:
            apply_repair(ev.server);
            break;
          case kReleaseEvent:
            apply_release(ev.group);
            break;
          case kDecisionDoneEvent:
            complete_decision();
            break;
          case kArrivalEvent:
            admit(ev.request, ev.attempt);
            break;
          default:
            AEVA_INVARIANT(false, "unknown serve event kind");
        }
      }
      // Phase 2: faults due now.
      if (failures.has_value() && failures->next_time() <= now) {
        for (const datacenter::FailureEvent& ev : failures->pop_due(now)) {
          apply_failure(ev);
        }
      }
      // Phase 3: fresh stream arrivals at this instant.
      while (!draining && cursor < stream.size() &&
             stream[cursor].arrival_s == now) {
        ++metrics.offered;
        admit(stream[cursor], 0);
        ++cursor;
      }
      // Phase 4: checkpoint at the decision boundary, then next decision.
      maybe_snapshot(stream_fp);
      start_decision();
    }

    // Flush integrators and finalize metrics.
    integrate_depth();
    metrics.time_in_mode_s[static_cast<std::size_t>(rung)] +=
        now - mode_since_s;
    mode_since_s = now;
    metrics.duration_s = now;
    metrics.goodput_fraction =
        metrics.offered == 0
            ? 1.0
            : static_cast<double>(metrics.placed) /
                  static_cast<double>(metrics.offered);
    metrics.mean_decision_latency_s = latency_stats.mean();
    metrics.max_decision_latency_s =
        latency_stats.count() == 0 ? 0.0 : latency_stats.max();
    metrics.mean_wait_s = wait_stats.mean();
    metrics.max_wait_s = wait_stats.count() == 0 ? 0.0 : wait_stats.max();
    metrics.mean_queue_depth = now > 0.0 ? depth_integral / now : 0.0;

    if (draining) {
      // Graceful drain: persist the queue and every pending obligation so
      // a later resume() continues bit-identically.
      emit_snapshot(stream_fp);
    }

    ServeResult result;
    result.metrics = metrics;
    result.log = std::move(log);
    result.final_servers = servers;
    result.drained = draining;
    return result;
  }
};

ServeResult AllocationService::run(
    const std::vector<ServeRequest>& stream) const {
  const std::uint64_t fp = stream_fingerprint(stream);
  Loop loop(*this, stream);
  return loop.go(fp);
}

ServeResult AllocationService::resume(
    const std::vector<ServeRequest>& stream,
    const persist::ServeSnapshot& snapshot) const {
  const std::uint64_t fp = stream_fingerprint(stream);
  Loop loop(*this, stream);
  loop.restore(snapshot, fp);
  return loop.go(fp, /*resumed=*/true);
}

std::string serve_metrics_json(const ServeMetrics& m) {
  std::string out = "{";
  const auto put_u = [&out](const char* key, std::uint64_t value,
                            bool comma = true) {
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(value);
    if (comma) {
      out += ',';
    }
  };
  const auto put_d = [&out](const char* key, double value,
                            bool comma = true) {
    out += '"';
    out += key;
    out += "\":";
    append_json_number(out, value);
    if (comma) {
      out += ',';
    }
  };
  put_u("admitted", m.admitted);
  put_u("arrivals", m.arrivals);
  put_u("breaker_rearms", m.breaker_rearms);
  put_u("breaker_trips", m.breaker_trips);
  put_u("correlated_failures", m.correlated_failures);
  put_u("crashes", m.crashes);
  put_u("decisions_incremental", m.decisions_incremental);
  put_d("duration_s", m.duration_s);
  put_u("expired", m.expired);
  put_u("fleet_resyncs", m.fleet_resyncs);
  put_d("goodput_fraction", m.goodput_fraction);
  put_u("groups_lost", m.groups_lost);
  put_u("groups_lost_correlated", m.groups_lost_correlated);
  put_u("invalidated", m.invalidated);
  put_d("max_decision_latency_s", m.max_decision_latency_s);
  put_d("max_wait_s", m.max_wait_s);
  put_d("mean_decision_latency_s", m.mean_decision_latency_s);
  put_d("mean_queue_depth", m.mean_queue_depth);
  put_d("mean_wait_s", m.mean_wait_s);
  put_u("offered", m.offered);
  put_u("oracle_checks", m.oracle_checks);
  put_u("oracle_divergences", m.oracle_divergences);
  put_d("peak_queue_depth", m.peak_queue_depth);
  put_u("placed", m.placed);
  put_u("placed_degraded", m.placed_degraded);
  put_u("placed_fallback", m.placed_fallback);
  put_u("rejected_final", m.rejected_final);
  out += "\"rejects_by_reason\":{";
  for (std::size_t i = 0; i < core::kRejectReasonCount; ++i) {
    if (i != 0) {
      out += ',';
    }
    out += '"';
    out += core::to_string(static_cast<core::RejectReason>(i));
    out += "\":";
    out += std::to_string(m.rejects_by_reason[i]);
  }
  out += "},";
  put_u("restarts", m.restarts);
  put_u("retries", m.retries);
  put_u("retries_exhausted", m.retries_exhausted);
  put_u("sheds", m.sheds);
  out += "\"time_in_mode_s\":{";
  for (int i = 0; i < kServeModeCount; ++i) {
    if (i != 0) {
      out += ',';
    }
    out += '"';
    out += to_string(static_cast<ServeMode>(i));
    out += "\":";
    append_json_number(out, m.time_in_mode_s[static_cast<std::size_t>(i)]);
  }
  out += "}}";
  return out;
}

}  // namespace aeva::serve
