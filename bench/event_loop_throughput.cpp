/// Microbench + regression gate: steady-state event-loop throughput of
/// the datacenter simulator (docs/PERFORMANCE.md "Event-loop throughput").
///
/// Two parts. The **call-path legs** run the *same* event loop with a
/// stub allocator — the difference is the allocator call path:
///
///  * **current** — the allocator reads the simulator's incrementally
///    maintained `std::span<const ServerState>` fleet view directly
///    (zero materialization, zero heap traffic per call);
///  * **baseline** — a `MaterializingAllocator` decorator re-creates the
///    pre-refactor call path: every allocate call copies the server span
///    and the request span into freshly constructed vectors (push_back,
///    no reserve — exactly the seed loop's `server_states()` lambda) and
///    receives the result by value in a fresh `AllocationResult`.
///
/// Placement itself uses a deliberately minimal O(1) cursor strategy
/// (probe from `vm_id % n`): a real strategy's own per-call work —
/// FirstFit rebuilds an O(n) free-slots table either way — is identical
/// in both legs and would only mask the call-path delta this bench
/// exists to measure. Both legs place bit-identically (gated), so the
/// event counts agree and the wall-clock ratio is a pure call-path
/// comparison.
///
/// Measurements per leg:
///  * one observability-ON run reads the `sim.events` counter (event
///    counts must match across legs — same simulation);
///  * `--passes` observability-OFF runs are wall-clock timed; the
///    minimum is reported (noise on a shared host only adds latency);
///  * one run arms a global counting `operator new` over the middle
///    55–90 % of accrual intervals (past every capacity high-water
///    mark) and reports heap allocations inside that warm window.
///
/// Hard gates (non-zero exit):
///  1. **Leg parity** — energy/makespan/VM metrics bit-identical across
///     legs, event counts equal.
///  2. **Zero warm allocations (current leg)** — the armed window must
///     count 0 heap allocations (tests/datacenter/zero_alloc_test.cpp
///     pins the same property under FirstFit; this re-checks it at bench
///     scale).
///  3. **Speedup (full mode only)** — current events/sec ≥ 5× the
///     materializing baseline at 10k servers. --quick keeps gates 1–2 on
///     a smaller fleet but skips the speedup gate: smoke runs on loaded
///     CI workers must not flake on noise.
///
/// The **PA-1 scaling leg** runs the real ProactiveAllocator on one fixed
/// workload at 1k / 10k / 100k servers (--quick: 1k / 10k). The simulator
/// hands PA a view delta with every call, so per-event and per-decision
/// work should follow the busy and changed servers, not the fleet. Per
/// size the same allocator behind a delta-dropping decorator (it walks
/// the whole view on every call) is run once as the parity reference.
/// Gates:
///  4. **PA parity** — delta path and full walk bit-identical (energy,
///     makespan, VMs, event counts) at every size.
///  5. **PA zero warm allocations** — on the delta path, at every size.
///  6. **PA scaling (full mode only)** — events/sec at 100k servers ≥ half
///     of events/sec at 1k: a machine-normalised O(fleet) detector.
///
/// Usage: event_loop_throughput [--quick] [--servers N] [--bursts N]
///                              [--passes N]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "bench/harness_common.hpp"
#include "core/proactive.hpp"
#include "testing/full_walk.hpp"
#include "util/strings.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_allocations{0};

void note_allocation() noexcept {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_malloc(std::size_t size) {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* checked_aligned(std::size_t size, std::size_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size != 0 ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

// Replaceable global allocation functions ([new.delete]): every heap
// allocation in the binary funnels through these; inert unless armed.
void* operator new(std::size_t size) {
  note_allocation();
  return checked_malloc(size);
}
void* operator new[](std::size_t size) {
  note_allocation();
  return checked_malloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  note_allocation();
  return checked_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  note_allocation();
  return checked_aligned(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace aeva::bench {
namespace {

/// Full-mode floor on current-vs-materializing events/sec.
constexpr double kSpeedupFloor = 5.0;
/// Full-mode floor on PA-1 events/sec at the largest fleet over the
/// smallest.
constexpr double kScalingFloor = 0.5;
/// PA-1 leg: concurrent VMs the workload settles at, whatever the fleet.
constexpr double kPaConcurrency = 150.0;

/// Minimal O(1) placement: probe forward from `vm_id % n` for a server
/// with a free slot (fixed per-server VM capacity, all-or-nothing per
/// request). Stateless and deterministic, so both legs place identically;
/// warm calls touch only `out.placements` (capacity retained).
class CursorAllocator final : public core::Allocator {
 public:
  explicit CursorAllocator(int capacity) : capacity_(capacity) {}

  [[nodiscard]] core::AllocationResult allocate(
      std::span<const core::VmRequest> vms,
      std::span<const core::ServerState> servers) const override {
    core::AllocationResult result;
    allocate_into(vms, servers, result);
    return result;
  }

  void allocate_into(std::span<const core::VmRequest> vms,
                     std::span<const core::ServerState> servers,
                     core::AllocationResult& out) const override {
    out.placements.clear();
    out.score = core::AllocationScore{};
    out.complete = false;
    out.satisfied_qos = true;
    out.partitions_examined = 0;
    out.outcome = core::AllocationOutcome{};
    if (vms.empty()) {
      out.complete = true;
      return;
    }
    if (servers.empty()) {
      out.outcome = core::AllocationOutcome{core::AllocationPath::kRejected,
                                            core::RejectReason::kNoServers};
      return;
    }
    const std::size_t n = servers.size();
    std::size_t probe = static_cast<std::size_t>(
                            static_cast<std::uint64_t>(vms.front().id)) %
                        n;
    for (const core::VmRequest& vm : vms) {
      bool placed = false;
      for (std::size_t step = 0; step < n; ++step) {
        const core::ServerState& server = servers[probe];
        // Slots already claimed by this call are not yet visible in the
        // span; requests are narrow, so the rescan is O(w).
        int claimed = 0;
        for (const core::Placement& p : out.placements) {
          if (p.server_id == server.id) {
            ++claimed;
          }
        }
        if (server.allocated.total() + claimed < capacity_) {
          out.placements.push_back(core::Placement{vm.id, server.id});
          placed = true;
          break;
        }
        probe = probe + 1 < n ? probe + 1 : 0;
      }
      if (!placed) {
        out.placements.clear();
        out.outcome =
            core::AllocationOutcome{core::AllocationPath::kRejected,
                                    core::RejectReason::kNoFeasibleServer};
        return;
      }
    }
    out.complete = true;
  }

  [[nodiscard]] std::string name() const override { return "cursor"; }

 private:
  int capacity_;
};

/// Pre-refactor call-path emulation: every call materializes the spans
/// into freshly constructed vectors — push_back growth, no reserve, the
/// seed loop's exact `server_states()` idiom — and takes the result by
/// value in a fresh AllocationResult.
class MaterializingAllocator final : public core::Allocator {
 public:
  explicit MaterializingAllocator(const core::Allocator& inner)
      : inner_(inner) {}

  [[nodiscard]] core::AllocationResult allocate(
      std::span<const core::VmRequest> vms,
      std::span<const core::ServerState> servers) const override {
    core::AllocationResult result;
    allocate_into(vms, servers, result);
    return result;
  }

  void allocate_into(std::span<const core::VmRequest> vms,
                     std::span<const core::ServerState> servers,
                     core::AllocationResult& out) const override {
    std::vector<core::ServerState> states;
    for (const core::ServerState& server : servers) {
      states.push_back(server);
    }
    std::vector<core::VmRequest> request(vms.begin(), vms.end());
    out = inner_.allocate(request, states);
  }

  [[nodiscard]] std::string name() const override {
    return inner_.name() + "-materializing";
  }

 private:
  const core::Allocator& inner_;
};

/// Admission-heavy steady workload: `bursts` bursts of `burst` 1-VM jobs,
/// each burst submitted at one instant with one shared runtime scale and
/// profile, so a burst costs one arrival event (with `burst` allocator
/// calls) and — on a lightly loaded fleet where every VM runs solo — one
/// clustered completion event. The inter-burst gap is derived from the
/// database's solo times so concurrency plateaus at ~`target_concurrency`
/// VMs long before the middle of the run.
trace::PreparedWorkload burst_workload(const modeldb::ModelDatabase& db,
                                       int bursts, int burst,
                                       double target_concurrency) {
  util::Rng rng(90210);
  double mean_solo = 0.0;
  for (const workload::ProfileClass profile : workload::kAllProfileClasses) {
    mean_solo += db.base().of(profile).solo_time_s;
  }
  mean_solo /= static_cast<double>(workload::kProfileClassCount);
  // concurrency ≈ burst · mean_runtime / gap, mean scale is 1.25.
  const double gap =
      static_cast<double>(burst) * mean_solo * 1.25 / target_concurrency;

  trace::PreparedWorkload workload;
  long long id = 1;
  double t = 0.0;
  for (int b = 0; b < bursts; ++b) {
    const auto profile = static_cast<workload::ProfileClass>(b % 3);
    const double scale = rng.uniform(0.5, 2.0);
    for (int j = 0; j < burst; ++j) {
      trace::JobRequest job;
      job.id = id++;
      job.submit_s = t;
      job.profile = profile;
      job.vm_count = 1;
      job.runtime_scale = scale;
      job.deadline_s = 1e9;  // throughput is the subject, not SLA misses
      job.max_exec_stretch = 3.0;
      workload.total_vms += 1;
      workload.vm_mix.of(profile) += 1;
      workload.jobs.push_back(job);
    }
    t += rng.exponential(1.0 / gap);
  }
  return workload;
}

struct LegResult {
  std::uint64_t events = 0;
  double energy_j = 0.0;
  double makespan_s = 0.0;
  std::size_t vms = 0;
  double best_seconds = 0.0;
  std::uint64_t warm_allocations = 0;
};

/// Runs one leg: event and interval counts (obs ON), `passes` timed runs
/// (obs OFF), and one allocation-counting run armed over intervals
/// [55 %, 90 %).
LegResult run_leg(const modeldb::ModelDatabase& db,
                  const datacenter::CloudConfig& cloud,
                  const trace::PreparedWorkload& workload,
                  const core::Allocator& allocator, int passes) {
  LegResult leg;

  datacenter::CloudConfig counted = cloud;
  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  counted.obs = obs::Session::create(obs_config);
  std::size_t total_intervals = 0;
  {
    const datacenter::Simulator sim(db, counted);
    const datacenter::SimMetrics metrics = sim.run(
        workload, allocator,
        [&](double, double, const std::vector<double>&) { ++total_intervals; });
    leg.events = counted.obs->metrics().counter("sim.events").value();
    leg.energy_j = metrics.energy_j;
    leg.makespan_s = metrics.makespan_s;
    leg.vms = metrics.vms;
  }

  const datacenter::Simulator sim(db, cloud);
  leg.best_seconds = 1e100;
  for (int pass = 0; pass < passes; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    const datacenter::SimMetrics metrics = sim.run(workload, allocator);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    leg.best_seconds = std::min(leg.best_seconds, elapsed.count());
    if (metrics.energy_j != leg.energy_j) {
      throw std::runtime_error("timed pass diverged from the counted run");
    }
  }

  // Allocation-counting run: arm over the middle of the steady state,
  // past every capacity high-water mark, before teardown.
  const std::size_t arm_at = (total_intervals * 55) / 100;
  const std::size_t disarm_at = (total_intervals * 90) / 100;
  std::size_t interval = 0;
  g_allocations.store(0);
  const datacenter::SimMetrics counted_metrics = sim.run(
      workload, allocator, [&](double, double, const std::vector<double>&) {
        ++interval;
        if (interval == arm_at) {
          g_armed.store(true, std::memory_order_relaxed);
        } else if (interval == disarm_at) {
          g_armed.store(false, std::memory_order_relaxed);
        }
      });
  g_armed.store(false);
  leg.warm_allocations = g_allocations.load();
  if (counted_metrics.energy_j != leg.energy_j) {
    throw std::runtime_error("counting pass diverged from the counted run");
  }
  return leg;
}

/// One timed run with observability on (event count included): the PA
/// leg's full-walk parity reference, too slow at 100k servers for more.
LegResult run_reference(const modeldb::ModelDatabase& db,
                        const datacenter::CloudConfig& cloud,
                        const trace::PreparedWorkload& workload,
                        const core::Allocator& allocator) {
  datacenter::CloudConfig counted = cloud;
  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  counted.obs = obs::Session::create(obs_config);
  const datacenter::Simulator sim(db, counted);
  const auto start = std::chrono::steady_clock::now();
  const datacenter::SimMetrics metrics = sim.run(workload, allocator);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  LegResult leg;
  leg.events = counted.obs->metrics().counter("sim.events").value();
  leg.energy_j = metrics.energy_j;
  leg.makespan_s = metrics.makespan_s;
  leg.vms = metrics.vms;
  leg.best_seconds = elapsed.count();
  return leg;
}

/// One fleet size of the PA-1 scaling leg.
struct PaPoint {
  int servers = 0;
  LegResult delta;  ///< the simulator's view-delta path, timed
  LegResult walk;   ///< full walk per call (run_reference)
};

PaPoint run_pa_point(const modeldb::ModelDatabase& db, int servers,
                     const trace::PreparedWorkload& workload, int passes) {
  datacenter::CloudConfig cloud;
  cloud.server_count = servers;
  core::ProactiveConfig config;
  config.alpha = 1.0;  // PA-1
  const core::ProactiveAllocator pa(db, config);
  const core::ProactiveAllocator walked(db, config);
  const testing::FullWalkAllocator walk(walked);
  PaPoint point;
  point.servers = servers;
  point.delta = run_leg(db, cloud, workload, pa, passes);
  point.walk = run_reference(db, cloud, workload, walk);
  return point;
}

/// `[a,b,...]` of one field over the PA points.
template <class Field>
std::string json_list(const std::vector<PaPoint>& points, Field field) {
  std::string out = "[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    out += (i == 0 ? "" : ",") + field(points[i]);
  }
  return out + "]";
}

int run_main(int argc, char** argv) {
  const util::Args args(
      argc, argv,
      "steady-state event-loop throughput: span call path vs the "
      "pre-refactor materializing call path",
      {
          {"quick", "", "smaller fleet; skips the speedup gate"},
          {"servers", "N", "fleet size"},
          {"bursts", "N", "arrival bursts per run"},
          {"passes", "N", "timed passes per leg (minimum is reported)"},
      });
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }
  const bool quick = args.has("quick");
  const int servers =
      static_cast<int>(args.get_int("servers", quick ? 1000 : 10000));
  const int bursts = static_cast<int>(args.get_int("bursts", quick ? 200 : 1000));
  const int passes = static_cast<int>(args.get_int("passes", 3));
  const int pa_bursts = quick ? 200 : 1200;  // per PA-1 scaling run
  const int burst = 16;

  const modeldb::ModelDatabase& db = shared_database();
  datacenter::CloudConfig cloud;
  cloud.server_count = servers;
  const trace::PreparedWorkload workload = burst_workload(
      db, bursts, burst,
      std::min(2000.0, static_cast<double>(servers) / 5.0));

  const CursorAllocator cursor(/*capacity=*/8);
  const MaterializingAllocator materializing(cursor);

  std::cout << "event_loop_throughput: " << servers << " servers, "
            << workload.jobs.size() << " jobs in " << bursts
            << " bursts, " << passes << " timed passes per leg\n";

  const LegResult current = run_leg(db, cloud, workload, cursor, passes);
  const LegResult baseline =
      run_leg(db, cloud, workload, materializing, passes);

  bool ok = true;
  if (current.events != baseline.events ||
      current.energy_j != baseline.energy_j ||
      current.makespan_s != baseline.makespan_s ||
      current.vms != baseline.vms) {
    ok = false;
    std::cout << "FAIL: legs diverged (events " << current.events << " vs "
              << baseline.events << ", energy " << current.energy_j << " vs "
              << baseline.energy_j << ") — the materializing decorator must "
              << "be a pure cost wrapper\n";
  }
  if (current.warm_allocations != 0) {
    ok = false;
    std::cout << "FAIL: " << current.warm_allocations
              << " heap allocations inside the warm window — the span call "
              << "path must be allocation-free in steady state\n";
  }

  const double events_per_s_current =
      static_cast<double>(current.events) / current.best_seconds;
  const double events_per_s_baseline =
      static_cast<double>(baseline.events) / baseline.best_seconds;
  const double speedup = events_per_s_current / events_per_s_baseline;
  std::cout << "current:  " << util::format_fixed(events_per_s_current, 0)
            << " events/s, warm allocs " << current.warm_allocations << "\n";
  std::cout << "baseline: " << util::format_fixed(events_per_s_baseline, 0)
            << " events/s, warm allocs " << baseline.warm_allocations << "\n";
  std::cout << "speedup:  " << util::format_fixed(speedup, 2) << "x\n";
  if (!quick && speedup < kSpeedupFloor) {
    ok = false;
    std::cout << "FAIL: speedup " << util::format_fixed(speedup, 2)
              << "x below the " << util::format_fixed(kSpeedupFloor, 1)
              << "x floor\n";
  }

  // --- PA-1 scaling leg ----------------------------------------------------
  const trace::PreparedWorkload pa_workload =
      burst_workload(db, pa_bursts, burst, kPaConcurrency);
  std::vector<int> pa_sizes = {1000, 10000};
  if (!quick) {
    pa_sizes.push_back(100000);
  }
  std::cout << "PA-1 scaling: " << pa_workload.jobs.size() << " jobs in "
            << pa_bursts << " bursts per run\n";
  std::vector<PaPoint> points;
  for (const int size : pa_sizes) {
    points.push_back(run_pa_point(db, size, pa_workload, passes));
    const PaPoint& p = points.back();
    const double eps = static_cast<double>(p.delta.events) /
                       p.delta.best_seconds;
    const double walk_eps =
        static_cast<double>(p.walk.events) / p.walk.best_seconds;
    std::cout << "  " << size << " servers: "
              << util::format_fixed(eps, 0) << " events/s (full walk "
              << util::format_fixed(walk_eps, 0) << "), warm allocs "
              << p.delta.warm_allocations << "\n";
    if (p.delta.events != p.walk.events ||
        p.delta.energy_j != p.walk.energy_j ||
        p.delta.makespan_s != p.walk.makespan_s ||
        p.delta.vms != p.walk.vms) {
      ok = false;
      std::cout << "FAIL: PA-1 delta path and full walk diverged at " << size
                << " servers (events " << p.delta.events << " vs "
                << p.walk.events << ", energy " << p.delta.energy_j << " vs "
                << p.walk.energy_j << ")\n";
    }
    if (p.delta.warm_allocations != 0) {
      ok = false;
      std::cout << "FAIL: " << p.delta.warm_allocations
                << " heap allocations inside the PA-1 warm window at "
                << size << " servers\n";
    }
  }
  const auto events_per_s = [](const LegResult& leg) {
    return static_cast<double>(leg.events) / leg.best_seconds;
  };
  const double scaling =
      events_per_s(points.back().delta) / events_per_s(points.front().delta);
  std::cout << "PA-1 scaling " << points.back().servers << "/"
            << points.front().servers
            << " servers: " << util::format_fixed(scaling, 2) << "\n";
  if (!quick && scaling < kScalingFloor) {
    ok = false;
    std::cout << "FAIL: PA-1 events/s at " << points.back().servers
              << " servers is " << util::format_fixed(scaling, 2)
              << "x the rate at " << points.front().servers
              << " servers, below the "
              << util::format_fixed(kScalingFloor, 2) << "x floor\n";
  }

  if (ok) {
    std::cout << "parity + allocation + throughput gates: PASS\n";
  }

  std::string json = "BENCH_JSON {\"bench\":\"event_loop_throughput\"";
  json += ",\"mode\":\"";
  json += quick ? "quick" : "full";
  json += "\"";
  json += ",\"servers\":" + std::to_string(servers);
  json += ",\"jobs\":" + std::to_string(workload.jobs.size());
  json += ",\"events\":" + std::to_string(current.events);
  json += ",\"events_per_s\":" + util::format_fixed(events_per_s_current, 1);
  json += ",\"baseline_events_per_s\":" +
          util::format_fixed(events_per_s_baseline, 1);
  json += ",\"speedup\":" + util::format_fixed(speedup, 3);
  json += ",\"warm_allocs\":" + std::to_string(current.warm_allocations);
  json += ",\"baseline_warm_allocs\":" +
          std::to_string(baseline.warm_allocations);
  json += ",\"pa_jobs\":" + std::to_string(pa_workload.jobs.size());
  json += ",\"pa_servers\":" + json_list(points, [](const PaPoint& p) {
            return std::to_string(p.servers);
          });
  json += ",\"pa_events\":" + json_list(points, [](const PaPoint& p) {
            return std::to_string(p.delta.events);
          });
  json += ",\"pa_events_per_s\":" +
          json_list(points, [&](const PaPoint& p) {
            return util::format_fixed(events_per_s(p.delta), 1);
          });
  json += ",\"pa_walk_events_per_s\":" +
          json_list(points, [&](const PaPoint& p) {
            return util::format_fixed(events_per_s(p.walk), 1);
          });
  json += ",\"pa_warm_allocs\":" + json_list(points, [](const PaPoint& p) {
            return std::to_string(p.delta.warm_allocations);
          });
  json += ",\"pa_scaling\":" + util::format_fixed(scaling, 3);
  json += ",\"pass\":";
  json += ok ? "true" : "false";
  json += "}";
  std::cout << json << "\n";
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace aeva::bench

int main(int argc, char** argv) {
  try {
    return aeva::bench::run_main(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "event_loop_throughput: " << error.what() << "\n";
    return 2;
  }
}
