/// Microbench: decision latency of the incremental serve planner
/// (docs/PERFORMANCE.md "Decision latency", docs/SERVING.md).
///
/// A large fleet is driven through a deterministic churn replay (seeded
/// request stream, random releases) three times:
///
///  1. **Parity pass (untimed).** Every request is planned in lockstep by
///     core::FleetState (the incremental planner) and by the plain
///     per-server reference scorer over the same up-server vector
///     (testing::ReferenceProactiveAllocator, tests/testing/reference_pa.hpp
///     — the exhaustive baseline: it rescans every server for every block
///     of every candidate); every decision's placements, scores (bitwise),
///     outcome, and search effort must match.
///  2. **Incremental timing passes.** The identical replay, planned by
///     the incremental planner alone; each plan() call is wall-clock
///     timed.
///  3. **Exhaustive timing passes.** The identical replay again, planned
///     by the reference scorer alone over the equivalent server vector.
///
/// Each timing pass runs three times and the reported percentiles are
/// the per-pass minima: scheduler and cache noise from a shared host only
/// ever adds latency, so the minimum is the robust estimate of what each
/// planner actually costs.
///
/// Timing each planner in its own pass is the point: a lockstep loop
/// times each side while the *other* planner's pass over the fleet is
/// evicting its working set, so neither side's steady-state latency is
/// what gets measured (docs/PERFORMANCE.md "Decision latency"). The
/// replay is deterministic — same seed, same plans — so the three passes
/// place identical decisions; the accumulated planned energy of each
/// timing pass is gated against the parity pass to prove it.
///
/// The first `--warmup` decisions of each timing pass are excluded from
/// the latency percentiles (never from the parity gates): serve mode's
/// steady-state decision rate is the quantity under test, and the
/// incremental planner's caches — like any cache — fill over the first
/// minutes of a fresh serve loop (docs/PERFORMANCE.md explains the
/// cold-start transient and how to measure it instead).
///
/// Hard gates (non-zero exit):
///  1. **Exact parity, every decision** (pass 1, warmup included).
///  2. **Energy / makespan ablation.** Accumulated planned energy and
///     estimated makespan must agree within 1e-9 relative across the
///     planners (parity makes the delta identically zero; the threshold
///     catches any future drift-tolerant shortcut) and across the three
///     passes (replay determinism).
///  3. **Speedup (full mode only).** Incremental steady-state p50 must be
///     at least 10x faster than the exhaustive baseline on the large
///     workload. --quick keeps gates 1-2 on a smaller fleet but skips the
///     speedup gate: smoke runs on loaded CI workers must not flake on
///     noise.
///
/// Usage: serve_latency [--quick] [--decisions N] [--servers N]
///                      [--warmup N]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness_common.hpp"
#include "core/incremental.hpp"
#include "testing/reference_pa.hpp"
#include "util/strings.hpp"

namespace {

using namespace aeva;

/// Full-mode floor on exhaustive-p50 / incremental-p50.
constexpr double kSpeedupFloor = 10.0;
/// Relative tolerance of the energy / makespan ablation gate.
constexpr double kParityTolerance = 1e-9;

[[nodiscard]] bool results_equal(const core::AllocationResult& a,
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

[[nodiscard]] double percentile_us(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1));
  return samples[index];
}

enum class Pass { kParity, kIncremental, kExhaustive };

/// One full churn replay. The request and release streams are pure
/// functions of the seed and the (deterministic) plans, so every pass
/// places the same decisions; `Pass` selects which planner runs and is
/// timed.
struct ReplayResult {
  bool ok = true;
  std::uint64_t placed = 0;
  double energy = 0.0;    ///< accumulated planned energy (timed planner)
  double makespan = 0.0;  ///< accumulated estimated makespan
  double reference_energy = 0.0;    ///< parity pass only: exhaustive side
  double reference_makespan = 0.0;  ///< parity pass only
  std::vector<double> us;       ///< post-warmup latencies (timing passes)
  core::FleetStats stats;       ///< incremental planner counters
};

ReplayResult run_replay(Pass pass, std::size_t decisions, int servers,
                        std::size_t warmup, const modeldb::ModelDatabase& db,
                        const core::ProactiveConfig& config) {
  ReplayResult out;
  std::vector<core::ServerState> ground(static_cast<std::size_t>(servers));
  for (int i = 0; i < servers; ++i) {
    ground[static_cast<std::size_t>(i)].id = i;
  }

  std::optional<core::FleetState> fleet;
  if (pass != Pass::kExhaustive) {
    fleet.emplace(db, config);
    fleet->reset(ground);
  }
  std::optional<testing::ReferenceProactiveAllocator> reference;
  if (pass != Pass::kIncremental) {
    reference.emplace(db, config);
  }

  util::Rng rng(2026);
  struct Resident {
    int server_id = 0;
    workload::ProfileClass profile{};
  };
  std::vector<Resident> residents;
  out.us.reserve(decisions);

  using clock = std::chrono::steady_clock;
  for (std::size_t d = 0; d < decisions; ++d) {
    const int vm_count = static_cast<int>(rng.uniform_int(1, 4));
    std::vector<core::VmRequest> vms;
    for (int i = 0; i < vm_count; ++i) {
      core::VmRequest vm;
      vm.id = i + 1;
      vm.profile = workload::kAllProfileClasses[static_cast<std::size_t>(
          rng.uniform_int(0, 2))];
      vm.max_exec_time_s =
          rng.bernoulli(0.25) ? rng.uniform(1500.0, 5000.0) : 1e12;
      vms.push_back(vm);
    }

    core::AllocationResult chosen;
    switch (pass) {
      case Pass::kParity: {
        chosen = fleet->plan(vms);
        const core::AllocationResult want =
            reference->allocate(vms, fleet->up_servers());
        if (!results_equal(chosen, want)) {
          std::cerr << "FAIL: decision " << d
                    << " diverges from the exhaustive baseline (incremental "
                    << (chosen.complete ? "placed" : "rejected")
                    << ", exhaustive "
                    << (want.complete ? "placed" : "rejected") << ")\n";
          out.ok = false;
          return out;
        }
        if (chosen.complete) {
          out.reference_energy += want.score.est_energy_j;
          out.reference_makespan += want.score.est_time_s;
        }
        break;
      }
      case Pass::kIncremental: {
        const auto t0 = clock::now();
        chosen = fleet->plan(vms);
        const auto t1 = clock::now();
        if (d >= warmup) {
          out.us.push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
        break;
      }
      case Pass::kExhaustive: {
        const auto t0 = clock::now();
        chosen = reference->allocate(vms, ground);
        const auto t1 = clock::now();
        if (d >= warmup) {
          out.us.push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
        break;
      }
    }

    if (chosen.complete) {
      ++out.placed;
      out.energy += chosen.score.est_energy_j;
      out.makespan += chosen.score.est_time_s;
      for (const core::Placement& p : chosen.placements) {
        const workload::ProfileClass profile =
            vms[static_cast<std::size_t>(p.vm_id - 1)].profile;
        if (fleet) {
          fleet->allocate(p.server_id, profile);
        } else {
          // Mirror FleetState::allocate on the plain vector: ids are the
          // vector positions, and `powered` latches true on first use.
          core::ServerState& server =
              ground[static_cast<std::size_t>(p.server_id)];
          server.allocated.of(profile) += 1;
          server.powered = true;
        }
        residents.push_back(Resident{p.server_id, profile});
      }
    }
    // Random releases keep the fleet churning below saturation.
    while (!residents.empty() && rng.bernoulli(0.45)) {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(residents.size()) - 1));
      if (fleet) {
        fleet->deallocate(residents[pick].server_id, residents[pick].profile);
      } else {
        ground[static_cast<std::size_t>(residents[pick].server_id)]
            .allocated.of(residents[pick].profile) -= 1;
      }
      residents[pick] = residents.back();
      residents.pop_back();
    }
  }

  if (fleet) {
    out.stats = fleet->stats();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(
      argc, argv,
      "incremental-vs-exhaustive decision latency and parity gates",
      {
          {"quick", "", "smaller fleet; skips the speedup gate"},
          {"decisions", "N", "churn decisions per replay pass"},
          {"servers", "N", "fleet size"},
          {"warmup", "N", "decisions excluded from latency percentiles"},
      });
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }
  const bool quick = args.has("quick");
  const auto decisions = static_cast<std::size_t>(
      args.get_int("decisions", quick ? 60 : 4000));
  const int servers = static_cast<int>(
      args.get_int("servers", quick ? 96 : 480));
  const auto warmup = std::min(
      static_cast<std::size_t>(args.get_int("warmup", quick ? 20 : 1500)),
      decisions);

  const modeldb::ModelDatabase& db = bench::shared_database();
  core::ProactiveConfig config;
  config.alpha = 0.5;

  std::cout << "serve_latency: 3 replay passes (parity, incremental, "
            << "exhaustive) of " << decisions << " decisions on " << servers
            << " servers, first " << warmup
            << " of each timing pass excluded as warmup"
            << (quick ? " (quick: speedup gate off)" : "") << "\n";

  constexpr int kTimingRepeats = 3;
  bool ok = true;
  const ReplayResult parity =
      run_replay(Pass::kParity, decisions, servers, warmup, db, config);
  ok = parity.ok;

  const auto relative_delta = [](double a, double b) {
    return std::abs(a - b) / std::max(1.0, std::abs(b));
  };
  if (ok && parity.placed == 0) {
    std::cerr << "FAIL: the replay never placed a request — the parity and "
                 "latency gates measured nothing\n";
    ok = false;
  }
  if (ok &&
      relative_delta(parity.energy, parity.reference_energy) >
          kParityTolerance) {
    std::cerr << "FAIL: accumulated planned energy diverged ("
              << parity.energy << " J incremental vs "
              << parity.reference_energy << " J exhaustive)\n";
    ok = false;
  }
  if (ok && relative_delta(parity.makespan, parity.reference_makespan) >
                kParityTolerance) {
    std::cerr << "FAIL: accumulated estimated makespan diverged ("
              << parity.makespan << " s incremental vs "
              << parity.reference_makespan << " s exhaustive)\n";
    ok = false;
  }

  double inc_p50 = 0.0;
  double inc_p99 = 0.0;
  double ref_p50 = 0.0;
  double ref_p99 = 0.0;
  core::FleetStats inc_stats;
  if (ok) {
    for (int rep = 0; rep < kTimingRepeats && ok; ++rep) {
      const ReplayResult inc = run_replay(Pass::kIncremental, decisions,
                                          servers, warmup, db, config);
      const ReplayResult ref = run_replay(Pass::kExhaustive, decisions,
                                          servers, warmup, db, config);
      // Replay determinism: every timing pass must place the exact
      // decisions the parity pass gated, or its latencies measured a
      // different workload.
      for (const ReplayResult* pass : {&inc, &ref}) {
        if (pass->placed != parity.placed ||
            relative_delta(pass->energy, parity.energy) > kParityTolerance) {
          std::cerr << "FAIL: a timing pass diverged from the parity replay ("
                    << pass->placed << "/" << parity.placed << " placed, "
                    << pass->energy << " J vs " << parity.energy << " J)\n";
          ok = false;
        }
      }
      const auto fold_min = [rep](double& into, double sample) {
        into = rep == 0 ? sample : std::min(into, sample);
      };
      fold_min(inc_p50, percentile_us(inc.us, 0.50));
      fold_min(inc_p99, percentile_us(inc.us, 0.99));
      fold_min(ref_p50, percentile_us(ref.us, 0.50));
      fold_min(ref_p99, percentile_us(ref.us, 0.99));
      inc_stats = inc.stats;
    }
  }
  const double speedup_p50 = inc_p50 > 0.0 ? ref_p50 / inc_p50 : 0.0;
  const double speedup_p99 = inc_p99 > 0.0 ? ref_p99 / inc_p99 : 0.0;

  std::cout << "  incremental : p50 " << util::format_fixed(inc_p50, 1)
            << " us, p99 " << util::format_fixed(inc_p99, 1) << " us ("
            << inc_stats.groups << " groups, " << inc_stats.memo_entries
            << " memo entries)\n"
            << "  exhaustive  : p50 " << util::format_fixed(ref_p50, 1)
            << " us, p99 " << util::format_fixed(ref_p99, 1) << " us\n"
            << "  speedup     : p50 " << util::format_fixed(speedup_p50, 1)
            << "x, p99 " << util::format_fixed(speedup_p99, 1) << "x ("
            << parity.placed << "/" << decisions << " placed)\n";

  if (ok && !quick && speedup_p50 < kSpeedupFloor) {
    std::cerr << "FAIL: incremental p50 speedup "
              << util::format_fixed(speedup_p50, 1) << "x is below the "
              << util::format_fixed(kSpeedupFloor, 0) << "x floor on "
              << servers << " servers\n";
    ok = false;
  }
  if (ok) {
    std::cout << "parity + latency gates: PASS\n";
  }

  std::string json = "BENCH_JSON {\"bench\":\"serve_latency\"";
  json += ",\"servers\":" + std::to_string(servers);
  json += ",\"decisions\":" + std::to_string(decisions);
  json += ",\"warmup\":" + std::to_string(warmup);
  json += ",\"placed\":" + std::to_string(parity.placed);
  json += ",\"incremental_p50_us\":" + util::format_fixed(inc_p50, 3);
  json += ",\"incremental_p99_us\":" + util::format_fixed(inc_p99, 3);
  json += ",\"exhaustive_p50_us\":" + util::format_fixed(ref_p50, 3);
  json += ",\"exhaustive_p99_us\":" + util::format_fixed(ref_p99, 3);
  json += ",\"speedup_p50\":" + util::format_fixed(speedup_p50, 3);
  json += ",\"speedup_p99\":" + util::format_fixed(speedup_p99, 3);
  json += ",\"groups\":" + std::to_string(inc_stats.groups);
  json += ",\"memo_entries\":" + std::to_string(inc_stats.memo_entries);
  json += ",\"energy_delta_rel\":" +
          util::format_fixed(
              relative_delta(parity.energy, parity.reference_energy), 12);
  json += ",\"makespan_delta_rel\":" +
          util::format_fixed(
              relative_delta(parity.makespan, parity.reference_makespan), 12);
  json += ",\"pass\":";
  json += ok ? "true" : "false";
  json += "}";
  std::cout << json << "\n";
  return ok ? 0 : 1;
}
