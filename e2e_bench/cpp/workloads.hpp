#pragma once

/// \file workloads.hpp
/// The benchmark's named workloads (README.md in this directory explains
/// why each exists). Each one sets itself up from the seed, runs through
/// the public entry points datacenter::Simulator::run or
/// serve::AllocationService::run for the given number of wall-clock
/// seconds, checks the outputs, and reports either the end-to-end
/// metrics (untraced) or the per-layer breakdown (traced).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_support.hpp"

namespace aeva::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 2026;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced input sizes, for the self-test only.
  bool small = false;
};

/// A pass runs the workload on one input, and every pass of a run takes
/// the next input derived from --seed. How much work an input takes varies
/// with its seed: on the loaded paper clouds the mean queue depth ranges
/// from ~40 to ~110 between seeds, and the host time per VM with it. A run
/// that covers many inputs makes throughput follow the code, not the seed.
///
/// The first kOutcomeInputs inputs always run untraced; the simulated
/// outcome metrics come from them, so they depend on the seed only.
inline constexpr std::size_t kOutcomeInputs = 3;

/// Seed of the i-th input of a run: seed · 2^20 + i, so that runs with
/// different seeds share no input.
[[nodiscard]] inline std::uint64_t input_seed(std::uint64_t seed,
                                              std::size_t i) {
  return (seed << 20) + static_cast<std::uint64_t>(i);
}

/// paper_matrix, sim_fleet_10k and sim_faults_1k.
[[nodiscard]] Report run_sim(const Options& options);
/// serve_churn_20k.
[[nodiscard]] Report run_serve(const Options& options);

}  // namespace aeva::e2e
