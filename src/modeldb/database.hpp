#pragma once

/// \file database.hpp
/// The empirical allocation-model database (Sect. III-C).
///
/// Records are kept sorted by the (Ncpu, Nmem, Nio) key and located with
/// binary search in O(log num_tests), exactly as the paper describes.
/// Persistence is a plain-text CSV file plus an auxiliary file holding the
/// base-test parameters (OS*/T*), mirroring the paper's storage choice.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "modeldb/record.hpp"
#include "util/csv.hpp"
#include "workload/profile.hpp"

namespace aeva::modeldb {

/// Immutable, sorted, binary-searched model database.
class ModelDatabase {
 public:
  /// Builds from measured records (any order; duplicates by key rejected)
  /// and the base-test parameters.
  ModelDatabase(std::vector<Record> records, BaseParameters base);

  /// Exact lookup via binary search; nullptr when the key was not measured.
  [[nodiscard]] const Record* find(workload::ClassCounts key) const noexcept;

  /// Paper lookup semantics: exact hit when measured, otherwise "use the
  /// matching values proportionally" — the key is clamped to the measured
  /// grid and time/energy are scaled by the total-VM ratio (DESIGN.md §6).
  /// Throws std::invalid_argument for an empty key (no VMs).
  [[nodiscard]] Record estimate(workload::ClassCounts key) const;

  /// Alternative off-grid estimator (ablation): separable per-axis linear
  /// extrapolation. For each class whose count exceeds the measured box,
  /// the growth rate of time/energy along that axis (finite difference at
  /// the box edge) extends the estimate, capturing contention slopes that
  /// plain proportional scaling flattens. Exact hits are returned as-is.
  [[nodiscard]] Record estimate_extrapolated(workload::ClassCounts key) const;

  /// True when the exact key was measured.
  [[nodiscard]] bool measured(workload::ClassCounts key) const noexcept {
    return find(key) != nullptr;
  }

  /// Largest measured count per class over all records (grid extent).
  [[nodiscard]] workload::ClassCounts grid_extent() const noexcept {
    return extent_;
  }

  /// True when measured energy is monotone non-decreasing along every
  /// class axis (each record's energy ≥ that of every measured unit-step
  /// predecessor, with all predecessors present). Computed once at
  /// construction. The proactive allocator's branch-and-bound pruning may
  /// include the energy term in its lower bound only when this holds —
  /// otherwise a later block could carry negative marginal energy and the
  /// partial sum would not bound the final score (docs/PERFORMANCE.md).
  [[nodiscard]] bool energy_monotone() const noexcept {
    return energy_monotone_;
  }

  /// estimate() energy of one VM of `profile` running alone. Computed once
  /// at construction: every allocation decision's energy normalization
  /// reads it.
  [[nodiscard]] double solo_energy_j(
      workload::ProfileClass profile) const noexcept {
    return solo_energy_j_[static_cast<std::size_t>(profile)];
  }

  [[nodiscard]] const BaseParameters& base() const noexcept { return base_; }
  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  // --- persistence --------------------------------------------------------

  /// Serializes the records to a CSV table (Table II schema + extensions).
  [[nodiscard]] util::CsvTable to_csv() const;

  /// Serializes the auxiliary base-parameter file.
  [[nodiscard]] util::CsvTable aux_to_csv() const;

  /// Reconstructs a database from the two CSV tables; validates schema.
  [[nodiscard]] static ModelDatabase from_csv(const util::CsvTable& records,
                                              const util::CsvTable& aux);

  /// Writes `<path>` (records) and `<aux_path>` (base parameters).
  void save(const std::string& path, const std::string& aux_path) const;

  /// Loads a database previously written with `save`.
  [[nodiscard]] static ModelDatabase load(const std::string& path,
                                          const std::string& aux_path);

 private:
  std::vector<Record> records_;  // sorted by key
  BaseParameters base_;
  workload::ClassCounts extent_;
  bool energy_monotone_ = false;
  double solo_energy_j_[workload::kProfileClassCount] = {0.0, 0.0, 0.0};
};

}  // namespace aeva::modeldb
