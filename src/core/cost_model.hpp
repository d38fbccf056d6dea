#pragma once

/// \file cost_model.hpp
/// Cost estimation on top of the empirical model database: feasibility of a
/// per-server mix, estimated per-VM execution times, marginal energy, and
/// the normalization references used by the α-weighted rank.

#include <vector>

#include "core/types.hpp"
#include "modeldb/database.hpp"
#include "workload/profile.hpp"

namespace aeva::core {

/// Thin, cache-friendly view over the model database used by the proactive
/// allocator and the datacenter accountant. Holds a reference — the
/// database must outlive the model.
class CostModel {
 public:
  /// `server_vm_cap` bounds the total VMs per server (the testbed was
  /// benchmarked up to 16); `idle_power_w` is the fixed draw of a powered
  /// server (125 W in the paper's evaluation), used to separate dynamic
  /// from baseline energy.
  explicit CostModel(const modeldb::ModelDatabase& db, int server_vm_cap = 16,
                     double idle_power_w = 125.0);

  /// A mix is an admissible allocation candidate when its total is within
  /// the per-server cap and each class count is within the measured
  /// optimal-scenario box [0..OSC]×[0..OSM]×[0..OSI].
  [[nodiscard]] bool feasible(workload::ClassCounts mix) const noexcept;

  /// Estimated outcome of running `mix` on one server (paper lookup
  /// semantics — exact or proportional).
  [[nodiscard]] modeldb::Record estimate(workload::ClassCounts mix) const {
    return db_->estimate(mix);
  }

  /// Estimated execution time of one VM of `profile` inside `mix`.
  [[nodiscard]] double vm_time_s(workload::ProfileClass profile,
                                 workload::ClassCounts mix) const;

  /// Energy of running `mix` to completion on one server; 0 for an empty
  /// mix.
  [[nodiscard]] double mix_energy_j(workload::ClassCounts mix) const;

  /// Energy of `mix` above the idle baseline: E − idle_power · T. This is
  /// the quantity the energy goal (α → 1) must minimize in a datacenter
  /// whose powered servers dissipate the baseline regardless of placement
  /// (Sect. IV-A); ranking by total energy would reward slow, dense
  /// packings whose idle-time cost the cluster pays anyway.
  [[nodiscard]] double dynamic_energy_j(workload::ClassCounts mix) const;

  /// Solo execution time T* of the class (Table I).
  [[nodiscard]] double solo_time_s(workload::ProfileClass profile) const;

  /// Solo energy of one VM of the class (pure single-VM database entry).
  [[nodiscard]] double solo_energy_j(workload::ProfileClass profile) const {
    return db_->solo_energy_j(profile);
  }

  /// Solo *dynamic* energy of one VM of the class.
  [[nodiscard]] double solo_dynamic_energy_j(
      workload::ProfileClass profile) const;

  /// Mean solo time over a request mix — the time-normalization reference.
  [[nodiscard]] double time_reference_s(workload::ClassCounts request) const;

  /// Mean solo dynamic energy per VM over a request mix — the energy
  /// normalization reference of the α-weighted rank.
  [[nodiscard]] double energy_reference_j(workload::ClassCounts request) const;

  [[nodiscard]] int server_vm_cap() const noexcept { return cap_; }
  [[nodiscard]] double idle_power_w() const noexcept { return idle_power_w_; }
  [[nodiscard]] const modeldb::ModelDatabase& db() const noexcept {
    return *db_;
  }

 private:
  const modeldb::ModelDatabase* db_;
  int cap_;
  double idle_power_w_;
};

}  // namespace aeva::core
