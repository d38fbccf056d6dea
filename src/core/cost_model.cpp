#include "core/cost_model.hpp"

#include "util/error.hpp"

namespace aeva::core {

using workload::ClassCounts;
using workload::ProfileClass;

CostModel::CostModel(const modeldb::ModelDatabase& db, int server_vm_cap,
                     double idle_power_w)
    : db_(&db), cap_(server_vm_cap), idle_power_w_(idle_power_w) {
  AEVA_REQUIRE(server_vm_cap >= 1, "per-server VM cap must be >= 1");
  AEVA_REQUIRE(idle_power_w >= 0.0, "negative idle power");
}

bool CostModel::feasible(ClassCounts mix) const noexcept {
  if (mix.cpu < 0 || mix.mem < 0 || mix.io < 0) {
    return false;
  }
  const int total = mix.total();
  if (total == 0) {
    return true;  // an empty server is always fine
  }
  if (total > cap_) {
    return false;
  }
  // Allocation candidates are confined to the measured optimal-scenario
  // box [0..OSC]×[0..OSM]×[0..OSI] (Sect. III-B): the campaign never
  // benchmarks beyond OS* per class, and the base tests show that denser
  // same-type packings degrade individual completion times even where the
  // avgTimeVM metric stays flat.
  const modeldb::BaseParameters& base = db_->base();
  return mix.cpu <= base.cpu.os() && mix.mem <= base.mem.os() &&
         mix.io <= base.io.os();
}

double CostModel::vm_time_s(ProfileClass profile, ClassCounts mix) const {
  AEVA_REQUIRE(mix.of(profile) > 0, "mix contains no VM of class ",
               workload::to_string(profile));
  return estimate(mix).time_of(profile);
}

double CostModel::mix_energy_j(ClassCounts mix) const {
  if (mix.total() == 0) {
    return 0.0;
  }
  return estimate(mix).energy_j;
}

double CostModel::dynamic_energy_j(ClassCounts mix) const {
  if (mix.total() == 0) {
    return 0.0;
  }
  const modeldb::Record rec = estimate(mix);
  // Never negative: measured mixes always draw at least the baseline.
  const double dynamic = rec.energy_j - idle_power_w_ * rec.time_s;
  return dynamic > 0.0 ? dynamic : 0.0;
}

double CostModel::solo_time_s(ProfileClass profile) const {
  return db_->base().of(profile).solo_time_s;
}

double CostModel::solo_dynamic_energy_j(ProfileClass profile) const {
  ClassCounts solo;
  solo.of(profile) = 1;
  return dynamic_energy_j(solo);
}

double CostModel::time_reference_s(ClassCounts request) const {
  AEVA_REQUIRE(request.total() > 0, "empty request");
  double acc = 0.0;
  for (const ProfileClass profile : workload::kAllProfileClasses) {
    acc += request.of(profile) * solo_time_s(profile);
  }
  return acc / request.total();
}

double CostModel::energy_reference_j(ClassCounts request) const {
  AEVA_REQUIRE(request.total() > 0, "empty request");
  double acc = 0.0;
  for (const ProfileClass profile : workload::kAllProfileClasses) {
    acc += request.of(profile) * solo_energy_j(profile);
  }
  return acc / request.total();
}

}  // namespace aeva::core
