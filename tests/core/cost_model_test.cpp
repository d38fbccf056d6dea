#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include "testing/shared_db.hpp"

namespace aeva::core {
namespace {

using workload::ClassCounts;
using workload::ProfileClass;

const modeldb::ModelDatabase& db() { return testing::shared_db(); }

TEST(CostModel, EmptyMixIsFeasible) {
  const CostModel model(db());
  EXPECT_TRUE(model.feasible(ClassCounts{}));
}

TEST(CostModel, FeasibilityBoundedByOsBox) {
  const CostModel model(db());
  const auto& base = db().base();
  EXPECT_TRUE(model.feasible(
      ClassCounts{base.cpu.os(), base.mem.os(), base.io.os()}));
  EXPECT_FALSE(model.feasible(ClassCounts{base.cpu.os() + 1, 0, 0}));
  EXPECT_FALSE(model.feasible(ClassCounts{0, base.mem.os() + 1, 0}));
  EXPECT_FALSE(model.feasible(ClassCounts{0, 0, base.io.os() + 1}));
}

TEST(CostModel, FeasibilityBoundedByVmCap) {
  const CostModel tight(db(), 2);
  EXPECT_TRUE(tight.feasible(ClassCounts{1, 1, 0}));
  EXPECT_FALSE(tight.feasible(ClassCounts{1, 1, 1}));
}

TEST(CostModel, NegativeCountsInfeasible) {
  const CostModel model(db());
  EXPECT_FALSE(model.feasible(ClassCounts{-1, 1, 1}));
}

TEST(CostModel, VmTimeMatchesDatabaseEstimate) {
  const CostModel model(db());
  const ClassCounts mix{2, 1, 0};
  EXPECT_DOUBLE_EQ(model.vm_time_s(ProfileClass::kCpu, mix),
                   db().estimate(mix).time_of(ProfileClass::kCpu));
}

TEST(CostModel, VmTimeRequiresClassPresent) {
  const CostModel model(db());
  EXPECT_THROW((void)model.vm_time_s(ProfileClass::kIo, ClassCounts{1, 0, 0}),
               std::invalid_argument);
}

TEST(CostModel, MixEnergyZeroForEmpty) {
  const CostModel model(db());
  EXPECT_DOUBLE_EQ(model.mix_energy_j(ClassCounts{}), 0.0);
  EXPECT_GT(model.mix_energy_j(ClassCounts{1, 0, 0}), 0.0);
}

TEST(CostModel, DynamicEnergyExcludesIdleBaseline) {
  const CostModel model(db());
  const ClassCounts mix{1, 0, 0};
  const modeldb::Record rec = db().estimate(mix);
  EXPECT_NEAR(model.dynamic_energy_j(mix),
              rec.energy_j - 125.0 * rec.time_s, rec.energy_j * 0.01);
  EXPECT_LT(model.dynamic_energy_j(mix), model.mix_energy_j(mix));
  EXPECT_DOUBLE_EQ(model.dynamic_energy_j(ClassCounts{}), 0.0);
}

TEST(CostModel, SoloTimesComeFromTableI) {
  const CostModel model(db());
  for (const ProfileClass profile : workload::kAllProfileClasses) {
    EXPECT_DOUBLE_EQ(model.solo_time_s(profile),
                     db().base().of(profile).solo_time_s);
  }
}

TEST(CostModel, SoloEnergyIsSingleVmRecord) {
  const CostModel model(db());
  for (const ProfileClass profile : workload::kAllProfileClasses) {
    ClassCounts solo;
    solo.of(profile) = 1;
    EXPECT_EQ(model.solo_energy_j(profile), db().estimate(solo).energy_j)
        << workload::to_string(profile);
  }
}

TEST(CostModel, ReferencesAreClassWeightedMeans) {
  const CostModel model(db());
  const ClassCounts request{1, 1, 0};
  EXPECT_NEAR(model.time_reference_s(request),
              (model.solo_time_s(ProfileClass::kCpu) +
               model.solo_time_s(ProfileClass::kMem)) /
                  2.0,
              1e-9);
  EXPECT_NEAR(model.energy_reference_j(request),
              (model.solo_energy_j(ProfileClass::kCpu) +
               model.solo_energy_j(ProfileClass::kMem)) /
                  2.0,
              1e-6);
}

TEST(CostModel, ReferencesRejectEmptyRequest) {
  const CostModel model(db());
  EXPECT_THROW((void)model.time_reference_s(ClassCounts{}),
               std::invalid_argument);
  EXPECT_THROW((void)model.energy_reference_j(ClassCounts{}),
               std::invalid_argument);
}

TEST(CostModel, RejectsBadConstruction) {
  EXPECT_THROW(CostModel(db(), 0), std::invalid_argument);
  EXPECT_THROW(CostModel(db(), 16, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace aeva::core
