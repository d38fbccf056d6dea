#include "partition/typed_partition.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "partition/set_partition.hpp"

namespace aeva::partition {
namespace {

using workload::ClassCounts;

std::size_t count_all(ClassCounts total) {
  return count_typed_partitions(
      total, [](const ClassCounts&) { return true; });
}

TEST(TypedPartition, SingleVm) {
  EXPECT_EQ(count_all({1, 0, 0}), 1u);
}

TEST(TypedPartition, HomogeneousCountsAreIntegerPartitions) {
  // Partitions of a set of n interchangeable items = partitions of the
  // integer n: p(1..6) = 1, 2, 3, 5, 7, 11.
  const std::size_t expected[] = {1, 2, 3, 5, 7, 11};
  for (int n = 1; n <= 6; ++n) {
    EXPECT_EQ(count_all({n, 0, 0}),
              expected[static_cast<std::size_t>(n) - 1])
        << n;
    EXPECT_EQ(count_all({0, n, 0}),
              expected[static_cast<std::size_t>(n) - 1])
        << n;
  }
}

TEST(TypedPartition, MixedPairCounts) {
  // (1,1,0): {both together} or {separate} = 2.
  EXPECT_EQ(count_all({1, 1, 0}), 2u);
  // (1,1,1): partitions of a 3-set with all-distinct elements = B(3) = 5.
  EXPECT_EQ(count_all({1, 1, 1}), 5u);
}

TEST(TypedPartition, BlocksSumToTotal) {
  const ClassCounts total{2, 3, 1};
  (void)for_each_typed_partition(total, [&](const TypedPartition& blocks) {
    ClassCounts sum;
    for (const ClassCounts& block : blocks) {
      EXPECT_GT(block.total(), 0);
      sum = sum + block;
    }
    EXPECT_EQ(sum, total);
    return true;
  });
}

TEST(TypedPartition, CanonicalOrderIsNonIncreasing) {
  (void)for_each_typed_partition({2, 2, 2}, [](const TypedPartition& blocks) {
    for (std::size_t i = 1; i < blocks.size(); ++i) {
      EXPECT_FALSE(blocks[i - 1] < blocks[i]) << "blocks out of order";
    }
    return true;
  });
}

TEST(TypedPartition, NoDuplicatePartitions) {
  std::set<std::vector<std::tuple<int, int, int>>> seen;
  (void)for_each_typed_partition({3, 2, 1}, [&](const TypedPartition& blocks) {
    std::vector<std::tuple<int, int, int>> key;
    for (const ClassCounts& block : blocks) {
      key.emplace_back(block.cpu, block.mem, block.io);
    }
    EXPECT_TRUE(seen.insert(key).second) << "duplicate typed partition";
    return true;
  });
}

TEST(TypedPartition, MatchesQuotientOfSetPartitions) {
  // Ground truth: enumerate all set partitions of a labelled set whose
  // elements carry classes, map each to its canonical typed signature, and
  // count distinct signatures. The typed enumerator must agree exactly.
  const ClassCounts total{2, 2, 1};
  std::vector<workload::ProfileClass> labels;
  for (int i = 0; i < total.cpu; ++i)
    labels.push_back(workload::ProfileClass::kCpu);
  for (int i = 0; i < total.mem; ++i)
    labels.push_back(workload::ProfileClass::kMem);
  for (int i = 0; i < total.io; ++i)
    labels.push_back(workload::ProfileClass::kIo);

  std::set<std::vector<std::tuple<int, int, int>>> signatures;
  (void)for_each_partition(total.total(), [&](const Partition& p) {
    TypedPartition typed;
    for (const Block& block : p) {
      ClassCounts counts;
      for (const int e : block) {
        ++counts.of(labels[static_cast<std::size_t>(e)]);
      }
      typed.push_back(counts);
    }
    typed = canonicalize(std::move(typed));
    std::vector<std::tuple<int, int, int>> sig;
    for (const ClassCounts& c : typed) {
      sig.emplace_back(c.cpu, c.mem, c.io);
    }
    signatures.insert(std::move(sig));
    return true;
  });

  EXPECT_EQ(count_all(total), signatures.size());
}

TEST(TypedPartition, BlockFilterPrunes) {
  // Only singleton blocks admitted: exactly one partition remains.
  const std::size_t count = count_typed_partitions(
      {2, 2, 0}, [](const ClassCounts& block) { return block.total() == 1; });
  EXPECT_EQ(count, 1u);
}

TEST(TypedPartition, BlockFilterByCapacity) {
  // Blocks of at most 2 VMs.
  std::size_t max_block = 0;
  (void)for_each_typed_partition(
      {3, 1, 0},
      [](const ClassCounts& block) { return block.total() <= 2; },
      [&](const TypedPartition& blocks) {
        for (const ClassCounts& b : blocks) {
          max_block = std::max(max_block, static_cast<std::size_t>(b.total()));
        }
        return true;
      });
  EXPECT_LE(max_block, 2u);
}

TEST(TypedPartition, ImpossibleFilterYieldsNothing) {
  const std::size_t count = count_typed_partitions(
      {1, 1, 0}, [](const ClassCounts&) { return false; });
  EXPECT_EQ(count, 0u);
}

TEST(TypedPartition, EarlyStopCountsPartials) {
  std::size_t visited = 0;
  const std::size_t reported = for_each_typed_partition(
      {3, 3, 0}, [&](const TypedPartition&) {
        ++visited;
        return visited < 3;
      });
  EXPECT_EQ(visited, 3u);
  EXPECT_EQ(reported, 3u);
}

TEST(TypedPartition, MaxBlocksPrunes) {
  // Partitions of 4 interchangeable items: 5 total; with at most 2 blocks:
  // {4}, {3,1}, {2,2} → 3.
  const auto count_with = [](std::size_t max_blocks) {
    return for_each_typed_partition(
        ClassCounts{4, 0, 0}, [](const ClassCounts&) { return true; },
        max_blocks, [](const TypedPartition&) { return true; });
  };
  EXPECT_EQ(count_with(1), 1u);
  EXPECT_EQ(count_with(2), 3u);
  EXPECT_EQ(count_with(4), 5u);
  EXPECT_EQ(count_with(99), 5u);
}

TEST(TypedPartition, MaxBlocksRespectedInVisitor) {
  (void)for_each_typed_partition(
      ClassCounts{2, 2, 1}, [](const ClassCounts&) { return true; }, 2,
      [](const TypedPartition& blocks) {
        EXPECT_LE(blocks.size(), 2u);
        return true;
      });
}

TEST(TypedPartition, RejectsBadInput) {
  EXPECT_THROW(count_all({0, 0, 0}), std::invalid_argument);
  EXPECT_THROW((void)for_each_typed_partition(
                   ClassCounts{1, 0, 0},
                   [](const ClassCounts&) { return true; }, 0,
                   [](const TypedPartition&) { return true; }),
               std::invalid_argument);
  EXPECT_THROW(count_all({-1, 2, 0}), std::invalid_argument);
  EXPECT_THROW((void)for_each_typed_partition({1, 0, 0}, nullptr),
               std::invalid_argument);
}

TEST(Canonicalize, SortsDescending) {
  TypedPartition p = {{0, 1, 0}, {2, 0, 0}, {0, 0, 3}};
  p = canonicalize(std::move(p));
  EXPECT_EQ(p[0], (ClassCounts{2, 0, 0}));
  EXPECT_EQ(p[1], (ClassCounts{0, 1, 0}));
  EXPECT_EQ(p[2], (ClassCounts{0, 0, 3}));
}

/// Property sweep: typed count always equals the quotient count for small
/// multisets (exhaustive cross-check against the Orlov enumeration).
class TypedQuotientSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TypedQuotientSweep, AgreesWithSetPartitionQuotient) {
  const auto [a, b, c] = GetParam();
  const ClassCounts total{a, b, c};
  std::vector<workload::ProfileClass> labels;
  for (int i = 0; i < a; ++i) labels.push_back(workload::ProfileClass::kCpu);
  for (int i = 0; i < b; ++i) labels.push_back(workload::ProfileClass::kMem);
  for (int i = 0; i < c; ++i) labels.push_back(workload::ProfileClass::kIo);

  std::set<std::vector<std::tuple<int, int, int>>> signatures;
  (void)for_each_partition(total.total(), [&](const Partition& p) {
    TypedPartition typed;
    for (const Block& block : p) {
      ClassCounts counts;
      for (const int e : block) {
        ++counts.of(labels[static_cast<std::size_t>(e)]);
      }
      typed.push_back(counts);
    }
    typed = canonicalize(std::move(typed));
    std::vector<std::tuple<int, int, int>> sig;
    for (const ClassCounts& cc : typed) {
      sig.emplace_back(cc.cpu, cc.mem, cc.io);
    }
    signatures.insert(std::move(sig));
    return true;
  });
  EXPECT_EQ(count_all(total), signatures.size());
}

INSTANTIATE_TEST_SUITE_P(
    SmallMultisets, TypedQuotientSweep,
    ::testing::Values(std::make_tuple(1, 1, 0), std::make_tuple(2, 1, 0),
                      std::make_tuple(2, 2, 0), std::make_tuple(1, 1, 1),
                      std::make_tuple(3, 1, 1), std::make_tuple(2, 2, 2),
                      std::make_tuple(4, 0, 0), std::make_tuple(3, 3, 0),
                      std::make_tuple(4, 2, 1)));

}  // namespace
}  // namespace aeva::partition
