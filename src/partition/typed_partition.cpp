#include "partition/typed_partition.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace aeva::partition {

using workload::ClassCounts;

namespace {

/// Descending lexicographic comparison used for the canonical block order.
bool lex_greater(ClassCounts a, ClassCounts b) noexcept {
  return b < a;
}

struct Enumerator {
  const std::function<bool(const ClassCounts&)>& block_ok;
  const std::function<bool(const TypedPartition&)>& visit;
  std::size_t max_blocks;
  TypedPartition acc;
  std::size_t visited = 0;

  /// Extends the partition with blocks lexicographically ≤ `prev`;
  /// returns false when the visitor requested an early stop.
  bool recurse(ClassCounts rem, ClassCounts prev) {
    if (rem.total() == 0) {
      ++visited;
      return visit(acc);
    }
    if (acc.size() >= max_blocks) {
      return true;  // pruned: no room for another block
    }
    const int cpu_hi = std::min(rem.cpu, prev.cpu);
    for (int a = cpu_hi; a >= 0; --a) {
      const int mem_hi = (a == prev.cpu) ? std::min(rem.mem, prev.mem)
                                         : rem.mem;
      for (int b = mem_hi; b >= 0; --b) {
        const int io_hi = (a == prev.cpu && b == prev.mem)
                              ? std::min(rem.io, prev.io)
                              : rem.io;
        for (int c = io_hi; c >= 0; --c) {
          const ClassCounts block{a, b, c};
          if (block.total() == 0) {
            continue;
          }
          if (!block_ok(block)) {
            continue;
          }
          acc.push_back(block);
          const bool keep_going = recurse(rem - block, block);
          acc.pop_back();
          if (!keep_going) {
            return false;
          }
        }
      }
    }
    return true;
  }
};

}  // namespace

std::size_t for_each_typed_partition(
    ClassCounts total,
    const std::function<bool(const ClassCounts&)>& block_ok,
    const std::function<bool(const TypedPartition&)>& visit) {
  return for_each_typed_partition(
      total, block_ok, static_cast<std::size_t>(total.total()), visit);
}

std::size_t for_each_typed_partition(
    ClassCounts total,
    const std::function<bool(const ClassCounts&)>& block_ok,
    std::size_t max_blocks,
    const std::function<bool(const TypedPartition&)>& visit) {
  AEVA_REQUIRE(total.total() > 0, "cannot partition an empty VM multiset");
  AEVA_REQUIRE(total.cpu >= 0 && total.mem >= 0 && total.io >= 0,
               "negative class count");
  AEVA_REQUIRE(max_blocks >= 1, "need room for at least one block");
  AEVA_REQUIRE(static_cast<bool>(block_ok) && static_cast<bool>(visit),
               "null callback");
  Enumerator e{block_ok, visit, max_blocks, {}, 0};
  e.recurse(total, total);
  return e.visited;
}

std::size_t for_each_typed_partition(
    ClassCounts total, const std::function<bool(const TypedPartition&)>& visit) {
  return for_each_typed_partition(
      total, [](const ClassCounts&) { return true; }, visit);
}

std::size_t count_typed_partitions(
    ClassCounts total,
    const std::function<bool(const ClassCounts&)>& block_ok) {
  return for_each_typed_partition(
      total, block_ok, [](const TypedPartition&) { return true; });
}

TypedPartition canonicalize(TypedPartition partition) {
  std::sort(partition.begin(), partition.end(), lex_greater);
  return partition;
}

}  // namespace aeva::partition
