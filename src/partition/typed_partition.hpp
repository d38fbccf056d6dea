#pragma once

/// \file typed_partition.hpp
/// Partition enumeration over *typed* VM multisets.
///
/// The allocation model only distinguishes VMs by their profile class, so
/// two partitions whose blocks have identical (Ncpu, Nmem, Nio) signatures
/// are equivalent for scoring. Enumerating partitions of the multiset
/// (a, b, c) instead of the underlying set collapses the search space from
/// Bell(a+b+c) to the (much smaller) number of multiset partitions — an
/// exact optimization of the paper's brute-force search, not a heuristic.

#include <functional>
#include <vector>

#include "workload/profile.hpp"

namespace aeva::partition {

/// A typed partition: an unordered multiset of non-empty blocks, each a
/// ClassCounts, summing componentwise to the input counts. Canonical form:
/// blocks sorted in non-increasing lexicographic order.
using TypedPartition = std::vector<workload::ClassCounts>;

/// Enumerates every typed partition of `total` whose blocks all satisfy
/// `block_ok` (e.g. "fits on one server"). The visitor returns false to
/// stop early. Returns the number of partitions visited (including a
/// partial count when stopped early).
///
/// When some block of a partition fails `block_ok`, that partition is
/// pruned (its refinements with smaller blocks are still generated).
/// Throws std::invalid_argument on an empty multiset or null callbacks.
[[nodiscard]] std::size_t for_each_typed_partition(
    workload::ClassCounts total,
    const std::function<bool(const workload::ClassCounts&)>& block_ok,
    const std::function<bool(const TypedPartition&)>& visit);

/// As above with an additional bound on the number of blocks — partitions
/// with more than `max_blocks` parts are pruned during generation (an
/// allocator cannot use more blocks than it has servers). `max_blocks`
/// must be ≥ 1.
[[nodiscard]] std::size_t for_each_typed_partition(
    workload::ClassCounts total,
    const std::function<bool(const workload::ClassCounts&)>& block_ok,
    std::size_t max_blocks,
    const std::function<bool(const TypedPartition&)>& visit);

/// Convenience overload admitting every non-empty block.
[[nodiscard]] std::size_t for_each_typed_partition(
    workload::ClassCounts total,
    const std::function<bool(const TypedPartition&)>& visit);

/// Counts typed partitions without visiting (same pruning semantics).
[[nodiscard]] std::size_t count_typed_partitions(
    workload::ClassCounts total,
    const std::function<bool(const workload::ClassCounts&)>& block_ok);

/// Signature of an element-level partition: the multiset of per-block
/// class counts, canonically sorted. Used by tests to prove the typed
/// enumeration is exactly the quotient of the set enumeration.
[[nodiscard]] TypedPartition canonicalize(TypedPartition partition);

}  // namespace aeva::partition
