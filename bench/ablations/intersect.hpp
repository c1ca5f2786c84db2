// The branch-free binary-search intersection, for the intersection
// micro-benchmark (bench/micro_intersect.cpp); the differential harness
// also counts through it. It returns |a ∩ b| of two strictly ascending
// lists, like baselines::intersect_merge. The branch-free merge is the
// scalar tier's merge_u32 (kernels::detail::merge_branchless).
#pragma once

#include <cstdint>
#include <span>

namespace lotus::ablation {

/// Branch-free binary search of each element of the shorter list in the
/// longer (Khuong-Morin array layout search [40], as deployed by [33]).
template <typename T>
std::uint64_t intersect_binary_branchfree(std::span<const T> a,
                                          std::span<const T> b) {
  if (a.size() > b.size()) return intersect_binary_branchfree(b, a);
  if (b.empty()) return 0;
  std::uint64_t count = 0;
  for (const T& x : a) {
    const T* base = b.data();
    std::size_t n = b.size();
    while (n > 1) {
      const std::size_t half = n / 2;
      base += base[half - 1] < x ? half : 0;  // cmov, no branch
      n -= half;
    }
    count += *base == x ? 1u : 0u;
  }
  return count;
}

}  // namespace lotus::ablation
