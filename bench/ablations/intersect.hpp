// The two branch-free intersection kernels, for the intersection
// micro-benchmark (bench/micro_intersect.cpp); the differential harness
// also counts through each. Both return |a ∩ b| of two strictly ascending
// lists, like baselines::intersect_merge.
#pragma once

#include <cstdint>
#include <span>

#include "obs/counters.hpp"

namespace lotus::ablation {

/// Branch-free merge: advances are computed arithmetically so the
/// data-dependent comparison never becomes a mispredictable branch — the
/// branch-miss reduction idea of [32] applied to merge join.
template <typename T>
std::uint64_t intersect_merge_branchless(std::span<const T> a,
                                         std::span<const T> b) {
  std::uint64_t count = 0;
  std::uint64_t comparisons = 0;  // dead when LOTUS_OBS=0
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const T x = a[i];
    const T y = b[j];
    ++comparisons;
    count += x == y ? 1u : 0u;
    i += x <= y ? 1u : 0u;  // compiles to cmov/setcc, not a branch
    j += y <= x ? 1u : 0u;
  }
  obs::count(obs::Counter::kIntersectComparisons, comparisons);
  if (count == 0 && comparisons > 0)
    obs::count(obs::Counter::kFruitlessSearches);
  return count;
}

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
