// Probe-aware front door to the dispatched u32 merge kernel.
//
// The instrumentation contract (baselines/intersect.hpp): every kernel the
// counting phases call must accept a memory probe and, when one is attached,
// replay the exact scalar access stream — SIMD lanes have no per-element
// addresses to report. This wrapper enforces that contract at compile time:
// a NullProbe call with vectorization enabled goes through the runtime
// dispatch table; any other probe type — or vectorize == false, the scalar
// reference path of QueryOptions — routes to the probe-templated scalar
// mirror, which produces the identical count.
//
// obs accounting: the dispatched path flushes |a|+|b| element comparisons
// (both lists are read in full by the block compare) once per call, plus a
// fruitless-search tick for empty intersections, mirroring intersect_merge.
// Identical across ISA tiers, so forcing LOTUS_ISA never shifts counters
// between tiers; the scalar mirror reports its exact merge-step count, which
// is ≤ |a|+|b|. See docs/KERNELS.md.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>

#include "baselines/intersect.hpp"
#include "kernels/dispatch.hpp"
#include "obs/counters.hpp"

namespace lotus::kernels {

/// |a ∩ b| of strictly ascending u32 lists (vertex IDs), dispatched per
/// active_isa() when uninstrumented. The 16-bit HE lists have no dispatched
/// merge: their phases probe a hub bitmap, and their scalar paths call
/// baselines::intersect_merge<std::uint16_t> directly.
template <typename Probe = baselines::NullProbe>
std::uint64_t intersect(std::span<const std::uint32_t> a,
                        std::span<const std::uint32_t> b,
                        Probe& probe = baselines::null_probe,
                        bool vectorize = true) {
  if constexpr (std::is_same_v<Probe, baselines::NullProbe>) {
    if (vectorize) {
      const std::uint64_t found =
          kernel_table().merge_u32(a.data(), a.size(), b.data(), b.size(),
                                   nullptr, nullptr);
      const std::uint64_t comparisons =
          a.empty() || b.empty() ? 0 : a.size() + b.size();
      obs::count(obs::Counter::kIntersectComparisons, comparisons);
      if (found == 0 && comparisons > 0)
        obs::count(obs::Counter::kFruitlessSearches);
      return found;
    }
  }
  return baselines::intersect_merge<std::uint32_t>(a, b, probe);
}

}  // namespace lotus::kernels
