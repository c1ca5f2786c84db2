// Runtime-dispatched SIMD kernel table.
//
// One KernelTable per ISA tier (scalar always; AVX2/AVX-512 on x86, NEON on
// aarch64), each entry a plain function pointer so the per-tier code can be
// compiled with __attribute__((target(...))) in its own translation unit and
// selected by cpuid at runtime. Each tier starts from the table below it
// (AVX-512 from AVX2, AVX2 and NEON from scalar) and overrides only the
// entries it measurably speeds up, so every table is always fully populated.
//
// These kernels are the *uninstrumented* fast paths: they take raw pointers,
// carry no memory probe, and flush no obs counters themselves. The
// probe/obs contract of baselines/intersect.hpp is preserved one layer up:
// probed paths call the scalar mirrors directly, and the loops that call
// the table (kernels/forward_count.hpp, mining/triangle_walk.hpp) flush
// comparison totals. See docs/KERNELS.md.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/isa.hpp"

namespace lotus::kernels {

struct KernelTable {
  /// Tier this table executes as (after scalar fallbacks are filled in).
  Isa isa = Isa::kScalar;

  /// |a ∩ b| of strictly ascending u32 lists — vectorized merge (block
  /// compare against all lane rotations on the SIMD tiers). Null `pos_a`:
  /// count only. Otherwise the k-th common element, in ascending order, is
  /// a[pos_a[k]] and, when `pos_b` is non-null too, b[pos_b[k]] (`pos_b`
  /// without `pos_a` is not supported). Each output needs
  /// min(na, nb) + kMergeSlack slots: a block stores all its lanes, so up to
  /// kMergeSlack slots past the last position are scratch.
  std::uint64_t (*merge_u32)(const std::uint32_t* a, std::size_t na,
                             const std::uint32_t* b, std::size_t nb,
                             std::uint32_t* pos_a, std::uint32_t* pos_b);

  /// Sparse × dense: how many of `keys` have their bit set in `bits`
  /// (bit k lives at bits[k >> 6] >> (k & 63)). Every key must index a
  /// word the caller allocated.
  std::uint64_t (*hits_bitset)(const std::uint32_t* keys, std::size_t count,
                               const std::uint64_t* bits);

  /// Accumulate `stripes` 64-byte stripes into the 8-lane block-checksum
  /// state (util/checksum.hpp): per u64 lane j with data word x and
  /// k = x ^ kChecksumSecret[j], acc[j] += u32(k) * u32(k >> 32) and
  /// acc[j ^ 1] += x. Lane words are little-endian loads; every tier
  /// produces bit-identical state, so artifact checksums never depend on
  /// which ISA wrote or verified the file.
  void (*checksum_stripes)(std::uint64_t* acc, const unsigned char* data,
                           std::size_t stripes);
};

/// Slots past min(na, nb) that merge_u32's position outputs must have.
inline constexpr std::size_t kMergeSlack = 8;

/// Fixed per-lane key material for `checksum_stripes`; shared by the scalar
/// reference and every SIMD tier so all tables mix identically.
inline constexpr std::uint64_t kChecksumSecret[8] = {
    0xbe4ba423396cfeb8ULL, 0x1cad21f72c81017cULL,
    0xdb979083e96dd4deULL, 0x1f67b3b7a4a44072ULL,
    0x78e5c0cc4ee679cbULL, 0x2172ffcc7dd05a82ULL,
    0x8e2443f7744608b8ULL, 0x4c263a81e69035e0ULL,
};

/// Table of an explicit tier; unsupported requests clamp down (isa.hpp).
[[nodiscard]] const KernelTable& kernel_table(Isa isa) noexcept;

/// Table of active_isa() — what the counting phases call.
[[nodiscard]] const KernelTable& kernel_table() noexcept;

/// Dispatch-table kernel names, one per KernelTable entry. scripts/
/// check_docs.sh parses the block below and requires a docs/KERNELS.md
/// inventory entry for every name — keep the markers intact.
// KERNEL-INVENTORY-BEGIN
inline constexpr const char* kKernelNames[] = {
    "merge_u32",
    "hits_bitset",
    "checksum_stripes",
};
// KERNEL-INVENTORY-END

namespace detail {
/// |a ∩ b| by a branch-free scalar merge of a[i..na) and b[j..nb), added
/// to `count`: each step compares one element of each list and advances
/// either or both by a flag (sete/sbb) instead of a three-way branch, so
/// it costs the same whatever the data. Written as `x <= y ? 1u : 0u`
/// adds, GCC 12 compiled the step back into a branch; bool adds
/// under a 50% probability hint stay flag arithmetic. The scalar merge
/// kernel is this loop, and NEON's count body runs it over the tail its
/// 4-lane blocks leave; AVX2 and AVX-512 finish in masked partial blocks
/// instead (kernels_avx2.cpp). With kPosA (and kPosB) every step stores i
/// (and j) at slot `count` unconditionally, and a hit keeps it by
/// advancing `count`.
template <bool kPosA = false, bool kPosB = false, typename T>
inline std::uint64_t merge_branchless(const T* a, std::size_t na, const T* b,
                                      std::size_t nb, std::size_t i = 0,
                                      std::size_t j = 0, std::uint64_t count = 0,
                                      std::uint32_t* pos_a = nullptr,
                                      std::uint32_t* pos_b = nullptr) {
  while (i < na && j < nb) {
    const T x = a[i];
    const T y = b[j];
    if constexpr (kPosA) pos_a[count] = static_cast<std::uint32_t>(i);
    if constexpr (kPosB) pos_b[count] = static_cast<std::uint32_t>(j);
    const bool step_a = __builtin_expect_with_probability(x <= y, true, 0.5);
    const bool step_b = __builtin_expect_with_probability(y <= x, true, 0.5);
    count += step_a & step_b;
    i += step_a;
    j += step_b;
  }
  return count;
}

/// Per-tier table builders. The scalar table always exists; the SIMD tiers
/// return nullptr when their architecture is not compiled in (their TUs
/// still build everywhere — the bodies are preprocessor-gated). Tier tables
/// copy the entries they do not override from the table they start from.
[[nodiscard]] const KernelTable& scalar_kernel_table() noexcept;
[[nodiscard]] const KernelTable* avx2_kernel_table() noexcept;
[[nodiscard]] const KernelTable* avx512_kernel_table() noexcept;
[[nodiscard]] const KernelTable* neon_kernel_table() noexcept;
}  // namespace detail

}  // namespace lotus::kernels
