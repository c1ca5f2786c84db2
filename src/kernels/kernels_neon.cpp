// NEON tier (aarch64): 4×u32 block-compare merge via vext lane
// rotation (count mode; positions fall back to the scalar merge) and the
// checksum stripes. NEON is baseline on aarch64, so
// no target attributes or cpuid checks are needed — the whole tier is
// compile-time gated. On x86 this TU compiles to the nullptr stub.
#include "kernels/dispatch.hpp"

#if defined(__aarch64__)
#include <arm_neon.h>
#define LOTUS_KERNELS_NEON 1
#endif

namespace lotus::kernels::detail {

#ifdef LOTUS_KERNELS_NEON

namespace {

std::uint64_t merge_u32_neon(const std::uint32_t* a, std::size_t na,
                             const std::uint32_t* b, std::size_t nb,
                             std::uint32_t* pos_a, std::uint32_t* pos_b) {
  // Positions come from the scalar merge: a NEON positional body has never
  // been built or run on an aarch64 host.
  if (pos_a != nullptr)
    return scalar_kernel_table().merge_u32(a, na, b, nb, pos_a, pos_b);
  std::uint64_t count = 0;
  std::size_t i = 0, j = 0;

  while (i + 4 <= na && j + 4 <= nb) {
    const uint32x4_t va = vld1q_u32(a + i);
    uint32x4_t vb = vld1q_u32(b + j);
    uint32x4_t match = vdupq_n_u32(0);
    // All 4×4 lane pairings; vext needs a constant immediate, so the
    // rotate-by-one is unrolled.
    match = vorrq_u32(match, vceqq_u32(va, vb));
    vb = vextq_u32(vb, vb, 1);
    match = vorrq_u32(match, vceqq_u32(va, vb));
    vb = vextq_u32(vb, vb, 1);
    match = vorrq_u32(match, vceqq_u32(va, vb));
    vb = vextq_u32(vb, vb, 1);
    match = vorrq_u32(match, vceqq_u32(va, vb));
    count += vaddvq_u32(vandq_u32(match, vdupq_n_u32(1)));

    const std::uint32_t amax = a[i + 3];
    const std::uint32_t bmax = b[j + 3];
    i += amax <= bmax ? 4u : 0u;
    j += bmax <= amax ? 4u : 0u;
  }

  // The tail stays scalar: the AVX2 body's masked partial blocks have no
  // NEON counterpart yet, since none could be built or run on an aarch64
  // host.
  return detail::merge_branchless(a, na, b, nb, i, j, count);
}

void checksum_stripes_neon(std::uint64_t* acc, const unsigned char* data,
                           std::size_t stripes) {
  // Four 2xu64 accumulator pairs; the pairwise data swap is vext by one
  // 64-bit lane and the 32x32->64 product is vmull over the narrowed
  // halves. Lane-exact with the scalar reference.
  uint64x2_t a0 = vld1q_u64(acc);
  uint64x2_t a1 = vld1q_u64(acc + 2);
  uint64x2_t a2 = vld1q_u64(acc + 4);
  uint64x2_t a3 = vld1q_u64(acc + 6);
  const uint64x2_t s0 = vld1q_u64(kChecksumSecret);
  const uint64x2_t s1 = vld1q_u64(kChecksumSecret + 2);
  const uint64x2_t s2 = vld1q_u64(kChecksumSecret + 4);
  const uint64x2_t s3 = vld1q_u64(kChecksumSecret + 6);
  for (std::size_t s = 0; s < stripes; ++s, data += 64) {
    const uint64x2_t d0 = vreinterpretq_u64_u8(vld1q_u8(data));
    const uint64x2_t d1 = vreinterpretq_u64_u8(vld1q_u8(data + 16));
    const uint64x2_t d2 = vreinterpretq_u64_u8(vld1q_u8(data + 32));
    const uint64x2_t d3 = vreinterpretq_u64_u8(vld1q_u8(data + 48));
    const uint64x2_t k0 = veorq_u64(d0, s0);
    const uint64x2_t k1 = veorq_u64(d1, s1);
    const uint64x2_t k2 = veorq_u64(d2, s2);
    const uint64x2_t k3 = veorq_u64(d3, s3);
    a0 = vaddq_u64(a0, vextq_u64(d0, d0, 1));
    a1 = vaddq_u64(a1, vextq_u64(d1, d1, 1));
    a2 = vaddq_u64(a2, vextq_u64(d2, d2, 1));
    a3 = vaddq_u64(a3, vextq_u64(d3, d3, 1));
    a0 = vmlal_u32(a0, vmovn_u64(k0), vshrn_n_u64(k0, 32));
    a1 = vmlal_u32(a1, vmovn_u64(k1), vshrn_n_u64(k1, 32));
    a2 = vmlal_u32(a2, vmovn_u64(k2), vshrn_n_u64(k2, 32));
    a3 = vmlal_u32(a3, vmovn_u64(k3), vshrn_n_u64(k3, 32));
  }
  vst1q_u64(acc, a0);
  vst1q_u64(acc + 2, a1);
  vst1q_u64(acc + 4, a2);
  vst1q_u64(acc + 6, a3);
}

}  // namespace

const KernelTable* neon_kernel_table() noexcept {
  static const KernelTable table = [] {
    KernelTable t = scalar_kernel_table();
    t.isa = Isa::kNeon;
    t.merge_u32 = &merge_u32_neon;
    t.checksum_stripes = &checksum_stripes_neon;
    return t;
  }();
  return &table;
}

#else  // !LOTUS_KERNELS_NEON

const KernelTable* neon_kernel_table() noexcept { return nullptr; }

#endif

}  // namespace lotus::kernels::detail
