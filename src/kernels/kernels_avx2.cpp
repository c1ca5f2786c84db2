// AVX2 tier: 8×u32 block-compare merge (each block of one list compared
// against every lane rotation of the other's block; its positional mode
// packs each block's matched lanes with a 256-row permutation table, no
// per-match branch), gathered sparse-vs-dense bitmap probing and the
// checksum stripes. The merge finishes in masked partial blocks rather than
// a scalar tail, so short lists stay in SIMD. Compiled with per-function
// target attributes so the rest of the binary stays baseline; only
// reachable after cpuid reports AVX2 (kernels/isa.cpp).
#include "kernels/dispatch.hpp"

#include <algorithm>
#include <array>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LOTUS_KERNELS_X86 1
#endif

namespace lotus::kernels::detail {

#ifdef LOTUS_KERNELS_X86

namespace {

// kCompact[m]: the lane indices of m's set bits in ascending order, one per
// byte — the permutation that packs an 8-lane block's matched lanes to the
// front.
constexpr auto kCompact = [] {
  std::array<std::uint64_t, 256> lut{};
  for (unsigned m = 0; m < 256; ++m)
    for (unsigned lane = 0, k = 0; lane < 8; ++lane)
      if ((m >> lane) & 1u) lut[m] |= std::uint64_t{lane} << (8 * k++);
  return lut;
}();

// kLive + 8 - n: n set lanes, then clear ones — the load mask of an n-lane
// partial block. Loading it (and kFill's rows) rather than broadcasting n
// leaves the shuffle port to the block compare's rotations.
alignas(64) constexpr std::int32_t kLive[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                                0,  0,  0,  0,  0,  0,  0,  0};

// kFill[n - 1][lane] = min(lane, n - 1): the permutation that repeats an
// n-lane block's last live lane over its dead lanes.
alignas(32) constexpr auto kFill = [] {
  std::array<std::array<std::int32_t, 8>, 8> lut{};
  for (int n = 1; n <= 8; ++n)
    for (int lane = 0; lane < 8; ++lane)
      lut[n - 1][lane] = std::min(lane, n - 1);
  return lut;
}();

// Lane indices 0..7 of an 8×u32 block.
__attribute__((target("avx2"), always_inline)) inline __m256i lane_ids() {
  return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
}

// One 8×8 block compare: va against all 8 lane rotations of vb, every
// pairing of the two blocks' lanes. Returns the movemask of va's matched
// lanes; with kPosB, *lane_b gets each matched lane's b-lane. With kClamp,
// vb is a partial block whose dead lanes repeat its last live lane b_last,
// so an a-lane can match under several rotations: the largest index seen,
// capped at b_last, is that lane.
template <bool kPosB, bool kClamp>
__attribute__((target("avx2"), always_inline)) inline unsigned compare_block(
    __m256i va, __m256i vb, __m256i b_last, __m256i* lane_b) {
  const __m256i rotate = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  const __m256i seven = _mm256_set1_epi32(7);
  __m256i match = _mm256_setzero_si256();
  __m256i at_b = _mm256_setzero_si256();
  for (int r = 0; r < 8; ++r) {
    const __m256i eq = _mm256_cmpeq_epi32(va, vb);
    match = _mm256_or_si256(match, eq);
    // After r rotations, lane k of vb holds b-lane (k + r) & 7. An a-lane
    // matches one b-lane at most, so OR-ing the masked indices leaves each
    // matched lane its b-lane (an AND and an OR measured 14% faster than a
    // blendv here).
    if constexpr (kPosB) {
      const __m256i lane = _mm256_and_si256(
          _mm256_add_epi32(lane_ids(), _mm256_set1_epi32(r)), seven);
      at_b = kClamp ? _mm256_max_epu32(at_b, _mm256_and_si256(eq, lane))
                    : _mm256_or_si256(at_b, _mm256_and_si256(eq, lane));
    }
    vb = _mm256_permutevar8x32_epi32(vb, rotate);
  }
  if constexpr (kPosB) *lane_b = kClamp ? _mm256_min_epu32(at_b, b_last) : at_b;
  return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(match)));
}

// Packs the positions of mask's lanes (a block at a + i, and with kPosB the
// matched b-lanes of a block at b + j) to the front and stores all 8 lanes
// at slot `count`; returns count advanced past the packed ones.
template <bool kPosA, bool kPosB>
__attribute__((target("avx2"), always_inline)) inline std::uint64_t
emit_block(unsigned mask, __m256i lane_b, std::size_t i, std::size_t j,
           std::uint64_t count, std::uint32_t* pos_a, std::uint32_t* pos_b) {
  if constexpr (kPosA) {
    // Packed lane k is block lane pack[k], so a's positions are i + pack.
    const __m256i pack = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(&kCompact[mask])));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(pos_a + count),
        _mm256_add_epi32(pack, _mm256_set1_epi32(static_cast<int>(i))));
    if constexpr (kPosB)
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(pos_b + count),
          _mm256_add_epi32(_mm256_permutevar8x32_epi32(lane_b, pack),
                           _mm256_set1_epi32(static_cast<int>(j))));
  }
  return count + static_cast<unsigned>(__builtin_popcount(mask));
}

template <bool kPosA, bool kPosB>
__attribute__((target("avx2"))) inline std::uint64_t merge_blocks(
    const std::uint32_t* a, std::size_t na, const std::uint32_t* b,
    std::size_t nb, std::uint32_t* pos_a, std::uint32_t* pos_b) {
  std::uint64_t count = 0;
  std::size_t i = 0, j = 0;
  __m256i lane_b = _mm256_setzero_si256();  // b-lane of each matched a-lane

  while (i + 8 <= na && j + 8 <= nb) {
    const unsigned mask = compare_block<kPosB, false>(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j)),
        _mm256_setzero_si256(), &lane_b);
    count = emit_block<kPosA, kPosB>(mask, lane_b, i, j, count, pos_a, pos_b);
    // Advance whichever block's maximum is smaller; both on a tie. All
    // cross-block pairs with the retired block have been compared.
    const std::uint32_t amax = a[i + 7];
    const std::uint32_t bmax = b[j + 7];
    i += amax <= bmax ? 8u : 0u;
    j += bmax <= amax ? 8u : 0u;
  }

  // Partial blocks: the same compare over ra = min(8, na - i) and
  // rb = min(8, nb - j) live lanes, retired by the same rule. Masked loads
  // read no lane past either list. Dead a-lanes leave the match mask; dead
  // b-lanes repeat b's last live lane, so a hit there is one the OR already
  // holds (a pad value past b's maximum could wrap to 0 and match a live
  // a-lane). A store starts at count <= min(na, nb), inside kMergeSlack.
  while (i < na && j < nb) {
    const std::size_t ra = std::min<std::size_t>(8, na - i);
    const std::size_t rb = std::min<std::size_t>(8, nb - j);
    const auto* a_live = reinterpret_cast<const __m256i*>(kLive + 8 - ra);
    const auto* b_live = reinterpret_cast<const __m256i*>(kLive + 8 - rb);
    const std::int32_t* fill = kFill[rb - 1].data();
    const __m256i va = _mm256_maskload_epi32(
        reinterpret_cast<const int*>(a + i), _mm256_loadu_si256(a_live));
    const __m256i vb = _mm256_permutevar8x32_epi32(
        _mm256_maskload_epi32(reinterpret_cast<const int*>(b + j),
                              _mm256_loadu_si256(b_live)),
        _mm256_load_si256(reinterpret_cast<const __m256i*>(fill)));
    // fill[7] = rb - 1, broadcast straight from memory.
    const __m256i b_last = _mm256_castps_si256(
        _mm256_broadcast_ss(reinterpret_cast<const float*>(fill + 7)));
    const unsigned mask =
        compare_block<kPosB, true>(va, vb, b_last, &lane_b) & ((1u << ra) - 1u);
    count = emit_block<kPosA, kPosB>(mask, lane_b, i, j, count, pos_a, pos_b);
    const std::uint32_t amax = a[i + ra - 1];
    const std::uint32_t bmax = b[j + rb - 1];
    i += amax <= bmax ? ra : 0u;
    j += bmax <= amax ? rb : 0u;
  }
  return count;
}

// The positional modes stay out of line, so the counting entry keeps the
// register footprint of the count body alone.
__attribute__((target("avx2"), noinline)) std::uint64_t merge_positions_avx2(
    const std::uint32_t* a, std::size_t na, const std::uint32_t* b,
    std::size_t nb, std::uint32_t* pos_a, std::uint32_t* pos_b) {
  if (pos_b != nullptr)
    return merge_blocks<true, true>(a, na, b, nb, pos_a, pos_b);
  return merge_blocks<true, false>(a, na, b, nb, pos_a, nullptr);
}

__attribute__((target("avx2"))) std::uint64_t merge_u32_avx2(
    const std::uint32_t* a, std::size_t na, const std::uint32_t* b,
    std::size_t nb, std::uint32_t* pos_a, std::uint32_t* pos_b) {
  if (pos_a != nullptr) return merge_positions_avx2(a, na, b, nb, pos_a, pos_b);
  return merge_blocks<false, false>(a, na, b, nb, nullptr, nullptr);
}

__attribute__((target("avx2"))) std::uint64_t hits_bitset_avx2(
    const std::uint32_t* keys, std::size_t count, const std::uint64_t* bits) {
  // Four keys per step: gather their words, variable-shift each by key&63,
  // mask to the tested bit, and accumulate. The gather hides the four
  // dependent scalar loads of the reference loop.
  __m256i acc = _mm256_setzero_si256();
  const __m256i low6 = _mm256_set1_epi64x(63);
  const __m256i one = _mm256_set1_epi64x(1);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i k =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + i));
    const __m128i word_index = _mm_srli_epi32(k, 6);
    const __m256i words = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(bits), word_index, 8);
    const __m256i bit_index =
        _mm256_and_si256(_mm256_cvtepu32_epi64(k), low6);
    acc = _mm256_add_epi64(
        acc, _mm256_and_si256(_mm256_srlv_epi64(words, bit_index), one));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < count; ++i)
    total += (bits[keys[i] >> 6] >> (keys[i] & 63)) & 1ULL;
  return total;
}

__attribute__((target("avx2"))) void checksum_stripes_avx2(
    std::uint64_t* acc, const unsigned char* data, std::size_t stripes) {
  // Two 4×u64 accumulator halves. Per stripe: k = x ^ secret, then
  // acc[j] += u32(k)·u32(k>>32) (vpmuludq) and acc[j] += x[j^1] (the
  // pairwise 64-bit swap is an in-lane 32-bit shuffle) — lane-exact with
  // the scalar reference.
  __m256i acc0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc));
  __m256i acc1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + 4));
  const __m256i sec0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kChecksumSecret));
  const __m256i sec1 = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kChecksumSecret + 4));
  for (std::size_t s = 0; s < stripes; ++s, data += 64) {
    const __m256i d0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data));
    const __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + 32));
    const __m256i k0 = _mm256_xor_si256(d0, sec0);
    const __m256i k1 = _mm256_xor_si256(d1, sec1);
    const __m256i p0 = _mm256_mul_epu32(k0, _mm256_srli_epi64(k0, 32));
    const __m256i p1 = _mm256_mul_epu32(k1, _mm256_srli_epi64(k1, 32));
    const __m256i w0 = _mm256_shuffle_epi32(d0, _MM_SHUFFLE(1, 0, 3, 2));
    const __m256i w1 = _mm256_shuffle_epi32(d1, _MM_SHUFFLE(1, 0, 3, 2));
    acc0 = _mm256_add_epi64(acc0, _mm256_add_epi64(p0, w0));
    acc1 = _mm256_add_epi64(acc1, _mm256_add_epi64(p1, w1));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc), acc0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 4), acc1);
}

}  // namespace

const KernelTable* avx2_kernel_table() noexcept {
  static const KernelTable table = [] {
    KernelTable t = scalar_kernel_table();  // unspecialized entries stay scalar
    t.isa = Isa::kAvx2;
    t.merge_u32 = &merge_u32_avx2;
    t.hits_bitset = &hits_bitset_avx2;
    t.checksum_stripes = &checksum_stripes_avx2;
    return t;
  }();
  return &table;
}

#else  // !LOTUS_KERNELS_X86

const KernelTable* avx2_kernel_table() noexcept { return nullptr; }

#endif

}  // namespace lotus::kernels::detail
