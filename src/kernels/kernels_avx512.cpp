// AVX-512 tier: 16×u32 / 32×u16 block-compare merge on the 512-bit lane
// permute units (vpermd/vpermw), 8-wide gathered bitmap probing and the
// checksum stripes. The tier requires avx512f + avx512bw (kernels/isa.cpp).
#include "kernels/dispatch.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LOTUS_KERNELS_X86 1
#endif

namespace lotus::kernels::detail {

#ifdef LOTUS_KERNELS_X86

namespace {

__attribute__((target("avx512f,avx512bw"))) std::uint64_t merge_u32_avx512(
    const std::uint32_t* a, std::size_t na, const std::uint32_t* b,
    std::size_t nb) {
  std::uint64_t count = 0;
  std::size_t i = 0, j = 0;

  const __m512i rotate = _mm512_set_epi32(0, 15, 14, 13, 12, 11, 10, 9, 8, 7,
                                          6, 5, 4, 3, 2, 1);

  while (i + 16 <= na && j + 16 <= nb) {
    const __m512i va = _mm512_loadu_si512(a + i);
    __m512i vb = _mm512_loadu_si512(b + j);
    __mmask16 match = 0;
    for (int r = 0; r < 16; ++r) {
      match |= _mm512_cmpeq_epi32_mask(va, vb);
      vb = _mm512_permutexvar_epi32(rotate, vb);
    }
    count += static_cast<unsigned>(
        __builtin_popcount(static_cast<unsigned>(match)));

    const std::uint32_t amax = a[i + 15];
    const std::uint32_t bmax = b[j + 15];
    i += amax <= bmax ? 16u : 0u;
    j += bmax <= amax ? 16u : 0u;
  }

  return count + detail::merge_branchless(a + i, na - i, b + j, nb - j);
}

__attribute__((target("avx512f,avx512bw"))) std::uint64_t merge_u16_avx512(
    const std::uint16_t* a, std::size_t na, const std::uint16_t* b,
    std::size_t nb) {
  std::uint64_t count = 0;
  std::size_t i = 0, j = 0;

  const __m512i rotate = _mm512_set_epi16(
      0, 31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15,
      14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1);

  while (i + 32 <= na && j + 32 <= nb) {
    const __m512i va = _mm512_loadu_si512(a + i);
    __m512i vb = _mm512_loadu_si512(b + j);
    __mmask32 match = 0;
    for (int r = 0; r < 32; ++r) {
      match |= _mm512_cmpeq_epi16_mask(va, vb);
      vb = _mm512_permutexvar_epi16(rotate, vb);
    }
    count += static_cast<unsigned>(__builtin_popcount(match));

    const std::uint16_t amax = a[i + 31];
    const std::uint16_t bmax = b[j + 31];
    i += amax <= bmax ? 32u : 0u;
    j += bmax <= amax ? 32u : 0u;
  }

  return count + detail::merge_branchless(a + i, na - i, b + j, nb - j);
}

__attribute__((target("avx512f"))) std::uint64_t hits_bitset_avx512(
    const std::uint32_t* keys, std::size_t count, const std::uint64_t* bits) {
  __m512i acc = _mm512_setzero_si512();
  const __m512i low6 = _mm512_set1_epi64(63);
  const __m512i one = _mm512_set1_epi64(1);
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i word_index = _mm256_srli_epi32(k, 6);
    const __m512i words = _mm512_i32gather_epi64(word_index, bits, 8);
    const __m512i bit_index =
        _mm512_and_si512(_mm512_cvtepu32_epi64(k), low6);
    acc = _mm512_add_epi64(
        acc, _mm512_and_si512(_mm512_srlv_epi64(words, bit_index), one));
  }
  std::uint64_t total = static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
  for (; i < count; ++i)
    total += (bits[keys[i] >> 6] >> (keys[i] & 63)) & 1ULL;
  return total;
}

__attribute__((target("avx512f"))) void checksum_stripes_avx512(
    std::uint64_t* acc, const unsigned char* data, std::size_t stripes) {
  // One full 8×u64 accumulator vector per stripe; same lane math as the
  // AVX2/scalar forms (vpmuludq product + pairwise-swapped data add).
  __m512i accv = _mm512_loadu_si512(acc);
  const __m512i sec = _mm512_loadu_si512(kChecksumSecret);
  for (std::size_t s = 0; s < stripes; ++s, data += 64) {
    const __m512i d = _mm512_loadu_si512(data);
    const __m512i k = _mm512_xor_si512(d, sec);
    const __m512i p = _mm512_mul_epu32(k, _mm512_srli_epi64(k, 32));
    const __m512i w = _mm512_shuffle_epi32(
        d, static_cast<_MM_PERM_ENUM>(_MM_SHUFFLE(1, 0, 3, 2)));
    accv = _mm512_add_epi64(accv, _mm512_add_epi64(p, w));
  }
  _mm512_storeu_si512(acc, accv);
}

}  // namespace

const KernelTable* avx512_kernel_table() noexcept {
  static const KernelTable table = [] {
    KernelTable t = scalar_kernel_table();  // unspecialized entries stay scalar
    t.isa = Isa::kAvx512;
    t.merge_u32 = &merge_u32_avx512;
    t.merge_u16 = &merge_u16_avx512;
    t.hits_bitset = &hits_bitset_avx512;
    t.checksum_stripes = &checksum_stripes_avx512;
    return t;
  }();
  return &table;
}

#else  // !LOTUS_KERNELS_X86

const KernelTable* avx512_kernel_table() noexcept { return nullptr; }

#endif

}  // namespace lotus::kernels::detail
