// AVX-512 tier: the AVX2 table with the two entries that measure faster at
// 512 bits overridden — 8-wide gathered bitmap probing and the checksum
// stripes. The merge stays AVX2's: a 16-lane block compare measured slower
// than the 8-lane one (docs/KERNELS.md). The tier requires avx512f
// (kernels/isa.cpp).
#include "kernels/dispatch.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LOTUS_KERNELS_X86 1
#endif

namespace lotus::kernels::detail {

#ifdef LOTUS_KERNELS_X86

namespace {

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
    KernelTable t = *avx2_kernel_table();  // entries not overridden stay AVX2
    t.isa = Isa::kAvx512;
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
