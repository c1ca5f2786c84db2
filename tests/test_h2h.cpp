// The triangular H2H bit array: index math, atomicity, size accounting, the
// word-level row popcount, and the Table-8 density/zero-cacheline metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "lotus/h2h_bitarray.hpp"
#include "util/prng.hpp"

namespace {

using lotus::core::TriangularBitArray;

// Check row_hits for rows [first_row, hub_count) against per-bit
// test_bit, at the smallest, a middle and the largest live_words each row
// allows, with random masks that are zero at h2 >= h1 (the caller contract).
void check_row_hits(const TriangularBitArray& h2h, std::uint32_t first_row,
                    lotus::util::Xoshiro256& rng) {
  for (std::uint32_t h1 = std::max(first_row, 1u); h1 < h2h.hub_count(); ++h1) {
    const std::size_t max_words = (h1 + 63) / 64;
    for (const std::size_t live_words :
         {std::size_t{1}, (max_words + 1) / 2, max_words}) {
      std::vector<std::uint64_t> mask(live_words);
      for (auto& w : mask) w = rng();
      std::uint64_t expected = 0;
      for (std::uint32_t h2 = 0; h2 < 64 * live_words; ++h2) {
        std::uint64_t& word = mask[h2 >> 6];
        if (h2 >= h1) {
          word &= ~(1ULL << (h2 & 63));
        } else if ((word >> (h2 & 63)) & 1) {
          expected += h2h.test_bit(TriangularBitArray::row_base(h1) + h2) ? 1u : 0u;
        }
      }
      ASSERT_EQ(h2h.row_hits(h1, mask.data(), live_words), expected)
          << "hubs=" << h2h.hub_count() << " h1=" << h1
          << " live_words=" << live_words;
    }
  }
}

TEST(H2H, BitIndexMatchesPaperFormula) {
  // Sec. 4.2: bit h1(h1-1)/2 + h2 for h1 > h2 >= 0.
  EXPECT_EQ(TriangularBitArray::bit_index(1, 0), 0u);
  EXPECT_EQ(TriangularBitArray::bit_index(2, 0), 1u);
  EXPECT_EQ(TriangularBitArray::bit_index(2, 1), 2u);
  EXPECT_EQ(TriangularBitArray::bit_index(3, 0), 3u);
  EXPECT_EQ(TriangularBitArray::bit_index(65535, 65534),
            65535ull * 65534 / 2 + 65534);
}

TEST(H2H, BitIndexIsInjective) {
  // Distinct (h1, h2) pairs map to distinct bits for a small full range.
  constexpr std::uint32_t kHubs = 64;
  std::vector<bool> used(kHubs * (kHubs - 1) / 2, false);
  for (std::uint32_t h1 = 1; h1 < kHubs; ++h1)
    for (std::uint32_t h2 = 0; h2 < h1; ++h2) {
      const auto bit = TriangularBitArray::bit_index(h1, h2);
      ASSERT_LT(bit, used.size());
      ASSERT_FALSE(used[bit]);
      used[bit] = true;
    }
}

TEST(H2H, SetAndTest) {
  TriangularBitArray h2h(100);
  EXPECT_FALSE(h2h.test(5, 3));
  h2h.set_atomic(5, 3);
  EXPECT_TRUE(h2h.test(5, 3));
  EXPECT_FALSE(h2h.test(5, 2));
  EXPECT_FALSE(h2h.test(6, 3));
  EXPECT_EQ(h2h.count_set_bits(), 1u);
}

TEST(H2H, RowBaseReuse) {
  // row_base(h1) + h2 must equal bit_index(h1, h2) — the inner-loop
  // optimization of Sec. 4.4.1.
  for (std::uint32_t h1 = 1; h1 < 200; ++h1)
    for (std::uint32_t h2 = 0; h2 < h1; h2 += 7)
      EXPECT_EQ(TriangularBitArray::row_base(h1) + h2,
                TriangularBitArray::bit_index(h1, h2));
}

TEST(H2H, SizeMatchesPaperAt64K) {
  // 2^16 hubs -> 2^16(2^16-1)/2 bits ≈ 256 MB (Sec. 4.5 / Table 2).
  const std::uint64_t bits = 65536ull * 65535 / 2;
  TriangularBitArray h2h(65536);
  EXPECT_EQ(h2h.num_bits(), bits);
  EXPECT_NEAR(static_cast<double>(h2h.size_bytes()), 256.0 * 1024 * 1024,
              1024.0 * 1024);
}

TEST(H2H, ConcurrentSetsAllLand) {
  TriangularBitArray h2h(512);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&h2h, t] {
      for (std::uint32_t h1 = static_cast<std::uint32_t>(t) + 1; h1 < 512; h1 += 4)
        for (std::uint32_t h2 = 0; h2 < h1; ++h2) h2h.set_atomic(h1, h2);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(h2h.count_set_bits(), 512ull * 511 / 2);
  EXPECT_DOUBLE_EQ(h2h.zero_cacheline_fraction(), 0.0);
}

TEST(H2H, ZeroCachelineFraction) {
  TriangularBitArray h2h(256);  // 32640 bits = 63.75 cachelines -> 64 lines
  EXPECT_DOUBLE_EQ(h2h.zero_cacheline_fraction(), 1.0);
  h2h.set_atomic(1, 0);  // first cacheline becomes non-zero
  EXPECT_NEAR(h2h.zero_cacheline_fraction(), 63.0 / 64.0, 1e-9);
}

TEST(H2H, DensityOfEmptyAndFull) {
  TriangularBitArray empty(128);
  EXPECT_EQ(empty.count_set_bits(), 0u);
  TriangularBitArray full(64);
  for (std::uint32_t h1 = 1; h1 < 64; ++h1)
    for (std::uint32_t h2 = 0; h2 < h1; ++h2) full.set_atomic(h1, h2);
  EXPECT_EQ(full.count_set_bits(), full.num_bits());
}

TEST(H2H, RowHitsMatchTestBit) {
  lotus::util::Xoshiro256 rng(2026);
  // Every row of small arrays: row starts at every bit alignment, windows
  // that straddle two stored words, and the last row ending in the last
  // word (which has no successor to borrow a high half from).
  for (const std::uint32_t hubs : {2u, 3u, 64u, 65u, 100u, 129u, 300u}) {
    TriangularBitArray h2h(hubs);
    for (std::uint32_t h1 = 1; h1 < hubs; ++h1)
      for (std::uint32_t h2 = 0; h2 < h1; ++h2)
        if (rng.next_below(2) != 0) h2h.set_atomic(h1, h2);
    check_row_hits(h2h, 1, rng);
  }
  // The last rows at 65536 hubs, the 16-bit HE boundary: 1024-word windows
  // ending at the array's last word.
  TriangularBitArray h2h(65536);
  for (std::uint32_t h1 = 65532; h1 < 65536; ++h1)
    for (std::uint32_t h2 = 0; h2 < h1; ++h2)
      if (rng.next_below(3) == 0) h2h.set_atomic(h1, h2);
  check_row_hits(h2h, 65532, rng);
}

TEST(H2H, TestBitAndWordAddressAgree) {
  TriangularBitArray h2h(1000);
  h2h.set_atomic(999, 0);
  const auto bit = TriangularBitArray::bit_index(999, 0);
  EXPECT_TRUE(h2h.test_bit(bit));
  const auto* word = static_cast<const std::uint64_t*>(h2h.word_address(bit));
  EXPECT_NE(*word, 0u);
}

}  // namespace
