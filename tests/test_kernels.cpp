// SIMD kernel layer: every (kernel × forced ISA tier) agrees with the
// scalar reference on adversarial inputs, the dispatch/override machinery
// behaves, and the graph-level algorithms are tier-invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/intersect.hpp"
#include "baselines/tc_baselines.hpp"
#include "bench/ablations/hnn.hpp"
#include "graph/builder.hpp"
#include "graph/degree_order.hpp"
#include "graph/generators.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/forward_count.hpp"
#include "kernels/isa.hpp"
#include "lotus/count.hpp"
#include "lotus/lotus_graph.hpp"
#include "lotus_reference.hpp"
#include "parallel/thread_pool.hpp"
#include "tc/api.hpp"
#include "util/memory_budget.hpp"
#include "util/prng.hpp"

namespace {

namespace g = lotus::graph;
namespace k = lotus::kernels;
namespace tc = lotus::tc;

constexpr k::Isa kAllTiers[] = {k::Isa::kScalar, k::Isa::kNeon, k::Isa::kAvx2,
                                k::Isa::kAvx512};

// RAII override so a failing assertion cannot leak a forced tier into the
// rest of the suite.
struct ScopedIsa {
  explicit ScopedIsa(k::Isa isa) { k::set_isa_override(isa); }
  ~ScopedIsa() { k::set_isa_override(std::nullopt); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;
};

template <typename T>
std::vector<T> sorted_unique(lotus::util::Xoshiro256& rng, std::size_t n,
                             std::uint64_t universe) {
  std::set<T> s;
  while (s.size() < n)
    s.insert(static_cast<T>(rng.next_below(universe)));
  return {s.begin(), s.end()};
}

// merge_u32 in count mode.
std::uint64_t count_u32(const k::KernelTable& table,
                        const std::vector<std::uint32_t>& a,
                        const std::vector<std::uint32_t>& b) {
  return table.merge_u32(a.data(), a.size(), b.data(), b.size(), nullptr, nullptr);
}

// |a ∩ b| by std::set_intersection: the oracle of the u16 merge cases.
std::uint64_t set_intersection_size(const std::vector<std::uint16_t>& a,
                                    const std::vector<std::uint16_t>& b) {
  std::vector<std::uint16_t> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(common));
  return common.size();
}

TEST(KernelIsa, NameParseRoundTrip) {
  for (const k::Isa isa : kAllTiers) {
    const auto parsed = k::parse_isa(k::isa_name(isa));
    ASSERT_TRUE(parsed.has_value()) << k::isa_name(isa);
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(k::parse_isa("native").has_value());  // resolved by the env parser
  EXPECT_FALSE(k::parse_isa("sse9").has_value());
  EXPECT_FALSE(k::parse_isa("").has_value());
}

TEST(KernelIsa, SupportedSetAndClamping) {
  const std::vector<k::Isa> supported = k::supported_isas();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), k::Isa::kScalar);
  EXPECT_TRUE(k::isa_supported(k::Isa::kScalar));
  EXPECT_TRUE(k::isa_supported(k::detected_isa()));
  for (const k::Isa isa : kAllTiers) {
    const k::Isa clamped = k::clamp_to_supported(isa);
    EXPECT_TRUE(k::isa_supported(clamped)) << k::isa_name(isa);
    // Clamping never raises the tier.
    EXPECT_LE(static_cast<unsigned>(clamped), static_cast<unsigned>(isa));
  }
  EXPECT_EQ(k::clamp_to_supported(k::detected_isa()), k::detected_isa());
}

TEST(KernelIsa, OverrideControlsActiveIsa) {
  for (const k::Isa isa : k::supported_isas()) {
    ScopedIsa forced(isa);
    EXPECT_EQ(k::active_isa(), isa) << k::isa_name(isa);
    EXPECT_EQ(k::kernel_table().isa, isa) << k::isa_name(isa);
  }
  // Unsupported requests clamp instead of crashing.
  {
    ScopedIsa forced(k::Isa::kAvx512);
    EXPECT_TRUE(k::isa_supported(k::active_isa()));
  }
  EXPECT_EQ(k::active_isa(), k::clamp_to_supported(k::active_isa()));
}

TEST(KernelIsa, EveryTierTableIsFullyPopulated) {
  for (const k::Isa isa : kAllTiers) {
    const k::KernelTable& table = k::kernel_table(isa);
    EXPECT_NE(table.merge_u32, nullptr);
    EXPECT_NE(table.hits_bitset, nullptr);
    EXPECT_NE(table.checksum_stripes, nullptr);
    EXPECT_TRUE(k::isa_supported(table.isa));
  }
}

TEST(KernelIsa, Avx512InheritsAvx2Merge) {
  // A tier overrides an entry only where it measures faster than the table
  // it starts from; AVX-512's 16-lane merge did not, so it runs AVX2's.
  if (!k::isa_supported(k::Isa::kAvx512) || !k::isa_supported(k::Isa::kAvx2))
    GTEST_SKIP() << "needs both the AVX2 and the AVX-512 tier";
  EXPECT_EQ(k::kernel_table(k::Isa::kAvx512).merge_u32,
            k::kernel_table(k::Isa::kAvx2).merge_u32);
}

// --- merges: u32 at every tier, the u16 merge, adversarial list shapes ----

void check_merge_all_tiers(const std::vector<std::uint32_t>& a,
                           const std::vector<std::uint32_t>& b) {
  const std::uint64_t expected = count_u32(k::kernel_table(k::Isa::kScalar), a, b);
  for (const k::Isa isa : kAllTiers) {
    const k::KernelTable& table = k::kernel_table(isa);
    EXPECT_EQ(count_u32(table, a, b), expected)
        << k::isa_name(isa) << " |a|=" << a.size() << " |b|=" << b.size();
    // Intersection is symmetric; the block kernels are not — check both
    // argument orders.
    EXPECT_EQ(count_u32(table, b, a), expected) << k::isa_name(isa) << " (swapped)";
  }
}

// The 16-bit HE lists have one merge, the scalar baselines::intersect_merge
// (the probed and vectorize == false HNN paths); both argument orders must
// give `expected`.
void expect_merge_u16(const std::vector<std::uint16_t>& a,
                      const std::vector<std::uint16_t>& b,
                      std::uint64_t expected) {
  EXPECT_EQ(lotus::baselines::intersect_merge<std::uint16_t>(a, b), expected)
      << "|a|=" << a.size() << " |b|=" << b.size();
  EXPECT_EQ(lotus::baselines::intersect_merge<std::uint16_t>(b, a), expected)
      << "(swapped)";
}

void check_merge_u16(const std::vector<std::uint16_t>& a,
                     const std::vector<std::uint16_t>& b) {
  expect_merge_u16(a, b, set_intersection_size(a, b));
}

TEST(KernelMerge, AdversarialListsU32) {
  using V = std::vector<std::uint32_t>;
  check_merge_all_tiers({}, {});
  check_merge_all_tiers({}, {1, 2, 3});
  check_merge_all_tiers({7}, {7});
  // Disjoint interleaved (evens vs odds) across block boundaries.
  V evens, odds;
  for (std::uint32_t i = 0; i < 70; ++i) {
    evens.push_back(2 * i);
    odds.push_back(2 * i + 1);
  }
  check_merge_all_tiers(evens, odds);
  check_merge_all_tiers(evens, evens);  // identical
  // Skewed lengths: 3 probes into a long run.
  V longrun(1000);
  for (std::uint32_t i = 0; i < 1000; ++i) longrun[i] = 3 * i;
  check_merge_all_tiers({0, 999, 2997}, longrun);
  // IDs at the top of the u32 range: lane compares must stay unsigned.
  V hi_a, hi_b;
  for (std::uint32_t i = 0; i < 20; ++i) {
    hi_a.push_back(0xFFFFFFFFu - 2 * i);
    hi_b.push_back(0xFFFFFFFFu - 3 * i);
  }
  std::reverse(hi_a.begin(), hi_a.end());
  std::reverse(hi_b.begin(), hi_b.end());
  check_merge_all_tiers(hi_a, hi_b);
  // One list straddling the sign bit.
  check_merge_all_tiers(
      {0x7FFFFFFEu, 0x7FFFFFFFu, 0x80000000u, 0x80000001u},
      {0x7FFFFFFFu, 0x80000001u, 0xFFFFFFFFu});
}

TEST(KernelMerge, AdversarialListsU16) {
  using V = std::vector<std::uint16_t>;
  check_merge_u16({}, {});
  check_merge_u16({}, {1, 2, 3});
  V evens, odds;
  for (std::uint16_t i = 0; i < 100; ++i) {
    evens.push_back(static_cast<std::uint16_t>(2 * i));
    odds.push_back(static_cast<std::uint16_t>(2 * i + 1));
  }
  check_merge_u16(evens, odds);
  check_merge_u16(evens, evens);
  expect_merge_u16(evens, odds, 0);
  expect_merge_u16(evens, evens, 100);
  // Top of the u16 range, including 0xFFFF itself.
  expect_merge_u16({0xFFF0, 0xFFF8, 0xFFFE, 0xFFFF}, {0xFFF1, 0xFFF8, 0xFFFF},
                   2);
}

TEST(KernelMerge, RandomizedSizeSweep) {
  lotus::util::Xoshiro256 rng(1234);
  // Sizes around the 4- and 8-lane block boundaries of the SIMD merges.
  const std::size_t sizes[] = {0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100};
  for (const std::size_t na : sizes)
    for (const std::size_t nb : {std::size_t{0}, std::size_t{16},
                                 std::size_t{33}, std::size_t{257}}) {
      const auto a32 = sorted_unique<std::uint32_t>(rng, na, 4 * (na + nb) + 8);
      const auto b32 = sorted_unique<std::uint32_t>(rng, nb, 4 * (na + nb) + 8);
      check_merge_all_tiers(a32, b32);
      const auto a16 = sorted_unique<std::uint16_t>(rng, na, 65536);
      const auto b16 = sorted_unique<std::uint16_t>(rng, nb, 65536);
      check_merge_u16(a16, b16);
    }
}

// --- merge_u32's position outputs at every tier -----------------------------
// The oracle is a binary search of each a[i] in b, independent of every
// merge: the k-th common element's (i, j), ascending.

using Hits = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

Hits common_positions(const std::vector<std::uint32_t>& a,
                      const std::vector<std::uint32_t>& b) {
  Hits out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto it = std::lower_bound(b.begin(), b.end(), a[i]);
    if (it != b.end() && *it == a[i])
      out.emplace_back(static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(it - b.begin()));
  }
  return out;
}

constexpr std::uint32_t kCanary = 0xC0FFEE11u;

// One positional call through `table` with outputs of exactly
// min(|a|, |b|) + kMergeSlack slots plus one canary slot, which must
// survive; with `both` false only a's positions are asked for.
void expect_positions(const k::KernelTable& table,
                      const std::vector<std::uint32_t>& a,
                      const std::vector<std::uint32_t>& b, bool both) {
  const Hits want = common_positions(a, b);
  const std::size_t slots = std::min(a.size(), b.size()) + k::kMergeSlack;
  std::vector<std::uint32_t> at_a(slots + 1, kCanary), at_b(slots + 1, kCanary);
  const std::uint64_t hits = table.merge_u32(a.data(), a.size(), b.data(),
                                             b.size(), at_a.data(),
                                             both ? at_b.data() : nullptr);
  ASSERT_EQ(hits, want.size());
  for (std::size_t n = 0; n < want.size(); ++n) {
    EXPECT_EQ(at_a[n], want[n].first) << "hit " << n;
    if (both) EXPECT_EQ(at_b[n], want[n].second) << "hit " << n;
  }
  EXPECT_EQ(at_a[slots], kCanary) << "store past min + kMergeSlack";
  EXPECT_EQ(at_b[slots], kCanary) << "store past min + kMergeSlack";
  if (!both) EXPECT_EQ(at_b[0], kCanary) << "pos_b written without being asked";
}

// Both argument orders, both output modes, every tier.
void check_positions_all_tiers(const std::vector<std::uint32_t>& a,
                               const std::vector<std::uint32_t>& b) {
  for (const k::Isa isa : kAllTiers)
    for (const bool both : {true, false}) {
      SCOPED_TRACE(std::string(k::isa_name(isa)) + (both ? " a+b" : " a") +
                   " |a|=" + std::to_string(a.size()) +
                   " |b|=" + std::to_string(b.size()));
      expect_positions(k::kernel_table(isa), a, b, both);
      expect_positions(k::kernel_table(isa), b, a, both);
    }
}

TEST(KernelMergePositions, LengthSweepAllTiers) {
  // Every pair of lengths 0–40 (the 8-lane blocks and their tails), over a
  // universe dense enough that most blocks hold several hits.
  lotus::util::Xoshiro256 rng(31337);
  for (std::size_t na = 0; na <= 40; ++na)
    for (std::size_t nb = 0; nb <= 40; ++nb) {
      const std::uint64_t universe = (na + nb) * 3 / 2 + 4;
      check_positions_all_tiers(sorted_unique<std::uint32_t>(rng, na, universe),
                                sorted_unique<std::uint32_t>(rng, nb, universe));
    }
}

TEST(KernelMergePositions, FullBlocksAndEveryRotationOffset) {
  // All 8 lanes of every block match: identical lists, one to five blocks.
  for (std::uint32_t len : {8u, 16u, 24u, 40u}) {
    std::vector<std::uint32_t> a(len);
    for (std::uint32_t i = 0; i < len; ++i) a[i] = 5 * i + 1;
    check_positions_all_tiers(a, a);
  }
  // One hit between a-lane p and b-lane q of two 16-entry lists: every
  // rotation (q - p) & 7 of the block compare, in both blocks.
  for (std::uint32_t p = 0; p < 16; ++p)
    for (std::uint32_t q = 0; q < 16; ++q) {
      std::vector<std::uint32_t> a(16), b(16);
      for (std::uint32_t i = 0; i < 16; ++i) {
        a[i] = i < p ? 2 * i : 2000 + i;      // evens below the hit
        b[i] = i < q ? 2 * i + 1 : 3000 + i;  // odds below the hit
      }
      a[p] = b[q] = 1000;
      check_positions_all_tiers(a, b);
    }
}

TEST(KernelMergePositions, BlockStoresNearTheSlackBound) {
  for (const std::uint32_t short_blocks : {1u, 2u, 3u})
    for (const std::uint32_t extra : {1u, 2u, 5u}) {
      const auto [a, b] = lotus::test::merge_store_bound_lists(short_blocks, extra);
      check_positions_all_tiers(a, b);
    }
}

TEST(KernelMergePositions, ValuesNearTheTopBits) {
  // Lane compares are equality and block advances compare unsigned maxima:
  // lists around 2^31 and ending at 2^32 - 1 must report like any other.
  for (const std::uint32_t base : {0x7FFFFFF0u, 0xFFFFFFFFu - 60}) {
    std::vector<std::uint32_t> a, b;
    for (std::uint32_t i = 0; i <= 60; ++i) {
      if (i % 2 == 0) a.push_back(base + i);
      if (i % 3 == 0) b.push_back(base + i);
    }
    check_positions_all_tiers(a, b);
  }
}

TEST(KernelMergePositions, AdversarialListsAllTiers) {
  // The KernelMerge.AdversarialListsU32 inputs.
  using V = std::vector<std::uint32_t>;
  V evens, odds;
  for (std::uint32_t i = 0; i < 70; ++i) {
    evens.push_back(2 * i);
    odds.push_back(2 * i + 1);
  }
  V longrun(1000);
  for (std::uint32_t i = 0; i < 1000; ++i) longrun[i] = 3 * i;
  V hi_a, hi_b;
  for (std::uint32_t i = 0; i < 20; ++i) {
    hi_a.push_back(0xFFFFFFFFu - 2 * i);
    hi_b.push_back(0xFFFFFFFFu - 3 * i);
  }
  std::reverse(hi_a.begin(), hi_a.end());
  std::reverse(hi_b.begin(), hi_b.end());
  const std::pair<V, V> cases[] = {
      {{}, {}},
      {{}, {1, 2, 3}},
      {{7}, {7}},
      {evens, odds},
      {evens, evens},
      {{0, 999, 2997}, longrun},
      {hi_a, hi_b},
      {{0x7FFFFFFEu, 0x7FFFFFFFu, 0x80000000u, 0x80000001u},
       {0x7FFFFFFFu, 0x80000001u, 0xFFFFFFFFu}}};
  for (const auto& [a, b] : cases) check_positions_all_tiers(a, b);
}

TEST(KernelMerge, ZeroAndTopOfRangeInOneTailBlock) {
  // Short lists holding both ends of the u32 range sit in one partial block.
  // A dead lane padded with "block max + 1" wraps to 0 when the max is
  // 0xFFFFFFFF and then matches a live 0 lane of the other list.
  using V = std::vector<std::uint32_t>;
  constexpr std::uint32_t kTop = 0xFFFFFFFFu;
  const std::pair<V, V> fixed[] = {
      {{0, kTop}, {5}},
      {{0, kTop}, {0}},
      {{0, kTop}, {kTop}},
      {{0, kTop}, {0, kTop}},
      {{0}, {kTop}},
      {{0, 1, 2, kTop - 2, kTop}, {1, 7, kTop - 1}},
      {{0, 1, 2, 3, 4, 5, 6, kTop}, {3, kTop - 5, kTop - 1}},
  };
  for (const auto& [a, b] : fixed) {
    check_merge_all_tiers(a, b);
    check_positions_all_tiers(a, b);
  }
  // Random pairs of 0–19 entries drawn from the bottom and top 32 values.
  lotus::util::Xoshiro256 rng(20260);
  const auto draw = [&rng](std::size_t n) {
    std::set<std::uint32_t> s;
    while (s.size() < n) {
      const auto v = static_cast<std::uint32_t>(rng.next_below(32));
      s.insert(rng.next_below(2) == 0 ? v : kTop - v);
    }
    return V(s.begin(), s.end());
  };
  for (int pair = 0; pair < 4000; ++pair) {
    const V a = draw(rng.next_below(20));
    const V b = draw(rng.next_below(20));
    check_merge_all_tiers(a, b);
    check_positions_all_tiers(a, b);
  }
}

// --- bitmap kernels -------------------------------------------------------

TEST(KernelBitmap, HitsBitsetAllTiers) {
  lotus::util::Xoshiro256 rng(7);
  const std::uint32_t universe = 64 * 37;  // 37 words
  std::vector<std::uint64_t> bits(37, 0);
  const auto members = sorted_unique<std::uint32_t>(rng, 200, universe);
  for (const std::uint32_t m : members) bits[m >> 6] |= 1ULL << (m & 63);
  for (const std::size_t nkeys : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                  std::size_t{4}, std::size_t{5}, std::size_t{100}}) {
    const auto keys = sorted_unique<std::uint32_t>(rng, nkeys, universe);
    const std::uint64_t expected = k::kernel_table(k::Isa::kScalar)
                                       .hits_bitset(keys.data(), keys.size(),
                                                    bits.data());
    for (const k::Isa isa : kAllTiers)
      EXPECT_EQ(k::kernel_table(isa).hits_bitset(keys.data(), keys.size(),
                                                 bits.data()),
                expected)
          << k::isa_name(isa) << " nkeys=" << nkeys;
  }
  // Keys in the first and last word of the bitset (gather edge lanes).
  const std::vector<std::uint32_t> edges = {0, 1, 63, 64, universe - 2,
                                            universe - 1};
  const std::uint64_t expected = k::kernel_table(k::Isa::kScalar)
                                     .hits_bitset(edges.data(), edges.size(),
                                                  bits.data());
  for (const k::Isa isa : kAllTiers)
    EXPECT_EQ(k::kernel_table(isa).hits_bitset(edges.data(), edges.size(),
                                               bits.data()),
              expected)
        << k::isa_name(isa);
}

// --- the dispatched merge against the probed scalar mirror ---------------

TEST(KernelIntersect, DispatchedProbedAndScalarPathsAgree) {
  lotus::util::Xoshiro256 rng(5);
  for (int round = 0; round < 20; ++round) {
    const auto a = sorted_unique<std::uint32_t>(rng, 40, 300);
    const auto b = sorted_unique<std::uint32_t>(rng, 25, 300);
    lotus::baselines::NullProbe probe;  // distinct type value, same semantics
    const std::uint64_t reference =
        lotus::baselines::intersect_merge<std::uint32_t>(a, b, probe);
    EXPECT_EQ(count_u32(k::kernel_table(), a, b), reference);
  }
}

// --- the merge at every forced tier ---------------------------------------
// The dispatched merge the Forward count loop and the LOTUS phases call:
// each case must give `expected` under every tier and from the scalar merge
// of the probed and vectorize = false paths.

void expect_intersect(const std::vector<std::uint32_t>& a,
                      const std::vector<std::uint32_t>& b,
                      std::uint64_t expected) {
  for (const k::Isa isa : kAllTiers) {
    ScopedIsa forced(isa);
    EXPECT_EQ(count_u32(k::kernel_table(), a, b), expected) << k::isa_name(isa);
  }
  EXPECT_EQ(lotus::baselines::intersect_merge<std::uint32_t>(a, b), expected)
      << "scalar";
}

TEST(SimdIntersect, TinyListsUseTailPath) {
  expect_intersect({1, 5, 9}, {5, 9, 11}, 2);
}

TEST(SimdIntersect, EmptyInputs) {
  expect_intersect({}, {1, 2, 3}, 0);
  expect_intersect({1, 2, 3}, {}, 0);
}

TEST(SimdIntersect, ExactBlockMultiples) {
  std::vector<std::uint32_t> a(32), b(32);
  for (std::uint32_t i = 0; i < 32; ++i) {
    a[i] = 2 * i;  // evens
    b[i] = 3 * i;  // multiples of 3
  }
  // Common: multiples of 6 below min(62, 93): 0,6,...,60 -> 11 values.
  expect_intersect(a, b, 11);
}

TEST(SimdIntersect, MatchesAcrossBlockBoundaries) {
  // One common element at every offset relative to the blocks of both lists.
  for (std::uint32_t pos_a = 0; pos_a < 20; ++pos_a) {
    for (std::uint32_t pos_b = 0; pos_b < 20; ++pos_b) {
      std::vector<std::uint32_t> a(20), b(20);
      for (std::uint32_t i = 0; i < 20; ++i) {
        a[i] = 10 * i + 1;
        b[i] = 10 * i + 2;
      }
      a[pos_a] = 10 * pos_a + 5;
      b[pos_b] = 10 * pos_b + 5;
      SCOPED_TRACE("pos_a=" + std::to_string(pos_a) +
                   " pos_b=" + std::to_string(pos_b));
      expect_intersect(a, b, pos_a == pos_b ? 1 : 0);
    }
  }
}

TEST(SimdIntersect, RandomizedAgreementWithMerge) {
  lotus::util::Xoshiro256 rng(2024);
  for (int round = 0; round < 50; ++round) {
    const auto universe = 100 + rng.next_below(1000);
    const auto a = sorted_unique<std::uint32_t>(
        rng, std::min<std::uint64_t>(1 + rng.next_below(300), universe / 2),
        universe);
    const auto b = sorted_unique<std::uint32_t>(
        rng, std::min<std::uint64_t>(1 + rng.next_below(300), universe / 2),
        universe);
    SCOPED_TRACE("round " + std::to_string(round));
    expect_intersect(
        a, b, lotus::baselines::intersect_merge<std::uint32_t>(a, b));
  }
}

TEST(KernelIntersect, RandomShortListsAllTiers) {
  // Lists of 0–20 entries: shorter than one block on every SIMD tier, or
  // one block plus a remainder, so the AVX2 partial blocks (and NEON's
  // scalar tail) do all or most of the work — the shape of the NNN phase's
  // lists. The reference is the branching merge of baselines/intersect.hpp;
  // dense universes make overlaps common.
  lotus::util::Xoshiro256 rng(2718);
  for (std::size_t na = 0; na <= 20; ++na)
    for (std::size_t nb = 0; nb <= 20; ++nb) {
      const std::uint64_t universe = 2 * (na + nb) + 4;
      SCOPED_TRACE("na=" + std::to_string(na) + " nb=" + std::to_string(nb));
      const auto a32 = sorted_unique<std::uint32_t>(rng, na, universe);
      const auto b32 = sorted_unique<std::uint32_t>(rng, nb, universe);
      const std::uint64_t expect32 =
          lotus::baselines::intersect_merge<std::uint32_t>(a32, b32);
      expect_intersect(a32, b32, expect32);
      for (const k::Isa isa : kAllTiers)
        EXPECT_EQ(count_u32(k::kernel_table(isa), b32, a32), expect32)
            << k::isa_name(isa) << " (swapped)";
    }
}

TEST(SimdIntersect, IdenticalLargeLists) {
  std::vector<std::uint32_t> a(1000);
  for (std::uint32_t i = 0; i < 1000; ++i) a[i] = i * 7 + 3;
  expect_intersect(a, a, 1000);
}

// --- the u16 merge of the HE lists --------------------------------------
// The scalar baselines::intersect_merge<std::uint16_t>, which the probed and
// vectorize == false HNN paths call; the vectorized HNN paths probe a hub
// bitmap instead (lotus/count.hpp).

TEST(SimdIntersect16, TinyAndEmpty) {
  expect_merge_u16({1, 5, 9}, {5, 9, 11}, 2);
  expect_merge_u16({}, {5, 9, 11}, 0);
  expect_merge_u16({1, 5, 9}, {}, 0);
}

TEST(SimdIntersect16, FullBlocksWithKnownOverlap) {
  std::vector<std::uint16_t> a(64), b(64);
  for (std::uint16_t i = 0; i < 64; ++i) {
    a[i] = static_cast<std::uint16_t>(2 * i);  // evens 0..126
    b[i] = static_cast<std::uint16_t>(3 * i);  // multiples of 3, 0..189
  }
  // Common: multiples of 6 up to min(126, 189) -> 0, 6, ..., 126: 22 values.
  expect_merge_u16(a, b, 22);
}

TEST(SimdIntersect16, MatchAtEveryRotationOffset) {
  // One common element at every pair of positions in two 16-entry lists.
  for (std::uint32_t pos_a = 0; pos_a < 16; ++pos_a) {
    for (std::uint32_t pos_b = 0; pos_b < 16; ++pos_b) {
      std::vector<std::uint16_t> a(16), b(16);
      for (std::uint16_t i = 0; i < 16; ++i) {
        a[i] = static_cast<std::uint16_t>(100 * i + 1);
        b[i] = static_cast<std::uint16_t>(100 * i + 2);
      }
      a[pos_a] = static_cast<std::uint16_t>(100 * pos_a + 50);
      b[pos_b] = static_cast<std::uint16_t>(100 * pos_b + 50);
      SCOPED_TRACE("pos_a=" + std::to_string(pos_a) +
                   " pos_b=" + std::to_string(pos_b));
      expect_merge_u16(a, b, pos_a == pos_b ? 1 : 0);
    }
  }
}

TEST(SimdIntersect16, RandomizedAgreementWithMerge) {
  lotus::util::Xoshiro256 rng(4048);
  for (int round = 0; round < 50; ++round) {
    const auto a = sorted_unique<std::uint16_t>(rng, 1 + rng.next_below(400), 2000);
    const auto b = sorted_unique<std::uint16_t>(rng, 1 + rng.next_below(400), 2000);
    SCOPED_TRACE("round " + std::to_string(round));
    expect_merge_u16(a, b, set_intersection_size(a, b));
  }
}

TEST(SimdIntersect16, MaxValueIds) {
  // 16-bit boundary values (the largest hub IDs LOTUS can store in HE).
  expect_merge_u16({65530, 65533, 65535}, {65531, 65533, 65535}, 2);
}

// --- the Forward count loop ----------------------------------------------

// Lists of ≥ max(dense_from, 2) entries go dense: 0 and 2 mean every
// countable list (LotusConfig's 0 = merge only is count_nnn's mapping). The
// budget charge shows it; K_65 by ID has one list of exactly 64 entries.
TEST(KernelForwardCount, DenseFromIsTheShortestDenseList) {
  constexpr std::uint32_t n = 65;
  std::vector<std::uint64_t> offsets{0};
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t u = 0; u < v; ++u) neighbors.push_back(u);
    offsets.push_back(neighbors.size());
  }
  const std::uint64_t bitmaps =  // ⌈n/64⌉ words a thread
      lotus::parallel::num_threads() * ((n + 63) / 64) * sizeof(std::uint64_t);
  const std::pair<std::uint32_t, std::uint64_t> cases[] = {  // dense_from, charge
      {0, bitmaps}, {2, bitmaps}, {64, bitmaps}, {65, 0}, {k::kNeverDense, 0}};
  for (const auto& [dense_from, charge] : cases) {
    lotus::util::MemoryBudget budget;  // limit 0: accounting only
    lotus::util::ScopedMemoryBudget scoped(&budget);
    EXPECT_EQ(k::forward_count(offsets, neighbors, dense_from),
              std::uint64_t{n} * (n - 1) * (n - 2) / 6)
        << "dense_from=" << dense_from;
    EXPECT_EQ(budget.used(), charge) << "dense_from=" << dense_from;
  }
}

TEST(KernelHybrid, ThresholdSweepMatchesForwardMerge) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 9, .edge_factor = 8, .seed = 77}));
  const auto oriented = g::degree_ordered_oriented(graph);
  const std::uint64_t expected =
      lotus::baselines::forward_merge_prepared(oriented, /*vectorize=*/false);
  // 1 = every countable vertex dense, huge = pure merge, and the default.
  for (const std::uint32_t threshold : {1u, 2u, 8u, 64u, 1u << 30}) {
    EXPECT_EQ(lotus::baselines::forward_hybrid_prepared(oriented, threshold),
              expected)
        << "threshold=" << threshold;
  }
}

TEST(KernelHybrid, AllTiersAgreeOnGraph) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 9, .edge_factor = 8, .seed = 78}));
  const auto oriented = g::degree_ordered_oriented(graph);
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  for (const k::Isa isa : kAllTiers) {
    ScopedIsa forced(isa);
    EXPECT_EQ(lotus::baselines::forward_hybrid_prepared(oriented, 8), expected)
        << k::isa_name(isa);
  }
}

// --- graph-level tier invariance ------------------------------------------

TEST(KernelGraphLevel, ForcedIsaMatrixAllAlgorithmsAgree) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 9, .edge_factor = 8, .seed = 41}));
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  for (const k::Isa isa : kAllTiers) {
    ScopedIsa forced(isa);
    for (const tc::Algorithm algorithm :
         {tc::Algorithm::kLotus, tc::Algorithm::kForwardHybrid}) {
      EXPECT_EQ(tc::query(algorithm, graph).value().result.triangles, expected)
          << tc::name(algorithm) << " @ " << k::isa_name(isa);
    }
    // gap-forward: dispatched SIMD merge and the scalar GAP merge.
    for (const bool vectorize : {true, false}) {
      tc::QueryOptions options;
      options.config.vectorize = vectorize;
      EXPECT_EQ(tc::query(tc::Algorithm::kForwardMerge, graph, options)
                    .value()
                    .result.triangles,
                expected)
          << "gap-forward vectorize=" << vectorize << " @ "
          << k::isa_name(isa);
    }
  }
}

TEST(KernelGraphLevel, LotusScalarReferencePathAgrees) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 10, .seed = 42}));
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  lotus::core::LotusConfig vectorized;  // defaults: vectorize = true
  lotus::core::LotusConfig scalar_ref;
  scalar_ref.vectorize = false;
  lotus::core::LotusConfig no_bitmap;
  no_bitmap.hybrid_degree_threshold = 0;  // merge-only NNN
  lotus::core::LotusConfig eager_bitmap;
  eager_bitmap.hybrid_degree_threshold = 2;
  for (const auto& config :
       {vectorized, scalar_ref, no_bitmap, eager_bitmap}) {
    EXPECT_EQ(tc::query(tc::Algorithm::kLotus, graph, {.config = config})
                  .value()
                  .result.triangles,
              expected)
        << "vectorize=" << config.vectorize
        << " hybrid_threshold=" << config.hybrid_degree_threshold;
  }
  // Fused ablation path also routes through the dispatched kernels.
  const auto lg = lotus::core::LotusGraph::build(graph);
  const auto hub = lotus::core::count_hhh_hhn(lg, {});
  EXPECT_EQ(hub.hhh + hub.hhn + lotus::ablation::count_hnn_nnn_fused(lg), expected);
}

}  // namespace
