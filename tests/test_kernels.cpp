// SIMD kernel layer: every (kernel × forced ISA tier) agrees with the
// scalar reference on adversarial inputs, the dispatch/override machinery
// behaves, and the graph-level algorithms are tier-invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "baselines/intersect.hpp"
#include "baselines/tc_baselines.hpp"
#include "graph/builder.hpp"
#include "graph/degree_order.hpp"
#include "graph/generators.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/hybrid.hpp"
#include "kernels/intersect.hpp"
#include "kernels/isa.hpp"
#include "lotus/count.hpp"
#include "lotus/lotus_graph.hpp"
#include "tc/api.hpp"
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

// Bit-by-bit reference for the unaligned-window kernel: bit w*64+b of the
// window lives at absolute bit offset + w*64 + b; words at or past
// bits_words read as zero.
std::uint64_t naive_window_popcount(const std::vector<std::uint64_t>& bits,
                                    std::uint64_t offset,
                                    const std::vector<std::uint64_t>& mask) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < mask.size(); ++w)
    for (unsigned b = 0; b < 64; ++b) {
      if (((mask[w] >> b) & 1) == 0) continue;
      const std::uint64_t bit = offset + w * 64 + b;
      const std::size_t word = static_cast<std::size_t>(bit >> 6);
      if (word >= bits.size()) continue;
      total += (bits[word] >> (bit & 63)) & 1;
    }
  return total;
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
    EXPECT_NE(table.merge_u16, nullptr);
    EXPECT_NE(table.hits_bitset, nullptr);
    EXPECT_NE(table.and_window_popcount, nullptr);
    EXPECT_TRUE(k::isa_supported(table.isa));
  }
}

// --- merge kernels: every tier × adversarial list shapes ------------------

template <typename T>
void check_merge_all_tiers(const std::vector<T>& a, const std::vector<T>& b) {
  const k::KernelTable& scalar = k::kernel_table(k::Isa::kScalar);
  std::uint64_t expected;
  if constexpr (sizeof(T) == 2)
    expected = scalar.merge_u16(a.data(), a.size(), b.data(), b.size());
  else
    expected = scalar.merge_u32(a.data(), a.size(), b.data(), b.size());
  for (const k::Isa isa : kAllTiers) {
    const k::KernelTable& table = k::kernel_table(isa);
    std::uint64_t got;
    if constexpr (sizeof(T) == 2)
      got = table.merge_u16(a.data(), a.size(), b.data(), b.size());
    else
      got = table.merge_u32(a.data(), a.size(), b.data(), b.size());
    EXPECT_EQ(got, expected) << k::isa_name(isa) << " |a|=" << a.size()
                             << " |b|=" << b.size();
    // Intersection is symmetric; the block kernels are not — check both
    // argument orders.
    if constexpr (sizeof(T) == 2)
      got = table.merge_u16(b.data(), b.size(), a.data(), a.size());
    else
      got = table.merge_u32(b.data(), b.size(), a.data(), a.size());
    EXPECT_EQ(got, expected) << k::isa_name(isa) << " (swapped)";
  }
}

TEST(KernelMerge, AdversarialListsU32) {
  using V = std::vector<std::uint32_t>;
  check_merge_all_tiers<std::uint32_t>({}, {});
  check_merge_all_tiers<std::uint32_t>({}, {1, 2, 3});
  check_merge_all_tiers<std::uint32_t>({7}, {7});
  // Disjoint interleaved (evens vs odds) across block boundaries.
  V evens, odds;
  for (std::uint32_t i = 0; i < 70; ++i) {
    evens.push_back(2 * i);
    odds.push_back(2 * i + 1);
  }
  check_merge_all_tiers<std::uint32_t>(evens, odds);
  check_merge_all_tiers<std::uint32_t>(evens, evens);  // identical
  // Skewed lengths: 3 probes into a long run.
  V longrun(1000);
  for (std::uint32_t i = 0; i < 1000; ++i) longrun[i] = 3 * i;
  check_merge_all_tiers<std::uint32_t>({0, 999, 2997}, longrun);
  // IDs at the top of the u32 range: lane compares must stay unsigned.
  V hi_a, hi_b;
  for (std::uint32_t i = 0; i < 20; ++i) {
    hi_a.push_back(0xFFFFFFFFu - 2 * i);
    hi_b.push_back(0xFFFFFFFFu - 3 * i);
  }
  std::reverse(hi_a.begin(), hi_a.end());
  std::reverse(hi_b.begin(), hi_b.end());
  check_merge_all_tiers<std::uint32_t>(hi_a, hi_b);
  // One list straddling the sign bit.
  check_merge_all_tiers<std::uint32_t>(
      {0x7FFFFFFEu, 0x7FFFFFFFu, 0x80000000u, 0x80000001u},
      {0x7FFFFFFFu, 0x80000001u, 0xFFFFFFFFu});
}

TEST(KernelMerge, AdversarialListsU16) {
  using V = std::vector<std::uint16_t>;
  check_merge_all_tiers<std::uint16_t>({}, {});
  check_merge_all_tiers<std::uint16_t>({}, {1, 2, 3});
  V evens, odds;
  for (std::uint16_t i = 0; i < 100; ++i) {
    evens.push_back(static_cast<std::uint16_t>(2 * i));
    odds.push_back(static_cast<std::uint16_t>(2 * i + 1));
  }
  check_merge_all_tiers<std::uint16_t>(evens, odds);
  check_merge_all_tiers<std::uint16_t>(evens, evens);
  // Top of the u16 range, including 0xFFFF itself.
  check_merge_all_tiers<std::uint16_t>({0xFFF0, 0xFFF8, 0xFFFE, 0xFFFF},
                                       {0xFFF1, 0xFFF8, 0xFFFF});
}

TEST(KernelMerge, RandomizedSizeSweep) {
  lotus::util::Xoshiro256 rng(1234);
  // Sizes around the 8/16/32-lane block boundaries of every tier.
  const std::size_t sizes[] = {0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100};
  for (const std::size_t na : sizes)
    for (const std::size_t nb : {std::size_t{0}, std::size_t{16},
                                 std::size_t{33}, std::size_t{257}}) {
      const auto a32 = sorted_unique<std::uint32_t>(rng, na, 4 * (na + nb) + 8);
      const auto b32 = sorted_unique<std::uint32_t>(rng, nb, 4 * (na + nb) + 8);
      check_merge_all_tiers<std::uint32_t>(a32, b32);
      const auto a16 = sorted_unique<std::uint16_t>(rng, na, 65536);
      const auto b16 = sorted_unique<std::uint16_t>(rng, nb, 65536);
      check_merge_all_tiers<std::uint16_t>(a16, b16);
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

TEST(KernelBitmap, AndWindowPopcountOffsetsAndStraddles) {
  lotus::util::Xoshiro256 rng(2026);
  std::vector<std::uint64_t> bits(24);
  for (auto& w : bits) w = rng();
  for (const std::uint64_t offset :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{63}, std::uint64_t{64},
        std::uint64_t{65}, std::uint64_t{640}, std::uint64_t{1217}}) {
    const std::size_t base = static_cast<std::size_t>(offset >> 6);
    // Largest window whose word reads stay inside `bits` (the caller
    // contract): base + mask_words <= bits_words.
    const std::size_t max_mask = bits.size() - base;
    for (const std::size_t mask_words :
         {std::size_t{1}, max_mask / 2 + 1, max_mask}) {
      std::vector<std::uint64_t> mask(mask_words);
      for (auto& w : mask) w = rng();
      if (mask_words == max_mask && (offset & 63) != 0) {
        // Straddle case: the final window word has no successor word to
        // borrow its high half from — those mask bits must read zero.
        mask.back() = (1ULL << (64 - (offset & 63))) - 1;
      }
      const std::uint64_t expected = naive_window_popcount(bits, offset, mask);
      for (const k::Isa isa : kAllTiers)
        EXPECT_EQ(k::kernel_table(isa).and_window_popcount(
                      bits.data(), bits.size(), offset, mask.data(),
                      mask.size()),
                  expected)
            << k::isa_name(isa) << " offset=" << offset
            << " mask_words=" << mask_words;
    }
  }
}

// --- probe/obs contract of the dispatching wrapper ------------------------

TEST(KernelIntersect, DispatchedProbedAndScalarPathsAgree) {
  lotus::util::Xoshiro256 rng(5);
  for (int round = 0; round < 20; ++round) {
    const auto a = sorted_unique<std::uint32_t>(rng, 40, 300);
    const auto b = sorted_unique<std::uint32_t>(rng, 25, 300);
    const std::span<const std::uint32_t> sa(a), sb(b);
    const std::uint64_t dispatched = k::intersect<std::uint32_t>(sa, sb);
    const std::uint64_t scalar = k::intersect<std::uint32_t>(
        sa, sb, lotus::baselines::null_probe, /*vectorize=*/false);
    lotus::baselines::NullProbe probe;  // distinct type value, same semantics
    const std::uint64_t reference =
        lotus::baselines::intersect_merge<std::uint32_t>(sa, sb, probe);
    EXPECT_EQ(dispatched, reference);
    EXPECT_EQ(scalar, reference);
  }
}

// --- kernels::intersect at every forced tier ------------------------------
// The front door gap-forward and the LOTUS phases call: each case must give
// `expected` under every tier and on the scalar (vectorize = false) path.

template <typename T>
void expect_intersect(const std::vector<T>& a, const std::vector<T>& b,
                      std::uint64_t expected) {
  const std::span<const T> sa(a), sb(b);
  for (const k::Isa isa : kAllTiers) {
    ScopedIsa forced(isa);
    EXPECT_EQ(k::intersect<T>(sa, sb), expected) << k::isa_name(isa);
  }
  EXPECT_EQ(k::intersect<T>(sa, sb, lotus::baselines::null_probe,
                            /*vectorize=*/false),
            expected)
      << "scalar";
}

TEST(SimdIntersect, TinyListsUseTailPath) {
  expect_intersect<std::uint32_t>({1, 5, 9}, {5, 9, 11}, 2);
}

TEST(SimdIntersect, EmptyInputs) {
  expect_intersect<std::uint32_t>({}, {1, 2, 3}, 0);
  expect_intersect<std::uint32_t>({1, 2, 3}, {}, 0);
}

TEST(SimdIntersect, ExactBlockMultiples) {
  std::vector<std::uint32_t> a(32), b(32);
  for (std::uint32_t i = 0; i < 32; ++i) {
    a[i] = 2 * i;  // evens
    b[i] = 3 * i;  // multiples of 3
  }
  // Common: multiples of 6 below min(62, 93): 0,6,...,60 -> 11 values.
  expect_intersect<std::uint32_t>(a, b, 11);
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
      expect_intersect<std::uint32_t>(a, b, pos_a == pos_b ? 1 : 0);
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
    expect_intersect<std::uint32_t>(
        a, b, lotus::baselines::intersect_merge<std::uint32_t>(a, b));
  }
}

TEST(KernelIntersect, RandomShortListsAllTiers) {
  // Lists of 0–20 entries: shorter than one block on every SIMD tier, or
  // one block plus a tail, so the shared branch-free tail merge does all or
  // most of the work — the shape of the NNN phase's lists. The reference is
  // the branching merge of baselines/intersect.hpp; dense universes make
  // overlaps common.
  lotus::util::Xoshiro256 rng(2718);
  for (std::size_t na = 0; na <= 20; ++na)
    for (std::size_t nb = 0; nb <= 20; ++nb) {
      const std::uint64_t universe = 2 * (na + nb) + 4;
      SCOPED_TRACE("na=" + std::to_string(na) + " nb=" + std::to_string(nb));
      const auto a32 = sorted_unique<std::uint32_t>(rng, na, universe);
      const auto b32 = sorted_unique<std::uint32_t>(rng, nb, universe);
      const std::uint64_t expect32 =
          lotus::baselines::intersect_merge<std::uint32_t>(a32, b32);
      expect_intersect<std::uint32_t>(a32, b32, expect32);
      const auto a16 = sorted_unique<std::uint16_t>(rng, na, universe);
      const auto b16 = sorted_unique<std::uint16_t>(rng, nb, universe);
      const std::uint64_t expect16 =
          lotus::baselines::intersect_merge<std::uint16_t>(a16, b16);
      expect_intersect<std::uint16_t>(a16, b16, expect16);
      for (const k::Isa isa : kAllTiers) {
        const k::KernelTable& table = k::kernel_table(isa);
        EXPECT_EQ(table.merge_u32(b32.data(), nb, a32.data(), na), expect32)
            << k::isa_name(isa) << " (swapped)";
        EXPECT_EQ(table.merge_u16(b16.data(), nb, a16.data(), na), expect16)
            << k::isa_name(isa) << " (swapped)";
      }
    }
}

TEST(SimdIntersect, IdenticalLargeLists) {
  std::vector<std::uint32_t> a(1000);
  for (std::uint32_t i = 0; i < 1000; ++i) a[i] = i * 7 + 3;
  expect_intersect<std::uint32_t>(a, a, 1000);
}

TEST(SimdIntersect16, TinyAndEmpty) {
  expect_intersect<std::uint16_t>({1, 5, 9}, {5, 9, 11}, 2);
  expect_intersect<std::uint16_t>({}, {5, 9, 11}, 0);
  expect_intersect<std::uint16_t>({1, 5, 9}, {}, 0);
}

TEST(SimdIntersect16, FullBlocksWithKnownOverlap) {
  std::vector<std::uint16_t> a(64), b(64);
  for (std::uint16_t i = 0; i < 64; ++i) {
    a[i] = static_cast<std::uint16_t>(2 * i);  // evens 0..126
    b[i] = static_cast<std::uint16_t>(3 * i);  // multiples of 3, 0..189
  }
  // Common: multiples of 6 up to min(126, 189) -> 0, 6, ..., 126: 22 values.
  expect_intersect<std::uint16_t>(a, b, 22);
}

TEST(SimdIntersect16, MatchAtEveryRotationOffset) {
  // One common element at every relative lane offset within 16-lane blocks.
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
      expect_intersect<std::uint16_t>(a, b, pos_a == pos_b ? 1 : 0);
    }
  }
}

TEST(SimdIntersect16, RandomizedAgreementWithMerge) {
  lotus::util::Xoshiro256 rng(4048);
  for (int round = 0; round < 50; ++round) {
    const auto a = sorted_unique<std::uint16_t>(rng, 1 + rng.next_below(400), 2000);
    const auto b = sorted_unique<std::uint16_t>(rng, 1 + rng.next_below(400), 2000);
    SCOPED_TRACE("round " + std::to_string(round));
    expect_intersect<std::uint16_t>(
        a, b, lotus::baselines::intersect_merge<std::uint16_t>(a, b));
  }
}

TEST(SimdIntersect16, MaxValueIds) {
  // 16-bit boundary values (the largest hub IDs LOTUS can store in HE).
  expect_intersect<std::uint16_t>({65530, 65533, 65535}, {65531, 65533, 65535},
                                  2);
}

// --- hybrid kernel --------------------------------------------------------

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
  EXPECT_EQ(hub.hhh + hub.hhn + lotus::core::count_hnn_nnn_fused(lg), expected);
}

}  // namespace
