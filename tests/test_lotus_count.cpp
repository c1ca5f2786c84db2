// End-to-end LOTUS correctness: agreement with brute force across all
// generators, hub-count configurations, tiling policies, and the fused
// ablation mode; plus per-type count consistency.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "baselines/tc_baselines.hpp"
#include "bench/ablations/hnn.hpp"
#include "bench/ablations/reorder.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "lotus/count.hpp"
#include "lotus/lotus.hpp"
#include "lotus/relabel.hpp"
#include "parallel/thread_pool.hpp"
#include "tc/api.hpp"
#include "util/memory_budget.hpp"

namespace {

namespace g = lotus::graph;
using lotus::baselines::brute_force;
using lotus::core::LotusConfig;
using lotus::core::LotusGraph;
using lotus::core::LotusResult;
using lotus::core::TilingPolicy;

TEST(LotusCount, CompleteGraphs) {
  for (g::VertexId n : {3u, 4u, 10u, 50u}) {
    const auto graph = g::build_undirected(g::complete(n));
    LotusConfig config;
    config.hub_count = std::max<g::VertexId>(1, n / 4);
    const auto r = lotus::core::count_triangles(graph, config);
    EXPECT_EQ(r.triangles, g::complete_triangles(n)) << "K_" << n;
  }
}

TEST(LotusCount, TriangleFreeGraphs) {
  for (const auto& graph :
       {g::build_undirected(g::star(200)), g::build_undirected(g::grid(10, 10)),
        g::build_undirected(g::complete_bipartite(20, 20))}) {
    const auto r = lotus::core::count_triangles(graph);
    EXPECT_EQ(r.triangles, 0u);
    EXPECT_EQ(r.hhh + r.hhn + r.hnn + r.nnn, 0u);
  }
}

TEST(LotusCount, TypeCountsSumToTotal) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 11, .edge_factor = 12, .seed = 1}));
  const auto r = lotus::core::count_triangles(graph);
  EXPECT_EQ(r.triangles, r.hhh + r.hhn + r.hnn + r.nnn);
  EXPECT_EQ(r.hub_triangles(), r.hhh + r.hhn + r.hnn);
  EXPECT_EQ(r.triangles, brute_force(graph));
}

TEST(LotusCount, TypeAttributionOnCraftedGraph) {
  // Hubs are the 2 highest-degree vertices. Build a graph where each
  // triangle type is known by construction:
  //   vertices 0,1 high degree (hubs after relabel), connected to everything.
  //   HHN: (0,1,x) for every other x; HNN: (0,2,3); NNN: (4,5,6).
  g::EdgeList el{8, {}};
  for (g::VertexId x = 2; x < 8; ++x) {
    el.edges.push_back({0, x});
    el.edges.push_back({1, x});
  }
  el.edges.push_back({0, 1});  // hub-hub edge
  el.edges.push_back({2, 3});  // HNN via hub 0 (and hub 1): two HNN triangles
  el.edges.push_back({4, 5});
  el.edges.push_back({5, 6});
  el.edges.push_back({4, 6});  // NNN triangle 4-5-6 (plus HNN with hubs)
  const auto graph = g::build_undirected(el);

  LotusConfig config;
  config.hub_count = 2;
  config.relabel_fraction = 0.0;  // only hubs reordered
  const auto r = lotus::core::count_triangles(graph, config);
  EXPECT_EQ(r.triangles, brute_force(graph));
  EXPECT_EQ(r.hhh, 0u);          // only 2 hubs: no 3-hub triangle
  EXPECT_EQ(r.hhn, 6u);          // (0,1,x) for x=2..7
  EXPECT_EQ(r.nnn, 1u);          // 4-5-6
  EXPECT_EQ(r.hnn, r.triangles - 7u);
}

TEST(LotusCount, HhhOnlyGraph) {
  // Complete graph where every vertex is a hub: all triangles are HHH.
  const auto graph = g::build_undirected(g::complete(20));
  LotusConfig config;
  config.hub_count = 20;
  const auto r = lotus::core::count_triangles(graph, config);
  EXPECT_EQ(r.hhh, g::complete_triangles(20));
  EXPECT_EQ(r.hhn + r.hnn + r.nnn, 0u);
}

TEST(LotusCount, NnnOnlyWhenNoHubsTouchTriangles) {
  // Star (hub-heavy, no triangles) plus a distant triangle of low-degree
  // vertices: with 1 hub (the star centre) the triangle must be NNN.
  g::EdgeList el{104, {}};
  for (g::VertexId x = 1; x <= 100; ++x) el.edges.push_back({0, x});
  el.edges.push_back({101, 102});
  el.edges.push_back({102, 103});
  el.edges.push_back({101, 103});
  const auto graph = g::build_undirected(el);
  LotusConfig config;
  config.hub_count = 1;
  config.relabel_fraction = 0.0;
  const auto r = lotus::core::count_triangles(graph, config);
  EXPECT_EQ(r.triangles, 1u);
  EXPECT_EQ(r.nnn, 1u);
}

struct LotusCase {
  std::string name;
  std::function<g::CsrGraph()> make;
};

class LotusProperty : public ::testing::TestWithParam<std::tuple<int, int>> {
 public:
  static std::vector<LotusCase> graphs() {
    return {
        {"rmat", [] {
           return g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 11}));
         }},
        {"holme_kim", [] {
           return g::build_undirected(g::holme_kim(
               {.num_vertices = 2000, .edges_per_vertex = 6, .p_triad = 0.6, .seed = 12}));
         }},
        {"copy_web", [] {
           return g::build_undirected(g::copy_web(
               {.num_vertices = 2000, .edges_per_vertex = 7, .p_copy = 0.7,
                .locality_window = 128, .seed = 13}));
         }},
        {"erdos_renyi", [] { return g::build_undirected(g::erdos_renyi(2000, 12.0, 14)); }},
        {"watts_strogatz", [] {
           return g::build_undirected(g::watts_strogatz(
               {.num_vertices = 1500, .ring_degree = 6, .rewire_prob = 0.15, .seed = 15}));
         }},
    };
  }
  static std::vector<g::VertexId> hub_counts() { return {0, 1, 16, 256, 65536}; }
};

TEST_P(LotusProperty, MatchesBruteForceAcrossHubCounts) {
  const auto [graph_index, hub_index] = GetParam();
  const auto testcase = LotusProperty::graphs()[static_cast<std::size_t>(graph_index)];
  const auto graph = testcase.make();
  const std::uint64_t expected = brute_force(graph);

  LotusConfig config;
  config.hub_count = LotusProperty::hub_counts()[static_cast<std::size_t>(hub_index)];
  const auto r = lotus::core::count_triangles(graph, config);
  EXPECT_EQ(r.triangles, expected)
      << testcase.name << " hubs=" << config.hub_count;
  EXPECT_EQ(r.triangles, r.hhh + r.hhn + r.hnn + r.nnn);
}

INSTANTIATE_TEST_SUITE_P(
    GraphsByHubCounts, LotusProperty,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 5)),
    [](const auto& info) {
      const auto cases = LotusProperty::graphs();
      return cases[static_cast<std::size_t>(std::get<0>(info.param))].name + "_hubs" +
             std::to_string(LotusProperty::hub_counts()[static_cast<std::size_t>(
                 std::get<1>(info.param))]);
    });

TEST(LotusCount, FusedModeMatchesSplit) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 11, .edge_factor = 10, .seed = 21}));
  const auto split = lotus::core::count_triangles(graph);
  const auto lg = LotusGraph::build(graph);
  EXPECT_EQ(lotus::ablation::count_hnn_nnn_fused(lg), split.hnn + split.nnn);
}

TEST(LotusCount, EdgeBalancedPolicyCountsIdentically) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 11, .edge_factor = 10, .seed = 22}));
  LotusConfig config;
  const auto lg = LotusGraph::build(graph, config);
  const auto squared =
      lotus::core::count_hhh_hhn(lg, config, TilingPolicy::kSquared);
  const auto balanced =
      lotus::core::count_hhh_hhn(lg, config, TilingPolicy::kEdgeBalanced);
  EXPECT_EQ(squared.hhh, balanced.hhh);
  EXPECT_EQ(squared.hhn, balanced.hhn);
}

TEST(LotusCount, TinyTilingThresholdStillCorrect) {
  // Force squared tiling onto every vertex (threshold 1).
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 10, .seed = 23}));
  LotusConfig config;
  config.tiling_degree_threshold = 1;
  const auto r = lotus::core::count_triangles(graph, config);
  EXPECT_EQ(r.triangles, brute_force(graph));
}

TEST(LotusCount, BreakdownTimesAreNonNegativeAndSum) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 24}));
  const auto r = lotus::core::count_triangles(graph);
  EXPECT_GE(r.preprocess_s, 0.0);
  EXPECT_GE(r.hhh_hhn_s, 0.0);
  EXPECT_GE(r.hnn_s, 0.0);
  EXPECT_GE(r.nnn_s, 0.0);
  EXPECT_DOUBLE_EQ(r.total_s(), r.preprocess_s + r.count_s());
}

TEST(LotusCount, EmptyGraph) {
  const auto r = lotus::core::count_triangles(g::build_undirected({0, {}}));
  EXPECT_EQ(r.triangles, 0u);
}

TEST(LotusCount, InvariantUnderInputReordering) {
  // LOTUS does its own relabeling, so the total count must not change with
  // the input order. The per-type split MAY change: hub selection breaks
  // degree ties by input position, so the marginal hubs differ.
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 10, .seed = 25}));
  const auto reference = lotus::core::count_triangles(graph);
  for (auto ordering : lotus::ablation::all_orderings()) {
    const auto relabeled =
        g::relabel(graph, lotus::ablation::make_ordering(graph, ordering, 13));
    const auto r = lotus::core::count_triangles(relabeled);
    EXPECT_EQ(r.triangles, reference.triangles) << lotus::ablation::ordering_name(ordering);
    EXPECT_EQ(r.triangles, r.hhh + r.hhn + r.hnn + r.nnn)
        << lotus::ablation::ordering_name(ordering);
  }
}

TEST(LotusCount, RepeatedRunsAreDeterministic) {
  const auto graph = g::build_undirected(g::copy_web(
      {.num_vertices = 3000, .edges_per_vertex = 7, .p_copy = 0.7,
       .locality_window = 256, .core_size = 64, .p_core = 0.3, .seed = 27}));
  const auto first = lotus::core::count_triangles(graph);
  for (int run = 0; run < 3; ++run) {
    const auto r = lotus::core::count_triangles(graph);
    EXPECT_EQ(r.triangles, first.triangles);
    EXPECT_EQ(r.hhh, first.hhh);
    EXPECT_EQ(r.hhn, first.hhn);
    EXPECT_EQ(r.hnn, first.hnn);
    EXPECT_EQ(r.nnn, first.nnn);
  }
}

TEST(LotusCount, BitmapHnnAtThe64KiHubBoundary) {
  // 65 536 degree-4 hub candidates, each closing two triangles with its own
  // pairs of degree-2 vertices (no hub-hub edges, so the 256 MiB H2H stays
  // cold). With 65 535 and 65 536 hubs — more than 65 536 vertices, so
  // neither is clamped — HE lists carry IDs in the last word of the hub
  // bitmap, and with 65 535 the one candidate left over is a non-hub.
  constexpr g::VertexId kCandidates = 1u << 16;
  constexpr g::VertexId kLeaves = 4 * kCandidates;  // IDs before the hubs
  g::EdgeList el{kLeaves + kCandidates, {}};
  for (g::VertexId c = 0; c < kCandidates; ++c) {
    const g::VertexId hub = kLeaves + c;
    for (g::VertexId pair = 0; pair < 2; ++pair) {
      const g::VertexId a = 4 * c + 2 * pair;
      el.edges.push_back({a, a + 1});
      el.edges.push_back({hub, a});
      el.edges.push_back({hub, a + 1});
    }
  }
  const auto graph = g::build_undirected(el);
  const std::uint64_t expected =
      lotus::tc::query(lotus::tc::Algorithm::kForwardMerge, graph)
          .value()
          .result.triangles;
  ASSERT_EQ(expected, 2u * kCandidates);

  for (const g::VertexId hubs : {kCandidates - 1, kCandidates}) {
    LotusConfig config;
    config.hub_count = hubs;
    const auto lg = LotusGraph::build(graph, config);
    ASSERT_EQ(lg.hub_count(), hubs);
    std::uint16_t max_he = 0;
    for (g::VertexId v = 0; v < lg.num_vertices(); ++v)
      for (const std::uint16_t h : lg.he().neighbors(v)) max_he = std::max(max_he, h);
    ASSERT_EQ(max_he, hubs - 1) << "HE reaches the last bitmap word";

    const std::uint64_t bitmap =
        lotus::core::count_hnn(lg, lotus::baselines::null_probe, true);
    EXPECT_EQ(bitmap, lotus::core::count_hnn(lg, lotus::baselines::null_probe, false))
        << hubs << " hubs";
    EXPECT_EQ(bitmap, 2u * hubs) << hubs << " hubs";
    const auto hub_phase = lotus::core::count_hhh_hhn(lg, config);
    const std::uint64_t nnn = lotus::core::count_nnn(lg);
    EXPECT_EQ(hub_phase.hhh + hub_phase.hhn + bitmap + nnn, expected) << hubs << " hubs";
    EXPECT_EQ(lotus::ablation::count_hnn_nnn_fused(lg), bitmap + nnn) << hubs << " hubs";
  }
}

TEST(LotusCount, ChargesScratchToTheMemoryBudget) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 12, .edge_factor = 8, .seed = 28}));
  LotusConfig config;
  config.hub_count = 1000;
  auto charged = [&](bool vectorize) {
    LotusConfig c = config;
    c.vectorize = vectorize;
    lotus::util::MemoryBudget budget;  // unlimited: accounting only
    lotus::util::ScopedMemoryBudget scoped(&budget);
    EXPECT_EQ(lotus::core::count_triangles(graph, c).triangles, brute_force(graph));
    return budget.used();
  };
  const std::uint64_t scalar = charged(false);
  const std::uint64_t vectorized = charged(true);

  // Both runs charge the topology and the relabel buffers: new_id,
  // old_of_new, the selected block and the per-thread histograms.
  const std::uint64_t n = graph.num_vertices();
  const std::uint64_t threads = lotus::parallel::num_threads();
  const std::uint64_t reorder =
      std::max<std::uint64_t>(config.hub_count, n / 10);
  const std::uint64_t relabel =
      (2 * n + reorder + threads * (lotus::core::kRelabelHistogramCap + 1)) *
      sizeof(g::VertexId);
  EXPECT_GE(scalar, LotusGraph::build(graph, config).topology_bytes() + relabel);

  // The vectorized run adds exactly the per-thread hub-space scratch: the
  // hub phase's popcount masks and the HNN bitmaps, ⌈hubs/64⌉ words each.
  const std::uint64_t bitmap_bytes = (config.hub_count + 63) / 64 * 8;
  EXPECT_EQ(vectorized - scalar, 2 * threads * bitmap_bytes);
}

TEST(LotusCount, BuildChargesExactlyItsArrays) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 12, .edge_factor = 8, .seed = 28}));
  LotusConfig config;
  config.hub_count = 1000;
  lotus::util::MemoryBudget budget;  // unlimited: accounting only
  lotus::util::ScopedMemoryBudget scoped(&budget);
  const LotusGraph lg = LotusGraph::build(graph, config);

  // create_relabeling_array: new_id, the selected block, the per-thread
  // histograms and two per-block counters. (No degree reaches the overflow
  // bucket often enough to need its extra list here.)
  const std::uint64_t n = graph.num_vertices();
  const std::uint64_t threads = lotus::parallel::num_threads();
  const std::uint64_t blocks =
      (n + lotus::core::kRelabelBlock - 1) / lotus::core::kRelabelBlock;
  const std::uint64_t relabel =
      (n + config.resolve_reorder_count(graph.num_vertices(), lg.hub_count()) +
       threads * (lotus::core::kRelabelHistogramCap + 1) + 2 * blocks) *
      sizeof(g::VertexId);
  const std::uint64_t old_of_new = n * sizeof(g::VertexId);
  const std::uint64_t bitmaps = threads * ((config.hub_count + 63) / 64) * 8;
  EXPECT_EQ(budget.used(), lg.topology_bytes() + relabel + old_of_new + bitmaps);
}

}  // namespace
