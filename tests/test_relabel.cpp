// LOTUS relabeling (Sec. 4.3.1): hubs-first permutation that preserves the
// original order of unreordered vertices, and bit-identity of the parallel
// histogram relabel with a full stable degree sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "lotus/relabel.hpp"
#include "parallel/thread_pool.hpp"

namespace {

namespace g = lotus::graph;
using lotus::core::create_relabeling_array;
using lotus::core::kRelabelHistogramCap;

// Test oracle: the original serial relabel — a stable sort of all V vertices
// by descending degree, the first `reorder_count` taking the front IDs and
// the rest following in original order.
std::vector<g::VertexId> stable_sort_relabeling(const g::CsrGraph& graph,
                                                g::VertexId reorder_count) {
  const g::VertexId n = graph.num_vertices();
  reorder_count = std::min(reorder_count, n);
  std::vector<g::VertexId> by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), 0);
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&graph](g::VertexId a, g::VertexId b) {
                     return graph.degree(a) > graph.degree(b);
                   });
  std::vector<g::VertexId> new_id(n);
  std::vector<bool> reordered(n, false);
  for (g::VertexId rank = 0; rank < reorder_count; ++rank) {
    new_id[by_degree[rank]] = rank;
    reordered[by_degree[rank]] = true;
  }
  g::VertexId next = reorder_count;
  for (g::VertexId v = 0; v < n; ++v)
    if (!reordered[v]) new_id[v] = next++;
  return new_id;
}

// Every k of interest for one graph: the ends, the default 10%, and the
// first and last positions of every run of equal degrees (so k lands both
// on run boundaries and inside runs).
std::vector<g::VertexId> interesting_ks(const g::CsrGraph& graph) {
  const g::VertexId n = graph.num_vertices();
  std::vector<g::VertexId> ks{0, 1, n / 10, n / 2, n > 0 ? n - 1 : 0, n, n + 7};
  std::vector<std::uint32_t> degrees(n);
  for (g::VertexId v = 0; v < n; ++v) degrees[v] = graph.degree(v);
  std::sort(degrees.begin(), degrees.end(), std::greater<>());
  for (g::VertexId i = 1; i < n && ks.size() < 64; ++i)
    if (degrees[i] != degrees[i - 1]) {
      ks.push_back(i);                        // run boundary
      if (i + 1 < n) ks.push_back(i + 1);     // one into the next run
    }
  return ks;
}

void expect_identical(const std::string& name, const g::CsrGraph& graph) {
  for (const g::VertexId k : interesting_ks(graph))
    ASSERT_EQ(create_relabeling_array(graph, k), stable_sort_relabeling(graph, k))
        << name << " k=" << k;
}

// Ten "whales" (vertices 0..9), whale i adjacent to the first
// cap + 100·(i mod 3) of the leaves that follow: whale degrees reach or
// exceed the histogram cap and tie in groups.
g::CsrGraph whale_graph() {
  const g::VertexId whales = 10;
  const g::VertexId leaves = kRelabelHistogramCap + 300;
  g::EdgeList el{whales + leaves, {}};
  for (g::VertexId w = 0; w < whales; ++w) {
    const g::VertexId degree = kRelabelHistogramCap + 100 * (w % 3);
    for (g::VertexId l = 0; l < degree; ++l) el.edges.push_back({w, whales + l});
  }
  return g::build_undirected(el);
}

TEST(Relabeling, IsAPermutation) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 1}));
  const auto new_id = create_relabeling_array(graph, graph.num_vertices() / 10);
  std::vector<bool> seen(graph.num_vertices(), false);
  for (auto id : new_id) {
    ASSERT_LT(id, graph.num_vertices());
    ASSERT_FALSE(seen[id]);
    seen[id] = true;
  }
}

TEST(Relabeling, ReorderedBlockHasHighestDegrees) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 2}));
  const g::VertexId k = 64;
  const auto new_id = create_relabeling_array(graph, k);

  std::uint32_t min_reordered_degree = UINT32_MAX;
  std::uint32_t max_rest_degree = 0;
  for (g::VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (new_id[v] < k)
      min_reordered_degree = std::min(min_reordered_degree, graph.degree(v));
    else
      max_rest_degree = std::max(max_rest_degree, graph.degree(v));
  }
  EXPECT_GE(min_reordered_degree, max_rest_degree);
}

TEST(Relabeling, ReorderedBlockIsDegreeSorted) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 9, .edge_factor = 6, .seed = 3}));
  const g::VertexId k = 32;
  const auto new_id = create_relabeling_array(graph, k);
  std::vector<g::VertexId> old_of_new(graph.num_vertices());
  for (g::VertexId v = 0; v < graph.num_vertices(); ++v) old_of_new[new_id[v]] = v;
  for (g::VertexId rank = 1; rank < k; ++rank)
    EXPECT_GE(graph.degree(old_of_new[rank - 1]), graph.degree(old_of_new[rank]));
}

TEST(Relabeling, NonReorderedVerticesKeepRelativeOrder) {
  // Sec. 4.3.1: the tail keeps the input order, preserving initial locality.
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 4}));
  const g::VertexId k = 100;
  const auto new_id = create_relabeling_array(graph, k);
  g::VertexId prev = 0;
  bool first = true;
  for (g::VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (new_id[v] < k) continue;
    if (!first) {
      EXPECT_GT(new_id[v], prev);
    }
    prev = new_id[v];
    first = false;
  }
}

TEST(Relabeling, ReorderCountLargerThanGraphIsClamped) {
  const auto graph = g::build_undirected(g::complete(10));
  const auto new_id = create_relabeling_array(graph, 1000);
  std::vector<bool> seen(10, false);
  for (auto id : new_id) {
    ASSERT_LT(id, 10u);
    seen[id] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool x) { return x; }));
}

TEST(Relabeling, ZeroReorderCountIsIdentity) {
  const auto graph = g::build_undirected(g::path(20));
  const auto new_id = create_relabeling_array(graph, 0);
  for (g::VertexId v = 0; v < 20; ++v) EXPECT_EQ(new_id[v], v);
}

TEST(Relabeling, MatchesStableSortOnTieHeavyGraphs) {
  expect_identical("empty", g::build_undirected(g::EdgeList{0, {}}));
  expect_identical("isolated", g::build_undirected(g::EdgeList{100, {}}));
  expect_identical("complete", g::build_undirected(g::complete(40)));
  expect_identical("star", g::build_undirected(g::star(300)));
  expect_identical("cycle", g::build_undirected(g::cycle(500)));
  expect_identical("grid", g::build_undirected(g::grid(30, 40)));
  expect_identical("wheel", g::build_undirected(g::wheel(200)));
}

TEST(Relabeling, MatchesStableSortAcrossBlocks) {
  // 50k vertices span several prefix-sum blocks; on the regular cycle every
  // k < V falls inside the one run of equal degrees.
  const auto cycle = g::build_undirected(g::cycle(50000));
  for (const g::VertexId k : {1u, 16384u, 20000u, 33000u, 49999u})
    ASSERT_EQ(create_relabeling_array(cycle, k), stable_sort_relabeling(cycle, k))
        << "cycle k=" << k;
  expect_identical("rmat16", g::build_undirected(
                                 g::rmat({.scale = 16, .edge_factor = 8, .seed = 5})));
}

TEST(Relabeling, MatchesStableSortOnRmat) {
  for (const std::uint64_t seed : {1u, 2u, 3u})
    expect_identical("rmat seed " + std::to_string(seed),
                     g::build_undirected(g::rmat(
                         {.scale = 11, .edge_factor = 8, .seed = seed})));
}

TEST(Relabeling, MatchesStableSortAboveHistogramCap) {
  // Cutoffs inside the overflow range (k ≤ 10 whales, with ties) and below
  // it (k reaching into the leaves), plus a star whose centre overflows.
  const auto whales = whale_graph();
  ASSERT_GE(whales.degree(0), kRelabelHistogramCap);
  expect_identical("whales", whales);
  for (const g::VertexId k : {1u, 2u, 3u, 4u, 5u, 9u, 10u, 11u, 500u})
    ASSERT_EQ(create_relabeling_array(whales, k), stable_sort_relabeling(whales, k))
        << "whales k=" << k;
  expect_identical("big star", g::build_undirected(g::star(3 * kRelabelHistogramCap)));
}

TEST(Relabeling, IdenticalAcrossThreadCounts) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 15, .edge_factor = 8, .seed = 6}));
  const auto expected = stable_sort_relabeling(graph, graph.num_vertices() / 10);
  for (const unsigned threads : {1u, 3u, 4u}) {
    lotus::parallel::set_num_threads(threads);
    EXPECT_EQ(create_relabeling_array(graph, graph.num_vertices() / 10), expected)
        << threads << " threads";
  }
  lotus::parallel::set_num_threads(0);  // back to the hardware default
}

}  // namespace
