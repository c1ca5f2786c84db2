// Reordering algorithms and locality metrics.
#include <gtest/gtest.h>

#include <numeric>

#include "baselines/tc_baselines.hpp"
#include "bench/ablations/reorder.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace {

namespace g = lotus::graph;
namespace a = lotus::ablation;

void expect_permutation(const std::vector<g::VertexId>& ids, g::VertexId n) {
  ASSERT_EQ(ids.size(), n);
  std::vector<bool> seen(n, false);
  for (auto id : ids) {
    ASSERT_LT(id, n);
    ASSERT_FALSE(seen[id]);
    seen[id] = true;
  }
}

TEST(Reorder, AllOrderingsArePermutations) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 6, .seed = 1}));
  for (auto ordering : a::all_orderings()) {
    const auto ids = a::make_ordering(graph, ordering, 5);
    expect_permutation(ids, graph.num_vertices());
  }
}

TEST(Reorder, OriginalIsIdentity) {
  const auto graph = g::build_undirected(g::path(16));
  const auto ids = a::make_ordering(graph, a::Ordering::kOriginal);
  for (g::VertexId v = 0; v < 16; ++v) EXPECT_EQ(ids[v], v);
}

TEST(Reorder, DisconnectedComponentsAreCovered) {
  // Two components plus isolated vertices: BFS/DFS must reach everything.
  g::EdgeList el{10, {{0, 1}, {1, 2}, {5, 6}, {6, 7}}};
  const auto graph = g::build_undirected(el);
  for (auto ordering : {a::Ordering::kBfs, a::Ordering::kDfs})
    expect_permutation(a::make_ordering(graph, ordering), 10);
}

TEST(Reorder, TriangleCountIsOrderingInvariant) {
  const auto graph = g::build_undirected(g::holme_kim(
      {.num_vertices = 1500, .edges_per_vertex = 5, .p_triad = 0.5, .seed = 3}));
  const auto expected = lotus::baselines::brute_force(graph);
  for (auto ordering : a::all_orderings()) {
    const auto relabeled = g::relabel(graph, a::make_ordering(graph, ordering, 7));
    EXPECT_EQ(lotus::baselines::brute_force(relabeled), expected)
        << a::ordering_name(ordering);
  }
}

TEST(Reorder, BfsImprovesGapOverRandom) {
  const auto graph = g::build_undirected(g::watts_strogatz(
      {.num_vertices = 4096, .ring_degree = 4, .rewire_prob = 0.05, .seed = 4}));
  const auto random = g::relabel(graph, a::make_ordering(graph, a::Ordering::kRandom, 5));
  const auto bfs = g::relabel(graph, a::make_ordering(graph, a::Ordering::kBfs));
  EXPECT_LT(a::average_neighbor_gap(bfs), a::average_neighbor_gap(random));
  EXPECT_LT(a::log_gap_cost_bits(bfs), a::log_gap_cost_bits(random));
}

TEST(Reorder, RingLatticeHasTinyGaps) {
  // Ring lattice in original order: neighbours are within +-4 (mod wrap).
  const auto graph = g::build_undirected(g::watts_strogatz(
      {.num_vertices = 1 << 12, .ring_degree = 4, .rewire_prob = 0.0, .seed = 1}));
  EXPECT_LT(a::average_neighbor_gap(graph), 12.0);
}

TEST(Reorder, GapMetricsOnEmptyGraph) {
  const auto graph = g::build_undirected({0, {}});
  EXPECT_DOUBLE_EQ(a::average_neighbor_gap(graph), 0.0);
  EXPECT_DOUBLE_EQ(a::log_gap_cost_bits(graph), 0.0);
}

TEST(Reorder, NamesAreDistinct) {
  std::set<std::string> names;
  for (auto ordering : a::all_orderings()) names.insert(a::ordering_name(ordering));
  EXPECT_EQ(names.size(), a::all_orderings().size());
}

}  // namespace
