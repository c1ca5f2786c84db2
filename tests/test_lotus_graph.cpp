// LotusGraph construction invariants (Alg. 2): HE/NHE partition the oriented
// edge set, 16-bit HE IDs are below hub_count, H2H mirrors hub-hub edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <set>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "lotus/lotus_graph.hpp"
#include "lotus/serialize.hpp"
#include "lotus_reference.hpp"

namespace {

namespace g = lotus::graph;
using lotus::core::LotusConfig;
using lotus::core::LotusGraph;
using lotus::test::reference_build;

LotusGraph make(const g::CsrGraph& graph, g::VertexId hubs) {
  LotusConfig config;
  config.hub_count = hubs;
  return LotusGraph::build(graph, config);
}

TEST(LotusGraph, EdgePartitionIsExact) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 11, .edge_factor = 8, .seed = 1}));
  const auto lg = make(graph, 64);
  // HE + NHE together hold exactly one entry per undirected edge.
  EXPECT_EQ(lg.he().num_edges() + lg.nhe().num_edges(), graph.num_edges() / 2);
}

TEST(LotusGraph, HeNeighborsAreHubsBelowVertex) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 2}));
  const auto lg = make(graph, 128);
  for (g::VertexId v = 0; v < lg.num_vertices(); ++v) {
    std::uint16_t prev = 0;
    bool first = true;
    for (std::uint16_t h : lg.he().neighbors(v)) {
      EXPECT_LT(h, lg.hub_count());
      EXPECT_LT(static_cast<g::VertexId>(h), v);
      if (!first) EXPECT_GT(h, prev);  // sorted, no duplicates
      prev = h;
      first = false;
    }
  }
}

TEST(LotusGraph, NheNeighborsAreNonHubsBelowVertex) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 2}));
  const auto lg = make(graph, 128);
  for (g::VertexId v = 0; v < lg.num_vertices(); ++v) {
    for (g::VertexId u : lg.nhe().neighbors(v)) {
      EXPECT_GE(u, lg.hub_count());
      EXPECT_LT(u, v);
    }
  }
  // Hubs have no NHE entries: all their lower neighbours are hubs.
  for (g::VertexId v = 0; v < lg.hub_count(); ++v)
    EXPECT_EQ(lg.nhe().degree(v), 0u);
}

TEST(LotusGraph, H2HMirrorsHubHubEdgesOfHE) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 3}));
  const auto lg = make(graph, 256);
  std::uint64_t hub_hub_in_he = 0;
  for (g::VertexId v = 0; v < lg.hub_count(); ++v) {
    for (std::uint16_t h : lg.he().neighbors(v)) {
      EXPECT_TRUE(lg.h2h().test(v, h)) << v << "-" << h;
      ++hub_hub_in_he;
    }
  }
  EXPECT_EQ(lg.h2h().count_set_bits(), hub_hub_in_he);
}

TEST(LotusGraph, ReconstructsOriginalEdgeSet) {
  // Mapping HE/NHE entries back through the relabeling recovers exactly the
  // input undirected edge set.
  const auto graph = g::build_undirected(
      g::holme_kim({.num_vertices = 300, .edges_per_vertex = 4, .p_triad = 0.5, .seed = 5}));
  const auto lg = make(graph, 16);
  const auto& new_id = lg.relabeling();
  std::vector<g::VertexId> old_of_new(graph.num_vertices());
  for (g::VertexId v = 0; v < graph.num_vertices(); ++v) old_of_new[new_id[v]] = v;

  std::set<std::pair<g::VertexId, g::VertexId>> reconstructed;
  for (g::VertexId v = 0; v < lg.num_vertices(); ++v) {
    for (std::uint16_t h : lg.he().neighbors(v)) {
      auto a = old_of_new[v], b = old_of_new[h];
      reconstructed.insert({std::min(a, b), std::max(a, b)});
    }
    for (g::VertexId u : lg.nhe().neighbors(v)) {
      auto a = old_of_new[v], b = old_of_new[u];
      reconstructed.insert({std::min(a, b), std::max(a, b)});
    }
  }

  std::set<std::pair<g::VertexId, g::VertexId>> expected;
  for (g::VertexId v = 0; v < graph.num_vertices(); ++v)
    for (g::VertexId u : graph.neighbors(v))
      expected.insert({std::min(v, u), std::max(v, u)});
  EXPECT_EQ(reconstructed, expected);
}

TEST(LotusGraph, AutoHubCountScalesWithGraph) {
  LotusConfig config;  // hub_count = 0 -> auto
  const auto small = g::build_undirected(g::erdos_renyi(1000, 8.0, 1));
  const auto lg = LotusGraph::build(small, config);
  EXPECT_GE(lg.hub_count(), 10u);   // ~1%
  EXPECT_LE(lg.hub_count(), 500u);  // <= V/2
}

TEST(LotusGraph, HubCountNeverExceeds64K) {
  LotusConfig config;
  config.hub_count = 1u << 20;  // absurd request
  const auto graph = g::build_undirected(g::erdos_renyi(100, 4.0, 1));
  EXPECT_LE(config.resolve_hub_count(graph.num_vertices()), 1u << 16);
}

TEST(LotusGraph, TopologyBytesIncludesAllThreeStructures) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 4}));
  const auto lg = make(graph, 64);
  const std::uint64_t expected = lg.he().topology_bytes() +
                                 lg.nhe().topology_bytes() +
                                 lg.h2h().size_bytes();
  EXPECT_EQ(lg.topology_bytes(), expected);
  // HE entries cost 2 bytes each; NHE entries 4 bytes each.
  EXPECT_EQ(lg.he().topology_bytes(),
            (lg.num_vertices() + 1ull) * 8 + lg.he().num_edges() * 2);
  EXPECT_EQ(lg.nhe().topology_bytes(),
            (lg.num_vertices() + 1ull) * 8 + lg.nhe().num_edges() * 4);
}

TEST(LotusGraph, SelfLoopsInInputAreIgnored) {
  // Bypass build_undirected's cleaning to exercise Alg. 2's self-edge check.
  std::vector<std::uint64_t> offsets = {0, 2, 4};
  std::vector<g::VertexId> neighbors = {0, 1, 0, 1};  // 0-0 self, 0-1, 1-1 self
  const g::CsrGraph dirty(std::move(offsets), std::move(neighbors));
  const auto lg = make(dirty, 1);
  EXPECT_EQ(lg.he().num_edges() + lg.nhe().num_edges(), 1u);
}

// Length and FNV-1a hash of the LOTUSLG2 image of `lg`, streamed through a
// cookie FILE so a 256 MiB H2H is never held a second time.
std::pair<std::uint64_t, std::uint64_t> image_digest(const LotusGraph& lg) {
  std::pair<std::uint64_t, std::uint64_t> digest{0, 14695981039346656037ull};
  cookie_io_functions_t io{};
  io.write = [](void* cookie, const char* data, std::size_t size) -> ssize_t {
    auto& [bytes, hash] = *static_cast<std::pair<std::uint64_t, std::uint64_t>*>(cookie);
    for (std::size_t i = 0; i < size; ++i)
      hash = (hash ^ static_cast<unsigned char>(data[i])) * 1099511628211ull;
    bytes += size;
    return static_cast<ssize_t>(size);
  };
  std::FILE* out = fopencookie(&digest, "w", io);
  EXPECT_NE(out, nullptr);
  EXPECT_TRUE(lotus::core::write_lotus_v2_stream_s(out, "digest", lg).ok());
  std::fclose(out);
  return digest;
}

void expect_matches_reference(const g::CsrGraph& graph, const LotusConfig& config,
                              const std::string& shape) {
  SCOPED_TRACE(shape);
  const LotusGraph built = LotusGraph::build(graph, config);
  const LotusGraph reference = reference_build(graph, config);
  EXPECT_EQ(built.num_vertices(), reference.num_vertices());
  EXPECT_EQ(built.hub_count(), reference.hub_count());
  EXPECT_TRUE(built.he().offsets() == reference.he().offsets());
  EXPECT_TRUE(built.he().neighbor_array() == reference.he().neighbor_array());
  EXPECT_TRUE(built.nhe().offsets() == reference.nhe().offsets());
  EXPECT_TRUE(built.nhe().neighbor_array() == reference.nhe().neighbor_array());
  EXPECT_TRUE(built.h2h().words() == reference.h2h().words());
  EXPECT_TRUE(built.relabeling() == reference.relabeling());
  EXPECT_EQ(built.topology_bytes(), reference.topology_bytes());
  EXPECT_EQ(image_digest(built), image_digest(reference));
}

// A few whales adjacent to each other and to thousands of leaves, which
// form a ring: neighbour lists far longer than one staging block.
g::CsrGraph whale_graph() {
  constexpr g::VertexId kWhales = 6, kLeaves = 5000;
  g::EdgeList el{kWhales + kLeaves, {}};
  for (g::VertexId w = 0; w < kWhales; ++w) {
    for (g::VertexId x = w + 1; x < kWhales; ++x) el.edges.push_back({w, x});
    for (g::VertexId l = w; l < kLeaves; l += w + 1) el.edges.push_back({w, kWhales + l});
  }
  for (g::VertexId l = 0; l < kLeaves; ++l)
    el.edges.push_back({kWhales + l, kWhales + (l + 1) % kLeaves});
  return g::build_undirected(el);
}

// A CSR no builder would produce: every list is shuffled or reversed, some
// repeat entries (in HE lists both above and below the bitmap-sort length)
// and some hold self-loops. The first 80 vertices are adjacent to everyone,
// so with 80 hubs most HE lists are long.
g::CsrGraph dirty_graph() {
  constexpr g::VertexId n = 600, kDense = 80;
  std::mt19937 rng(7);
  std::vector<std::uint64_t> offsets{0};
  std::vector<g::VertexId> neighbors;
  for (g::VertexId v = 0; v < n; ++v) {
    std::vector<g::VertexId> list;
    for (g::VertexId u = 0; u < n; ++u)
      if (u != v && (u < kDense || v < kDense || rng() % 16 == 0)) list.push_back(u);
    if (v % 7 == 0) list.push_back(v);                    // self-loop
    if (v % 5 == 0) list.push_back(list[list.size() / 2]);  // repeated entry
    if (v % 11 == 0) list.push_back(3);                   // repeated hub
    if (v % 3 == 0)
      std::shuffle(list.begin(), list.end(), rng);
    else if (v % 3 == 1)
      std::reverse(list.begin(), list.end());
    neighbors.insert(neighbors.end(), list.begin(), list.end());
    offsets.push_back(neighbors.size());
  }
  return g::CsrGraph(std::move(offsets), std::move(neighbors));
}

TEST(LotusGraph, BuildMatchesReferenceOnEveryShape) {
  LotusConfig config;
  config.hub_count = 1000;
  const auto rmat =
      g::build_undirected(g::rmat({.scale = 13, .edge_factor = 16, .seed = 11}));
  std::uint32_t longest_he = 0;
  {
    const LotusGraph lg = LotusGraph::build(rmat, config);
    for (g::VertexId v = 0; v < lg.num_vertices(); ++v)
      longest_he = std::max(longest_he, lg.he().degree(v));
  }
  std::uint32_t longest_list = 0;
  for (g::VertexId v = 0; v < rmat.num_vertices(); ++v)
    longest_list = std::max(longest_list, rmat.degree(v));
  // The build sorts HE lists of 64 or more through a bitmap and stages
  // neighbour lists in blocks of 256; both paths must run.
  EXPECT_GE(longest_he, 64u);
  EXPECT_GT(longest_list, 256u);
  expect_matches_reference(rmat, config, "rmat");

  expect_matches_reference(whale_graph(), LotusConfig{}, "whales");
  LotusConfig dirty;
  dirty.hub_count = 80;
  expect_matches_reference(dirty_graph(), dirty, "dirty csr");

  for (const double fraction : {0.0, 1.0}) {
    LotusConfig c = config;
    c.relabel_fraction = fraction;
    expect_matches_reference(rmat, c, "relabel_fraction " + std::to_string(fraction));
  }

  // 64 Ki hubs: HE IDs use all 16 bits and H2H is 256 MiB.
  LotusConfig max_hubs;
  max_hubs.hub_count = 1u << 16;
  const auto wide =
      g::build_undirected(g::rmat({.scale = 17, .edge_factor = 4, .seed = 12}));
  ASSERT_GT(wide.num_vertices(), 1u << 16);
  expect_matches_reference(wide, max_hubs, "65536 hubs");

  expect_matches_reference(g::CsrGraph(), LotusConfig{}, "n = 0");
  expect_matches_reference(g::CsrGraph(std::vector<std::uint64_t>{0, 1},
                                       std::vector<g::VertexId>{0}),
                           LotusConfig{}, "n = 1 with a self-loop");
}

}  // namespace
