// The gap + varint byte count of the ordering ablation: exact sizes at the
// one/two-byte varint boundary, and the locality-compression relationship
// the LOTUS relabeling relies on.
#include <gtest/gtest.h>

#include "bench/ablations/reorder.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace {

namespace g = lotus::graph;
using lotus::ablation::gap_varint_bytes;

TEST(Compressed, ExactBytesAcrossTheVarintBoundary) {
  // N(0) = {127, 256}: gaps 127 (one byte) and 256 − 127 − 1 = 128 (two).
  // N(127) = N(256) = {0}: one byte each. 258 offsets of 8 bytes.
  const auto graph = g::build_undirected({257, {{0, 127}, {0, 256}}});
  EXPECT_EQ(gap_varint_bytes(graph), 258u * 8 + 1 + 2 + 1 + 1);
}

TEST(Compressed, EmptyAndIsolatedVertices) {
  EXPECT_EQ(gap_varint_bytes(g::build_undirected({0, {}})), 8u);
  // Vertices 1..3 are isolated: offsets only. N(0) = {4}, N(4) = {0}.
  EXPECT_EQ(gap_varint_bytes(g::build_undirected({5, {{0, 4}}})), 6u * 8 + 2);
}

TEST(Compressed, BeatsRawStorageOnLocalGraphs) {
  // A locality-preserving ordering (copy_web keeps crawl order) compresses
  // to well under the 4 bytes/edge of raw CSR.
  const auto graph = g::build_undirected(g::copy_web(
      {.num_vertices = 1 << 13, .edges_per_vertex = 10, .p_copy = 0.7,
       .locality_window = 256, .seed = 9}));
  EXPECT_LT(gap_varint_bytes(graph), graph.topology_bytes());
}

TEST(Compressed, RandomOrderCompressesWorseThanLocalOrder) {
  const auto graph = g::build_undirected(g::copy_web(
      {.num_vertices = 1 << 13, .edges_per_vertex = 10, .p_copy = 0.7,
       .locality_window = 256, .seed = 9}));
  const auto shuffled = g::relabel(
      graph, lotus::ablation::make_ordering(graph, lotus::ablation::Ordering::kRandom, 3));
  EXPECT_GT(gap_varint_bytes(shuffled), gap_varint_bytes(graph));
}

TEST(Compressed, RejectsUnsortedInput) {
  // Hand-build a CSR with a descending list: its gap would wrap.
  std::vector<std::uint64_t> offsets = {0, 2};
  std::vector<g::VertexId> neighbors = {5, 3};
  const g::CsrGraph bad(std::move(offsets), std::move(neighbors));
  EXPECT_THROW(gap_varint_bytes(bad), std::invalid_argument);
}

}  // namespace
