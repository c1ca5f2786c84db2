// Extension modules: recursive LOTUS, LotusGraph serialization, and blocked
// HNN.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "baselines/tc_baselines.hpp"
#include "bench/ablations/hnn.hpp"
#include "bench/ablations/recursive.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "lotus/count.hpp"
#include "lotus/lotus.hpp"
#include "lotus/serialize.hpp"

namespace {

namespace g = lotus::graph;
namespace core = lotus::core;

// ---------- recursive LOTUS ----------

TEST(RecursiveLotus, MatchesPlainLotusAcrossLevels) {
  const auto graph = g::build_undirected(g::holme_kim(
      {.num_vertices = 3000, .edges_per_vertex = 6, .p_triad = 0.5, .seed = 53}));
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  for (unsigned levels : {1u, 2u, 3u, 5u}) {
    const auto r = lotus::ablation::count_triangles_recursive(graph, {}, levels);
    EXPECT_EQ(r.triangles, expected) << "levels=" << levels;
    EXPECT_GE(r.levels_used, 1u);
    EXPECT_LE(r.levels_used, levels);
  }
}

TEST(RecursiveLotus, UsesMultipleLevelsOnLowSkewGraphs) {
  // A big NHE residue (few hubs) forces recursion to engage.
  const auto graph = g::build_undirected(g::holme_kim(
      {.num_vertices = 20000, .edges_per_vertex = 6, .p_triad = 0.4, .seed = 54}));
  core::LotusConfig config;
  config.hub_count = 64;  // tiny hub set leaves a large NHE sub-graph
  const auto r = lotus::ablation::count_triangles_recursive(graph, config, 3);
  EXPECT_GT(r.levels_used, 1u);
  EXPECT_EQ(r.triangles, lotus::baselines::brute_force(graph));
}

TEST(RecursiveLotus, EmptyGraph) {
  const auto r = lotus::ablation::count_triangles_recursive(g::build_undirected({0, {}}));
  EXPECT_EQ(r.triangles, 0u);
}

// ---------- LotusGraph serialization ----------

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid suffix: concurrent ctest -j processes must not share the dir.
    dir_ = std::filesystem::temp_directory_path() /
           ("lotus_serialize_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

TEST_F(SerializeTest, RoundTripPreservesCounts) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 63}));
  const auto lg = core::LotusGraph::build(graph, {});
  ASSERT_TRUE(core::write_lotus_binary_s(path("g.lotus"), lg).ok());
  const auto loaded = core::read_lotus_binary_s(path("g.lotus")).value();

  EXPECT_EQ(loaded.hub_count(), lg.hub_count());
  EXPECT_EQ(loaded.he().num_edges(), lg.he().num_edges());
  EXPECT_EQ(loaded.nhe().num_edges(), lg.nhe().num_edges());
  EXPECT_EQ(loaded.relabeling(), lg.relabeling());

  const auto before = core::count_triangles_prepared(lg, {});
  const auto after = core::count_triangles_prepared(loaded, {});
  EXPECT_EQ(before.triangles, after.triangles);
  EXPECT_EQ(before.hhh, after.hhh);
  EXPECT_EQ(before.nnn, after.nnn);
}

TEST_F(SerializeTest, RejectsBadMagic) {
  std::ofstream f(path("bad.lotus"), std::ios::binary);
  f << "GARBAGEWITHPADDINGBEYONDTHEHEADER";
  f.close();
  // 33 bytes: shorter than the 64-byte header.
  EXPECT_EQ(core::read_lotus_binary_s(path("bad.lotus")).status().code(),
            lotus::util::StatusCode::kIoError);
}

TEST_F(SerializeTest, RejectsTruncation) {
  const auto graph = g::build_undirected(g::complete(30));
  ASSERT_TRUE(
      core::write_lotus_binary_s(path("t.lotus"), core::LotusGraph::build(graph, {}))
          .ok());
  const auto size = std::filesystem::file_size(path("t.lotus"));
  std::filesystem::resize_file(path("t.lotus"), size / 2);
  EXPECT_EQ(core::read_lotus_binary_s(path("t.lotus")).status().code(),
            lotus::util::StatusCode::kInvalidArgument);
}

TEST(FromParts, RejectsInconsistentParts) {
  const auto graph = g::build_undirected(g::complete(10));
  const auto lg = core::LotusGraph::build(graph, {});
  // Non-permutation relabeling: the structural scan the readers run before
  // assembling rejects it (from_parts itself reads no section body).
  ASSERT_TRUE(core::check_lotus_body("parts", lg.hub_count(), lg.relabeling(),
                                     lg.he().offsets(), lg.he().neighbor_array(),
                                     lg.nhe().offsets(),
                                     lg.nhe().neighbor_array())
                  .ok());
  const std::vector<g::VertexId> bad_ids(10, 0);
  const lotus::util::Status bad = core::check_lotus_body(
      "parts", lg.hub_count(), bad_ids, lg.he().offsets(),
      lg.he().neighbor_array(), lg.nhe().offsets(), lg.nhe().neighbor_array());
  EXPECT_EQ(bad.code(), lotus::util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("not a permutation"), std::string::npos);
  // Parts that disagree on the vertex count.
  EXPECT_THROW(core::LotusGraph::from_parts(lg.hub_count(), lg.h2h(), lg.he(),
                                            lg.nhe(), std::vector<g::VertexId>(9, 0)),
               std::invalid_argument);
  // Wrong hub count for the H2H array.
  EXPECT_THROW(core::LotusGraph::from_parts(lg.hub_count() + 1, lg.h2h(),
                                            lg.he(), lg.nhe(), lg.relabeling()),
               std::invalid_argument);
}

// ---------- blocked HNN ----------

TEST(BlockedHnn, MatchesUnblockedForAllBlockSizes) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 10, .seed = 56}));
  const auto lg = core::LotusGraph::build(graph, {});
  const std::uint64_t expected = core::count_hnn(lg);
  for (g::VertexId block : {1u, 7u, 64u, 1024u, 1u << 20})
    EXPECT_EQ(lotus::ablation::count_hnn_blocked(lg, block), expected) << block;
}

}  // namespace
