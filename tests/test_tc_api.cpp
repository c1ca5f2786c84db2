// Unified TC API and the instrumented replays.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "baselines/tc_baselines.hpp"
#include "graph/builder.hpp"
#include "graph/degree_order.hpp"
#include "graph/generators.hpp"
#include "lotus/lotus.hpp"
#include "simcache/machines.hpp"
#include "tc/api.hpp"
#include "tc/engine.hpp"
#include "tc/instrumented.hpp"

namespace {

namespace g = lotus::graph;
namespace tc = lotus::tc;

TEST(TcApi, AllAlgorithmsAgreeOnRandomGraph) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 9, .edge_factor = 8, .seed = 31}));
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  for (auto algorithm : tc::all_algorithms())
    EXPECT_EQ(tc::query(algorithm, graph).value().result.triangles, expected)
        << tc::name(algorithm);
}

TEST(TcApi, RelabelFractionOutsideUnitIntervalIsRejected) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 9, .edge_factor = 8, .seed = 32}));
  tc::Engine engine;
  for (const double bad : {-1.0, std::nan(""), 1e300, 1.5}) {
    tc::QueryOptions options;
    options.config.relabel_fraction = bad;
    const auto direct = tc::query(tc::Algorithm::kLotus, graph, options);
    ASSERT_FALSE(direct.ok()) << bad;
    EXPECT_EQ(direct.status().code(), lotus::util::StatusCode::kInvalidArgument) << bad;
    const auto served = engine.query({tc::Algorithm::kLotus, "g", &graph, options});
    ASSERT_FALSE(served.ok()) << bad;
    EXPECT_EQ(served.status().code(), lotus::util::StatusCode::kInvalidArgument) << bad;
  }
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  for (const double edge : {0.0, 1.0}) {
    tc::QueryOptions options;
    options.config.relabel_fraction = edge;
    const auto result = tc::query(tc::Algorithm::kLotus, graph, options);
    ASSERT_TRUE(result.ok()) << edge;
    ASSERT_TRUE(result.value().ok()) << edge;
    EXPECT_EQ(result.value().result.triangles, expected) << edge;
  }
}

TEST(TcApi, NameParseRoundTrip) {
  for (auto algorithm : tc::all_algorithms()) {
    const auto parsed = tc::parse(tc::name(algorithm));
    ASSERT_TRUE(parsed.has_value()) << tc::name(algorithm);
    EXPECT_EQ(*parsed, algorithm);
  }
  EXPECT_FALSE(tc::parse("not-an-algorithm").has_value());
}

TEST(TcApi, PaperComparatorsEndWithLotus) {
  const auto comparators = tc::paper_comparators();
  ASSERT_FALSE(comparators.empty());
  EXPECT_EQ(comparators.back(), tc::Algorithm::kLotus);
}

class InstrumentedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = g::build_undirected(g::rmat({.scale = 11, .edge_factor = 10, .seed = 33}));
    expected_ = lotus::baselines::brute_force(graph_);
  }
  g::CsrGraph graph_;
  std::uint64_t expected_ = 0;
};

TEST_F(InstrumentedTest, ForwardReplayCountsCorrectly) {
  lotus::simcache::PerfModel model(lotus::simcache::skylakex().scaled(64));
  const auto oriented = g::degree_ordered_oriented(graph_);
  EXPECT_EQ(tc::replay_forward(oriented, model), expected_);
  const auto c = model.counters();
  EXPECT_GT(c.loads, graph_.num_edges());  // at least one read per edge
  EXPECT_GT(c.branches, 0u);
}

TEST_F(InstrumentedTest, LotusReplayCountsCorrectly) {
  lotus::simcache::PerfModel model(lotus::simcache::skylakex().scaled(64));
  const auto lg = lotus::core::LotusGraph::build(graph_, {});
  EXPECT_EQ(tc::replay_lotus(lg, {}, model), expected_);
}

TEST_F(InstrumentedTest, LotusBeatsForwardOnLocalityCounters) {
  // The Fig. 4/5 directional claims, as an executable assertion: on a
  // skewed graph with a scaled cache, Lotus must not lose on LLC misses,
  // memory accesses, or instructions.
  const auto machine = lotus::simcache::skylakex().scaled(16);

  lotus::simcache::PerfModel fwd_model(machine);
  tc::replay_forward(g::degree_ordered_oriented(graph_), fwd_model);
  const auto fwd = fwd_model.counters();

  lotus::simcache::PerfModel lotus_model(machine);
  const auto lg = lotus::core::LotusGraph::build(graph_, {});
  tc::replay_lotus(lg, {}, lotus_model);
  const auto lot = lotus_model.counters();

  EXPECT_LT(lot.loads, fwd.loads);
  EXPECT_LT(lot.instructions(), fwd.instructions());
  EXPECT_LT(lot.llc_misses, fwd.llc_misses);
  EXPECT_LT(lot.dtlb_misses, fwd.dtlb_misses);
}

TEST_F(InstrumentedTest, H2HHistogramSumsToH2HProbes) {
  const auto lg = lotus::core::LotusGraph::build(graph_, {});
  const auto histogram = tc::h2h_cacheline_histogram(lg, {});
  EXPECT_EQ(histogram.size(), (lg.h2h().size_bytes() + 63) / 64);

  // Each probed (h1, h2) pair touches exactly one cacheline; the total must
  // equal the number of pairs enumerated in phase 1: sum over vertices of
  // C(he_degree, 2).
  std::uint64_t expected_probes = 0;
  for (g::VertexId v = 0; v < lg.num_vertices(); ++v) {
    const std::uint64_t d = lg.he().degree(v);
    expected_probes += d * (d - 1) / 2;
  }
  const std::uint64_t total =
      std::accumulate(histogram.begin(), histogram.end(), std::uint64_t{0});
  EXPECT_EQ(total, expected_probes);
}

TEST(Instrumented, EmptyGraphHistogram) {
  const auto lg = lotus::core::LotusGraph::build(g::build_undirected({0, {}}), {});
  EXPECT_TRUE(lotus::tc::h2h_cacheline_histogram(lg, {}).empty());
}

}  // namespace
