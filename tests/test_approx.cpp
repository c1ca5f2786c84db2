// Approximate TC estimators: exactness at the degenerate settings,
// unbiasedness within tolerance on random graphs, input validation.
#include <gtest/gtest.h>

#include "baselines/tc_baselines.hpp"
#include "bench/ablations/approx.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace {

namespace g = lotus::graph;
namespace a = lotus::ablation;

TEST(Doulion, KeepAllIsExact) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 71}));
  const auto exact = lotus::baselines::brute_force(graph);
  const auto r = a::doulion(graph, 1.0, 1);
  EXPECT_DOUBLE_EQ(r.estimated_triangles, static_cast<double>(exact));
  EXPECT_DOUBLE_EQ(r.relative_stderr, 0.0);
}

TEST(Doulion, EstimateWithinTolerance) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 12, .edge_factor = 12, .seed = 72}));
  const auto exact = static_cast<double>(lotus::baselines::brute_force(graph));
  // Average several seeds; individual estimates are unbiased but noisy.
  double sum = 0;
  constexpr int kRuns = 5;
  for (int s = 1; s <= kRuns; ++s)
    sum += a::doulion(graph, 0.5, static_cast<std::uint64_t>(s)).estimated_triangles;
  EXPECT_NEAR(sum / kRuns, exact, 0.10 * exact);
}

TEST(Doulion, RejectsBadProbability) {
  const auto graph = g::build_undirected(g::complete(5));
  EXPECT_THROW(a::doulion(graph, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(a::doulion(graph, 1.5, 1), std::invalid_argument);
}

TEST(WedgeSampling, ExactOnCompleteGraph) {
  // Every wedge of K_n is closed: the estimator is exact regardless of the
  // sample size.
  const auto graph = g::build_undirected(g::complete(20));
  const auto r = a::wedge_sampling(graph, 500, 3);
  EXPECT_DOUBLE_EQ(r.estimated_triangles,
                   static_cast<double>(g::complete_triangles(20)));
}

TEST(WedgeSampling, ZeroOnTriangleFreeGraph) {
  const auto graph = g::build_undirected(g::complete_bipartite(15, 15));
  const auto r = a::wedge_sampling(graph, 2000, 4);
  EXPECT_DOUBLE_EQ(r.estimated_triangles, 0.0);
}

TEST(WedgeSampling, EstimateWithinTolerance) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 12, .edge_factor = 12, .seed = 73}));
  const auto exact = static_cast<double>(lotus::baselines::brute_force(graph));
  const auto r = a::wedge_sampling(graph, 200000, 5);
  EXPECT_NEAR(r.estimated_triangles, exact, 0.10 * exact);
  EXPECT_GT(r.relative_stderr, 0.0);
}

TEST(WedgeSampling, HandlesWedgelessGraph) {
  // A single edge has no wedges at all.
  const auto graph = g::build_undirected({2, {{0, 1}}});
  const auto r = a::wedge_sampling(graph, 100, 6);
  EXPECT_DOUBLE_EQ(r.estimated_triangles, 0.0);
}

TEST(WedgeSampling, RejectsZeroSamples) {
  const auto graph = g::build_undirected(g::complete(4));
  EXPECT_THROW(a::wedge_sampling(graph, 0, 1), std::invalid_argument);
}

}  // namespace
