// Adaptive dispatch (Sec. 5.5): skewed graphs run LOTUS, flat graphs run
// Forward; both must return the exact count and note the choice.
#include <gtest/gtest.h>

#include <string>

#include "baselines/tc_baselines.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "lotus/adaptive.hpp"
#include "tc/api.hpp"

namespace {

namespace g = lotus::graph;
namespace tc = lotus::tc;
using lotus::core::should_use_lotus;

tc::QueryResult profiled_adaptive(const g::CsrGraph& graph) {
  tc::QueryOptions options;
  options.profile = true;
  auto outcome = tc::query(tc::Algorithm::kAdaptive, graph, options);
  EXPECT_TRUE(outcome.ok()) << outcome.status().to_string();
  tc::QueryResult result = outcome.take();
  EXPECT_TRUE(result.ok()) << result.status.to_string();
  EXPECT_EQ(result.algorithm, tc::Algorithm::kAdaptive);  // the request
  EXPECT_TRUE(result.profile.has_value());
  return result;
}

/// The `chosen_algorithm` note anywhere in the span tree ("" if absent).
std::string chosen_algorithm(const tc::QueryResult& result) {
  for (const auto& span : result.profile->trace.spans())
    for (const auto& [key, value] : span.notes)
      if (key == "chosen_algorithm") return value;
  return {};
}

TEST(Adaptive, SkewedGraphPicksLotus) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 13, .edge_factor = 16, .seed = 1}));
  EXPECT_TRUE(should_use_lotus(graph));
  const auto r = profiled_adaptive(graph);
  EXPECT_EQ(chosen_algorithm(r), "lotus");
  EXPECT_EQ(r.result.triangles, lotus::baselines::brute_force(graph));
  // It ran LOTUS itself: the Alg. 2/3 span tree is there.
  EXPECT_NE(r.profile->trace.find("relabel"), nullptr);
  EXPECT_NE(r.profile->trace.find("hhh_hhn"), nullptr);
}

TEST(Adaptive, FlatGraphPicksForward) {
  const auto graph = g::build_undirected(g::erdos_renyi(1 << 13, 12.0, 2));
  EXPECT_FALSE(should_use_lotus(graph));
  const auto r = profiled_adaptive(graph);
  EXPECT_EQ(chosen_algorithm(r), "forward");
  EXPECT_EQ(r.result.triangles, lotus::baselines::brute_force(graph));
  EXPECT_EQ(r.profile->trace.find("hhh_hhn"), nullptr);
}

TEST(Adaptive, LatticePicksForward) {
  const auto graph = g::build_undirected(g::watts_strogatz(
      {.num_vertices = 1 << 13, .ring_degree = 6, .rewire_prob = 0.05, .seed = 3}));
  const auto r = profiled_adaptive(graph);
  EXPECT_EQ(chosen_algorithm(r), "forward");
  EXPECT_EQ(r.result.triangles, lotus::baselines::brute_force(graph));
}

TEST(Adaptive, BothPathsReportTimings) {
  const auto skewed =
      g::build_undirected(g::rmat({.scale = 11, .edge_factor = 8, .seed = 4}));
  const auto flat = g::build_undirected(g::erdos_renyi(1 << 11, 8.0, 5));
  for (const auto* graph : {&skewed, &flat}) {
    const auto r = profiled_adaptive(*graph);
    EXPECT_GT(r.result.preprocess_s, 0.0);
    EXPECT_GE(r.result.count_s, 0.0);
    // Both choices time the artifact build and the count as the same spans.
    EXPECT_NE(r.profile->trace.find("preprocess"), nullptr);
    EXPECT_NE(r.profile->trace.find("count"), nullptr);
  }
}

}  // namespace
