// Differential oracles for the typed analytics surface (ctest label
// `analytics`): every AnalyticKind served by tc::query()/tc::Engine is
// checked against a from-scratch brute-force implementation on corpus
// graphs, plus the resilience envelope (cancel / deadline / budget), the
// Expected-side validation contract, and the Engine's cross-analytic
// artifact sharing — the tentpole property that a k-clique query after a
// triangle count is a cache hit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "baselines/tc_baselines.hpp"
#include "graph/builder.hpp"
#include "graph/degree_order.hpp"
#include "graph/generators.hpp"
#include "lotus_reference.hpp"
#include "tc/engine.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace {

namespace g = lotus::graph;
namespace tc = lotus::tc;
using g::VertexId;
using lotus::util::Deadline;
using lotus::test::merge_forcing_budget;
using lotus::test::truss_oracle;
using lotus::util::StatusCode;

// ---------- brute-force oracles --------------------------------------------

bool has_edge(const g::CsrGraph& graph, VertexId u, VertexId v) {
  const auto ns = graph.neighbors(u);
  return std::binary_search(ns.begin(), ns.end(), v);
}

/// All k-cliques by ordered extension over ORIGINAL vertex IDs; quadratic in
/// places and fine for corpus-sized graphs.
void enumerate_cliques(const g::CsrGraph& graph, unsigned k,
                       std::vector<VertexId>& members, VertexId next,
                       const std::function<void(const std::vector<VertexId>&)>& emit) {
  if (members.size() == k) {
    emit(members);
    return;
  }
  for (VertexId v = next; v < graph.num_vertices(); ++v) {
    bool adjacent_to_all = true;
    for (const VertexId m : members)
      if (!has_edge(graph, m, v)) {
        adjacent_to_all = false;
        break;
      }
    if (!adjacent_to_all) continue;
    members.push_back(v);
    enumerate_cliques(graph, k, members, v + 1, emit);
    members.pop_back();
  }
}

struct CliqueOracle {
  std::uint64_t cliques = 0;
  std::uint64_t hub_cliques = 0;
};

/// Count k-cliques and those touching a hub, where hubs are the vertices the
/// degree-descending permutation maps below `hub_count` — the exact hub
/// definition the mining layer inherits from the prepared artifact.
CliqueOracle clique_oracle(const g::CsrGraph& graph, unsigned k,
                           VertexId hub_count) {
  const auto new_id = g::degree_descending_permutation(graph);
  CliqueOracle oracle;
  std::vector<VertexId> members;
  enumerate_cliques(graph, k, members, 0,
                    [&](const std::vector<VertexId>& clique) {
                      ++oracle.cliques;
                      for (const VertexId m : clique)
                        if (new_id[m] < hub_count) {
                          ++oracle.hub_cliques;
                          break;
                        }
                    });
  return oracle;
}

/// Per-vertex triangle counts by neighborhood intersection.
std::vector<std::uint64_t> local_counts_oracle(const g::CsrGraph& graph) {
  std::vector<std::uint64_t> counts(graph.num_vertices(), 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v)
    for (const VertexId u : graph.neighbors(v)) {
      if (u >= v) break;  // sorted lists: count each edge once
      for (const VertexId w : graph.neighbors(u)) {
        if (w >= u) break;
        if (has_edge(graph, v, w)) {
          ++counts[v];
          ++counts[u];
          ++counts[w];
        }
      }
    }
  return counts;
}

std::uint64_t wedges_oracle(const g::CsrGraph& graph) {
  std::uint64_t wedges = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const std::uint64_t d = graph.degree(v);
    wedges += d * (d - 1) / 2;
  }
  return wedges;
}

// ---------- harness ---------------------------------------------------------

tc::QueryResult run(tc::Algorithm algorithm, const g::CsrGraph& graph,
                    const tc::AnalyticsRequest& request,
                    tc::QueryOptions options = {}) {
  options.analytic = request;
  auto attempted = tc::query(algorithm, graph, options);
  EXPECT_TRUE(attempted.ok()) << attempted.status().to_string();
  return attempted.take();
}

std::vector<g::CsrGraph> corpus() {
  std::vector<g::CsrGraph> graphs;
  graphs.push_back(g::build_undirected(g::complete(10)));
  graphs.push_back(g::build_undirected(g::wheel(12)));
  graphs.push_back(g::build_undirected(
      g::rmat({.scale = 8, .edge_factor = 8, .seed = 71})));
  graphs.push_back(g::build_undirected(
      g::erdos_renyi(300, 12.0, 19)));
  return graphs;
}

/// Substrate algorithms worth sweeping: one per artifact family.
const tc::Algorithm kSubstrates[] = {
    tc::Algorithm::kLotus, tc::Algorithm::kAdaptive,
    tc::Algorithm::kForwardMerge};

// ---------- k-clique --------------------------------------------------------

TEST(AnalyticsKClique, MatchesEnumerationOracleK3to5) {
  for (const auto& graph : corpus()) {
    for (unsigned k = 3; k <= 5; ++k) {
      tc::AnalyticsRequest request;
      request.kind = tc::AnalyticKind::kKClique;
      request.k = k;
      request.hub_fraction = 0.05;
      const auto hub_count = static_cast<VertexId>(std::max<double>(
          1.0, std::ceil(request.hub_fraction * graph.num_vertices())));
      const CliqueOracle oracle = clique_oracle(graph, k, hub_count);
      for (const auto algorithm : kSubstrates) {
        const auto result = run(algorithm, graph, request);
        ASSERT_TRUE(result.ok()) << result.status.to_string();
        EXPECT_EQ(result.result.analytics.count, oracle.cliques)
            << tc::name(algorithm) << " k=" << k;
        EXPECT_EQ(result.result.analytics.hub_count, oracle.hub_cliques)
            << tc::name(algorithm) << " k=" << k;
        EXPECT_EQ(result.result.analytics.k, k);
        // The TC adapter mirrors the count only at k = 3.
        EXPECT_EQ(result.result.triangles,
                  k == 3 ? oracle.cliques : std::uint64_t{0});
      }
    }
  }
}

TEST(AnalyticsKClique, TriangleKindAndK3CliqueAgree) {
  const auto graph = g::build_undirected(
      g::rmat({.scale = 9, .edge_factor = 8, .seed = 23}));
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  tc::AnalyticsRequest request;
  request.kind = tc::AnalyticKind::kKClique;
  request.k = 3;
  EXPECT_EQ(run(tc::Algorithm::kForwardMerge, graph, request)
                .result.analytics.count,
            expected);
  EXPECT_EQ(run(tc::Algorithm::kForwardMerge, graph, {}).result.triangles,
            expected);
}

// ---------- k-truss ---------------------------------------------------------

TEST(AnalyticsKTruss, SummaryAndHistogramMatchPeelingOracle) {
  for (const auto& graph : corpus()) {
    const auto oracle = truss_oracle(graph);
    tc::AnalyticsRequest request;
    request.kind = tc::AnalyticKind::kKTruss;
    for (const auto algorithm : kSubstrates) {
      const auto result = run(algorithm, graph, request);
      ASSERT_TRUE(result.ok()) << result.status.to_string();
      const auto& analytics = result.result.analytics;
      EXPECT_EQ(analytics.truss.max_k, oracle.max_k) << tc::name(algorithm);
      EXPECT_EQ(analytics.truss.edges_in_max_truss, oracle.edges_in_max_truss)
          << tc::name(algorithm);
      // The per-edge array depends on the artifact's edge order; compare the
      // order-invariant histogram instead.
      ASSERT_EQ(analytics.edge_trussness.size(), graph.num_edges() / 2);
      std::map<std::uint32_t, std::uint64_t> histogram;
      for (const std::uint32_t t : analytics.edge_trussness) histogram[t] += 1;
      EXPECT_EQ(histogram, oracle.histogram) << tc::name(algorithm);
      // No triangle count is defined for a truss decomposition.
      EXPECT_EQ(result.result.triangles, 0u);
    }
  }
}

TEST(AnalyticsKTruss, SummaryGranularitySkipsTheEdgeArray) {
  const auto graph = g::build_undirected(g::wheel(16));
  tc::AnalyticsRequest request;
  request.kind = tc::AnalyticKind::kKTruss;
  request.granularity = tc::OutputGranularity::kSummary;
  const auto result = run(tc::Algorithm::kForwardMerge, graph, request);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.result.analytics.edge_trussness.empty());
  EXPECT_EQ(result.result.analytics.truss.max_k, truss_oracle(graph).max_k);
}

// ---------- local counts ----------------------------------------------------

TEST(AnalyticsLocalCounts, PerVertexCountsMatchOracleByOriginalId) {
  for (const auto& graph : corpus()) {
    const auto oracle = local_counts_oracle(graph);
    const std::uint64_t corner_sum =
        std::accumulate(oracle.begin(), oracle.end(), std::uint64_t{0});
    tc::AnalyticsRequest request;
    request.kind = tc::AnalyticKind::kLocalCounts;
    for (const auto algorithm : kSubstrates) {
      const auto result = run(algorithm, graph, request);
      ASSERT_TRUE(result.ok()) << result.status.to_string();
      EXPECT_EQ(result.result.analytics.vertex_counts, oracle)
          << tc::name(algorithm);
      EXPECT_EQ(result.result.analytics.count, corner_sum / 3);
      EXPECT_EQ(result.result.triangles, corner_sum / 3);
    }
  }
}

TEST(AnalyticsLocalCounts, SummaryGranularityKeepsTheCount) {
  const auto graph = g::build_undirected(
      g::rmat({.scale = 8, .edge_factor = 8, .seed = 5}));
  tc::AnalyticsRequest request;
  request.kind = tc::AnalyticKind::kLocalCounts;
  request.granularity = tc::OutputGranularity::kSummary;
  const auto result = run(tc::Algorithm::kLotus, graph, request);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.result.analytics.vertex_counts.empty());
  EXPECT_EQ(result.result.analytics.count,
            lotus::baselines::brute_force(graph));
}

// ---------- clustering ------------------------------------------------------

TEST(AnalyticsClustering, CoefficientsAndSummaryMatchOracle) {
  for (const auto& graph : corpus()) {
    const auto counts = local_counts_oracle(graph);
    const std::uint64_t corner_sum =
        std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
    const std::uint64_t wedges = wedges_oracle(graph);
    tc::AnalyticsRequest request;
    request.kind = tc::AnalyticKind::kClustering;
    for (const auto algorithm : kSubstrates) {
      const auto result = run(algorithm, graph, request);
      ASSERT_TRUE(result.ok()) << result.status.to_string();
      const auto& analytics = result.result.analytics;
      EXPECT_EQ(analytics.count, corner_sum / 3);
      EXPECT_EQ(analytics.clustering.wedges, wedges);
      if (wedges > 0) {
        EXPECT_NEAR(analytics.clustering.global_transitivity,
                    static_cast<double>(corner_sum) / static_cast<double>(wedges),
                    1e-12);
      }
      ASSERT_EQ(analytics.vertex_coefficients.size(), graph.num_vertices());
      double mean = 0.0;
      for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        const std::uint64_t d = graph.degree(v);
        const double expected =
            d < 2 ? 0.0
                  : 2.0 * static_cast<double>(counts[v]) /
                        (static_cast<double>(d) * static_cast<double>(d - 1));
        EXPECT_NEAR(analytics.vertex_coefficients[v], expected, 1e-12)
            << tc::name(algorithm) << " v=" << v;
        mean += expected;
      }
      if (graph.num_vertices() > 0) {
        EXPECT_NEAR(analytics.clustering.avg_clustering,
                    mean / static_cast<double>(graph.num_vertices()), 1e-9);
      }
    }
  }
}

// ---------- validation (Expected side) --------------------------------------

TEST(AnalyticsValidation, MalformedRequestsAreNeverAttempted) {
  const auto graph = g::build_undirected(g::complete(6));

  tc::QueryOptions too_small;
  too_small.analytic.kind = tc::AnalyticKind::kKClique;
  too_small.analytic.k = 2;
  auto attempted = tc::query(tc::Algorithm::kLotus, graph, too_small);
  ASSERT_FALSE(attempted.ok());
  EXPECT_EQ(attempted.status().code(), StatusCode::kInvalidArgument);

  tc::QueryOptions bad_fraction;
  bad_fraction.analytic.kind = tc::AnalyticKind::kKClique;
  bad_fraction.analytic.hub_fraction = 1.5;
  attempted = tc::query(tc::Algorithm::kLotus, graph, bad_fraction);
  ASSERT_FALSE(attempted.ok());
  EXPECT_EQ(attempted.status().code(), StatusCode::kInvalidArgument);

  // No reusable artifact behind the node iterator: analytics are rejected,
  // plain triangle counting still works.
  tc::QueryOptions no_artifact;
  no_artifact.analytic.kind = tc::AnalyticKind::kKTruss;
  attempted = tc::query(tc::Algorithm::kNodeIterator, graph, no_artifact);
  ASSERT_FALSE(attempted.ok());
  EXPECT_EQ(attempted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(tc::query(tc::Algorithm::kNodeIterator, graph).ok());
}

TEST(AnalyticsValidation, NameParseRoundTrip) {
  for (const auto kind : tc::all_analytics()) {
    const auto parsed = tc::parse_analytic(tc::analytic_name(kind));
    ASSERT_TRUE(parsed.has_value()) << tc::analytic_name(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(tc::parse_analytic("not-an-analytic").has_value());
  EXPECT_EQ(tc::analytic_labels().size(), tc::all_analytics().size());
}

// ---------- resilience envelope ---------------------------------------------

// Each interrupt test runs unbudgeted (the truss peel's triangle index) and
// once more under a budget that forces the peel's merge lists.
TEST(AnalyticsResilience, PreCancelledTokenClearsEveryPayload) {
  const auto graph = g::build_undirected(
      g::rmat({.scale = 9, .edge_factor = 8, .seed = 3}));
  lotus::util::CancelToken token;
  token.cancel();
  const std::uint64_t merge_only =
      merge_forcing_budget(g::degree_ordered_oriented(graph));
  for (const std::uint64_t budget : {std::uint64_t{0}, merge_only}) {
    for (const auto kind :
         {tc::AnalyticKind::kKClique, tc::AnalyticKind::kKTruss,
          tc::AnalyticKind::kLocalCounts, tc::AnalyticKind::kClustering}) {
      tc::AnalyticsRequest request;
      request.kind = kind;
      tc::QueryOptions options;
      options.cancel = &token;
      options.memory_budget_bytes = budget;
      const auto result =
          run(tc::Algorithm::kForwardMerge, graph, request, options);
      ASSERT_FALSE(result.ok()) << tc::analytic_name(kind);
      EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
      // clear_payload keeps the analytic identity and zeroes everything else.
      EXPECT_EQ(result.result.analytics.kind, kind);
      EXPECT_EQ(result.result.triangles, 0u);
      EXPECT_EQ(result.result.analytics.count, 0u);
      EXPECT_TRUE(result.result.analytics.vertex_counts.empty());
      EXPECT_TRUE(result.result.analytics.vertex_coefficients.empty());
      EXPECT_TRUE(result.result.analytics.edge_trussness.empty());
    }
  }
}

TEST(AnalyticsResilience, ZeroDeadlineExpiresAnalytics) {
  const auto graph = g::build_undirected(
      g::rmat({.scale = 9, .edge_factor = 8, .seed = 4}));
  const std::uint64_t merge_only =
      merge_forcing_budget(g::degree_ordered_oriented(graph));
  for (const std::uint64_t budget : {std::uint64_t{0}, merge_only}) {
    for (const auto kind :
         {tc::AnalyticKind::kKClique, tc::AnalyticKind::kKTruss}) {
      tc::AnalyticsRequest request;
      request.kind = kind;
      request.k = 4;
      tc::QueryOptions options;
      options.deadline = Deadline::after(0.0);
      options.memory_budget_bytes = budget;
      const auto result = run(tc::Algorithm::kLotus, graph, request, options);
      ASSERT_FALSE(result.ok()) << tc::analytic_name(kind);
      EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
      EXPECT_TRUE(result.result.analytics.edge_trussness.empty());
    }
  }
}

TEST(AnalyticsResilience, TinyBudgetWithoutDegradationIsOutOfMemory) {
  const auto graph = g::build_undirected(
      g::rmat({.scale = 10, .edge_factor = 8, .seed = 6}));
  for (const auto kind :
       {tc::AnalyticKind::kKTruss, tc::AnalyticKind::kLocalCounts}) {
    tc::AnalyticsRequest request;
    request.kind = kind;
    tc::QueryOptions options;
    options.memory_budget_bytes = 256;  // below any per-vertex/edge state
    options.allow_degradation = false;
    const auto result = run(tc::Algorithm::kLotus, graph, request, options);
    ASSERT_FALSE(result.ok()) << tc::analytic_name(kind);
    EXPECT_EQ(result.status.code(), StatusCode::kOutOfMemory)
        << tc::analytic_name(kind);
    EXPECT_EQ(result.result.triangles, 0u);
  }
}

// The triangle walk's per-thread position rows are charged before the walk
// starts: one byte short of them, a local-counts query must fail with a
// typed status naming the walk's site (or, with degradation, fall back from
// LOTUS to gap-forward and answer there), never allocate uncharged.
TEST(AnalyticsResilience, BudgetShortOfTheWalkRowsFailsBeforeTheWalk) {
  const auto graph = g::build_undirected(
      g::rmat({.scale = 10, .edge_factor = 8, .seed = 7}));
  const auto oracle = lotus::test::local_counts_oracle(graph);
  tc::AnalyticsRequest request;
  request.kind = tc::AnalyticKind::kLocalCounts;
  const std::pair<tc::Algorithm, const char*> substrates[] = {
      {tc::Algorithm::kLotus, "local/walk-positions"},
      {tc::Algorithm::kForwardMerge, "clustering/walk-positions"}};
  for (const auto& [algorithm, site] : substrates) {
    SCOPED_TRACE(tc::name(algorithm));
    const std::uint64_t limit = lotus::test::walk_forcing_budget(algorithm, graph);
    tc::QueryOptions options;
    options.memory_budget_bytes = limit;
    options.allow_degradation = false;
    const auto refused = run(algorithm, graph, request, options);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status.code(), StatusCode::kOutOfMemory);
    EXPECT_NE(refused.status.message().find(site), std::string::npos)
        << refused.status.message();
    EXPECT_TRUE(refused.result.analytics.vertex_counts.empty());

    options.allow_degradation = true;
    const auto degraded = run(algorithm, graph, request, options);
    if (algorithm == tc::Algorithm::kLotus) {
      // gap-forward's oriented artifact and walk fit where LOTUS's did not.
      ASSERT_TRUE(degraded.ok()) << degraded.status.to_string();
      ASSERT_EQ(degraded.degradations.size(), 1u);
      EXPECT_NE(degraded.degradations[0].reason.find(site), std::string::npos);
      EXPECT_EQ(degraded.result.analytics.vertex_counts, oracle);
    } else {
      EXPECT_EQ(degraded.status.code(), StatusCode::kOutOfMemory);
    }

    options.memory_budget_bytes = limit + 1;
    const auto admitted = run(algorithm, graph, request, options);
    ASSERT_TRUE(admitted.ok()) << admitted.status.to_string();
    EXPECT_TRUE(admitted.degradations.empty());
    EXPECT_EQ(admitted.result.analytics.vertex_counts, oracle);
  }
}

// ---------- engine: one artifact, many analytics -----------------------------

TEST(AnalyticsEngine, CrossAnalyticQueriesShareOneOrientedArtifact) {
  const auto graph = g::build_undirected(
      g::rmat({.scale = 10, .edge_factor = 8, .seed = 29}));
  const std::uint64_t expected = lotus::baselines::brute_force(graph);

  tc::Engine engine;
  // 1. Plain TC on the Forward family builds the kOriented artifact (miss).
  const auto first =
      engine.query({tc::Algorithm::kForwardMerge, "shared", &graph, {}});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().ok()) << first.value().status.to_string();
  EXPECT_EQ(first.value().result.triangles, expected);
  EXPECT_FALSE(first.value().cache_hit);

  // 2..4. Every other analytic on the same key must be a cache hit: the
  // cache key is the artifact kind, never the analytic.
  const tc::AnalyticKind kinds[] = {tc::AnalyticKind::kKClique,
                                    tc::AnalyticKind::kKTruss,
                                    tc::AnalyticKind::kLocalCounts,
                                    tc::AnalyticKind::kClustering};
  for (const auto kind : kinds) {
    tc::QueryOptions options;
    options.analytic.kind = kind;
    options.analytic.k = 4;
    const auto served = engine.query(
        {tc::Algorithm::kForwardMerge, "shared", &graph, options});
    ASSERT_TRUE(served.ok());
    ASSERT_TRUE(served.value().ok()) << served.value().status.to_string();
    EXPECT_TRUE(served.value().cache_hit) << tc::analytic_name(kind);
    EXPECT_EQ(served.value().result.analytics.kind, kind);
  }

  const auto stats = engine.stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 4u);

  // Differential check against the direct path while we are here.
  tc::QueryOptions clique;
  clique.analytic.kind = tc::AnalyticKind::kKClique;
  clique.analytic.k = 4;
  const auto direct = tc::query(tc::Algorithm::kForwardMerge, graph, clique);
  const auto served = engine.query(
      {tc::Algorithm::kForwardMerge, "shared", &graph, clique});
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.value().result.analytics.count,
            direct.value().result.analytics.count);
}

TEST(AnalyticsEngine, LotusTriangleArtifactDoesNotServeDagAnalytics) {
  // kLotus TC caches a kLotus artifact; a k-clique on the same key needs the
  // kOriented artifact — a miss the first time, a hit the second.
  const auto graph = g::build_undirected(
      g::rmat({.scale = 9, .edge_factor = 8, .seed = 37}));
  tc::Engine engine;
  ASSERT_TRUE(engine.query({tc::Algorithm::kLotus, "g", &graph, {}}).ok());

  tc::QueryOptions clique;
  clique.analytic.kind = tc::AnalyticKind::kKClique;
  const auto miss = engine.query({tc::Algorithm::kLotus, "g", &graph, clique});
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().cache_hit);
  const auto hit = engine.query({tc::Algorithm::kLotus, "g", &graph, clique});
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);

  // Per-vertex analytics ride the kLotus artifact instead: immediate hit.
  tc::QueryOptions local;
  local.analytic.kind = tc::AnalyticKind::kLocalCounts;
  const auto lotus_hit =
      engine.query({tc::Algorithm::kLotus, "g", &graph, local});
  ASSERT_TRUE(lotus_hit.ok());
  EXPECT_TRUE(lotus_hit.value().cache_hit);
}

TEST(AnalyticsEngine, SubmitRejectsMalformedAnalyticsUpFront) {
  const auto graph = g::build_undirected(g::complete(5));
  tc::Engine engine;
  tc::QueryOptions options;
  options.analytic.kind = tc::AnalyticKind::kKClique;
  options.analytic.k = 1;
  const auto rejected =
      engine.query({tc::Algorithm::kLotus, "g", &graph, options});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.stats().rejected, 1u);
}

}  // namespace
