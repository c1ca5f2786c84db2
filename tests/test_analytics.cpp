// Analytics layer on closed-form families and against brute force: the
// k-truss peel, and the k-clique census, per-vertex triangle counts,
// clustering coefficients and transitivity as tc::query serves them; and
// the shared triangle walks under them (the LOTUS phase visitors and the
// positional Forward walk; the kernel's positions are in test_kernels.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/ktruss.hpp"
#include "baselines/intersect.hpp"
#include "baselines/tc_baselines.hpp"
#include "graph/builder.hpp"
#include "graph/degree_order.hpp"
#include "graph/generators.hpp"
#include "lotus_reference.hpp"
#include "parallel/exec_context.hpp"
#include "parallel/thread_pool.hpp"
#include "tc/api.hpp"
#include "util/cancel.hpp"
#include "util/memory_budget.hpp"

namespace {

namespace g = lotus::graph;
namespace tc = lotus::tc;
using lotus::test::local_counts_oracle;
using lotus::test::truss_oracle;
using lotus::util::StatusCode;

/// The per-vertex analytics run on both substrates: the degree-ordered
/// oriented CSR (gap-forward) and the LOTUS phases (lotus).
constexpr tc::Algorithm kSubstrates[] = {tc::Algorithm::kForwardMerge,
                                         tc::Algorithm::kLotus};

/// One analytic query's payload; a rejected or failed query fails the test.
tc::AnalyticsResult analytic(tc::Algorithm algorithm, const g::CsrGraph& graph,
                             const tc::AnalyticsRequest& request,
                             const lotus::core::LotusConfig& config = {}) {
  tc::QueryOptions options;
  options.config = config;
  options.analytic = request;
  auto attempted = tc::query(algorithm, graph, options);
  if (!attempted.ok()) {
    ADD_FAILURE() << "rejected: " << attempted.status().to_string();
    return {};
  }
  tc::QueryResult result = attempted.take();
  EXPECT_TRUE(result.ok()) << result.status.to_string();
  return std::move(result.result.analytics);
}

tc::AnalyticsResult kcliques(const g::CsrGraph& graph, unsigned k,
                             double hub_fraction = 0.01) {
  return analytic(tc::Algorithm::kForwardMerge, graph,
                  {.kind = tc::AnalyticKind::kKClique,
                   .k = k,
                   .hub_fraction = hub_fraction});
}

std::vector<std::uint64_t> local_counts(
    tc::Algorithm algorithm, const g::CsrGraph& graph,
    const lotus::core::LotusConfig& config = {}) {
  auto counts = analytic(algorithm, graph,
                         {.kind = tc::AnalyticKind::kLocalCounts}, config)
                    .vertex_counts;
  EXPECT_EQ(counts.size(), graph.num_vertices()) << tc::name(algorithm);
  return counts;
}

tc::AnalyticsResult clustering(tc::Algorithm algorithm,
                               const g::CsrGraph& graph) {
  auto result =
      analytic(algorithm, graph, {.kind = tc::AnalyticKind::kClustering});
  EXPECT_EQ(result.vertex_coefficients.size(), graph.num_vertices())
      << tc::name(algorithm);
  return result;
}

lotus::analytics::KTrussResult ktruss(const g::CsrGraph& graph) {
  return lotus::analytics::ktruss_prepared(g::orient_by_id(graph));
}

constexpr std::uint64_t choose(std::uint64_t n, std::uint64_t k) {
  std::uint64_t result = 1;
  for (std::uint64_t i = 0; i < k; ++i) result = result * (n - i) / (i + 1);
  return result;
}

// ---------- k-truss ----------

TEST(KTruss, CompleteGraphIsOneTruss) {
  // Every edge of K_6 has support 4 -> trussness 6 for all edges.
  const auto r = ktruss(g::build_undirected(g::complete(6)));
  EXPECT_EQ(r.max_k, 6u);
  for (auto t : r.trussness) EXPECT_EQ(t, 6u);
  EXPECT_EQ(r.edges_in_max_truss, 15u);
}

TEST(KTruss, TriangleFreeGraphIsTwoTruss) {
  const auto r = ktruss(g::build_undirected(g::grid(5, 5)));
  EXPECT_EQ(r.max_k, 2u);
  for (auto t : r.trussness) EXPECT_EQ(t, 2u);
}

TEST(KTruss, CliqueWithTailSeparates) {
  // K_5 plus a pendant path: the clique edges are 5-truss, the tail 2-truss.
  g::EdgeList el = g::complete(5);
  el.num_vertices = 7;
  el.edges.push_back({4, 5});
  el.edges.push_back({5, 6});
  const auto r = ktruss(g::build_undirected(el));
  EXPECT_EQ(r.max_k, 5u);
  EXPECT_EQ(r.edges_in_max_truss, 10u);  // the K_5 edges
  std::uint64_t two_truss = 0;
  for (auto t : r.trussness) two_truss += t == 2 ? 1u : 0u;
  EXPECT_EQ(two_truss, 2u);  // the tail edges
}

TEST(KTruss, WheelIsThreeTruss) {
  // Every wheel edge sits in >= 1 triangle but peels at support 1.
  EXPECT_EQ(ktruss(g::build_undirected(g::wheel(8))).max_k, 3u);
}

TEST(KTruss, TrussnessUpperBoundsFollowSupports) {
  const auto r = ktruss(g::build_undirected(g::holme_kim(
      {.num_vertices = 500, .edges_per_vertex = 5, .p_triad = 0.7, .seed = 94})));
  EXPECT_GE(r.max_k, 3u);  // triad formation guarantees triangles
  for (auto t : r.trussness) EXPECT_GE(t, 2u);
}

TEST(KTruss, EdgeIdWidthSwitchesAtTwoToThe32) {
  EXPECT_EQ(lotus::analytics::edge_id_bytes((std::uint64_t{1} << 32) - 1), 4u);
  EXPECT_EQ(lotus::analytics::edge_id_bytes(std::uint64_t{1} << 32), 8u);
}

// ---------- k-cliques ----------

TEST(KClique, CompleteGraphClosedForm) {
  const auto graph = g::build_undirected(g::complete(12));
  for (unsigned k = 3; k <= 6; ++k)
    EXPECT_EQ(kcliques(graph, k).count, choose(12, k)) << k;
}

TEST(KClique, TriangleCountMatchesBruteForce) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 9, .edge_factor = 8, .seed = 51}));
  EXPECT_EQ(kcliques(graph, 3).count, lotus::baselines::brute_force(graph));
}

TEST(KClique, TriangleFreeGraphHasNoCliques) {
  const auto graph = g::build_undirected(g::complete_bipartite(8, 8));
  for (unsigned k = 3; k <= 5; ++k) EXPECT_EQ(kcliques(graph, k).count, 0u);
}

TEST(KClique, WheelFourCliques) {
  // wheel(5): each rim edge closes one triangle with the hub and the rim C_5
  // has none, so 5 triangles and no 4-clique.
  const auto graph = g::build_undirected(g::wheel(5));
  EXPECT_EQ(kcliques(graph, 3).count, 5u);
  EXPECT_EQ(kcliques(graph, 4).count, 0u);
}

TEST(KClique, HubShareGrowsWithK) {
  // The paper's Sec. 7 conjecture on a skewed graph.
  const auto graph =
      g::build_undirected(g::rmat({.scale = 11, .edge_factor = 10, .seed = 52}));
  const auto k3 = kcliques(graph, 3);
  const auto k4 = kcliques(graph, 4);
  ASSERT_GT(k3.count, 0u);
  ASSERT_GT(k4.count, 0u);
  EXPECT_GE(k4.hub_pct() + 1e-9, k3.hub_pct());
  EXPECT_GT(k3.hub_pct(), 50.0);
}

TEST(KClique, HubAttributionOnCompleteGraph) {
  // 1 hub in K_10 (hub_fraction 0.01 -> ceil(0.1) = 1): cliques containing
  // the hub are C(9, k-1).
  const auto graph = g::build_undirected(g::complete(10));
  EXPECT_EQ(kcliques(graph, 4, 0.01).hub_count, choose(9, 3));
}

TEST(KClique, RejectsSmallK) {
  tc::QueryOptions options;
  options.analytic = {.kind = tc::AnalyticKind::kKClique, .k = 2};
  const auto attempted = tc::query(tc::Algorithm::kForwardMerge,
                                   g::build_undirected(g::complete(5)), options);
  ASSERT_FALSE(attempted.ok());
  EXPECT_EQ(attempted.status().code(), StatusCode::kInvalidArgument);
}

// ---------- local counts, clustering, transitivity ----------

TEST(LocalCounts, CompleteGraphEveryVertexSeesAllItsTriangles) {
  const auto graph = g::build_undirected(g::complete(10));
  for (const auto algorithm : kSubstrates) {
    // Each vertex of K_10 is in C(9,2) = 36 triangles.
    for (auto c : local_counts(algorithm, graph))
      EXPECT_EQ(c, 36u) << tc::name(algorithm);
  }
}

TEST(LocalCounts, CornerSumIsThreeTimesTriangles) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 41}));
  const std::uint64_t triangles = lotus::baselines::brute_force(graph);
  for (const auto algorithm : kSubstrates) {
    const auto counts = local_counts(algorithm, graph);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}),
              3 * triangles)
        << tc::name(algorithm);
  }
}

TEST(LocalCounts, WheelHubSeesEveryTriangle) {
  const auto graph = g::build_undirected(g::wheel(10));
  for (const auto algorithm : kSubstrates) {
    const auto counts = local_counts(algorithm, graph);
    ASSERT_EQ(counts.size(), 11u) << tc::name(algorithm);
    EXPECT_EQ(counts[0], 10u);  // hub participates in all 10 rim triangles
    for (std::size_t v = 1; v < counts.size(); ++v) EXPECT_EQ(counts[v], 2u);
  }
}

TEST(Clustering, CompleteGraphHasCoefficientOne) {
  const auto graph = g::build_undirected(g::complete(8));
  for (const auto algorithm : kSubstrates)
    for (double c : clustering(algorithm, graph).vertex_coefficients)
      EXPECT_DOUBLE_EQ(c, 1.0) << tc::name(algorithm);
}

TEST(Clustering, TriangleFreeGraphHasZero) {
  const auto graph = g::build_undirected(g::grid(6, 6));
  for (const auto algorithm : kSubstrates)
    for (double c : clustering(algorithm, graph).vertex_coefficients)
      EXPECT_DOUBLE_EQ(c, 0.0) << tc::name(algorithm);
}

TEST(Clustering, LowDegreeVerticesAreZeroNotNan) {
  const auto graph = g::build_undirected(g::path(5));
  for (const auto algorithm : kSubstrates)
    for (double c : clustering(algorithm, graph).vertex_coefficients)
      EXPECT_DOUBLE_EQ(c, 0.0) << tc::name(algorithm);
}

TEST(Transitivity, CompleteGraphIsOne) {
  const auto graph = g::build_undirected(g::complete(12));
  for (const auto algorithm : kSubstrates) {
    const auto t = clustering(algorithm, graph);
    EXPECT_DOUBLE_EQ(t.clustering.global_transitivity, 1.0);
    EXPECT_DOUBLE_EQ(t.clustering.avg_clustering, 1.0);
    EXPECT_EQ(t.count, g::complete_triangles(12)) << tc::name(algorithm);
  }
}

TEST(Transitivity, StarIsZeroWithManyWedges) {
  const auto graph = g::build_undirected(g::star(20));
  for (const auto algorithm : kSubstrates) {
    const auto t = clustering(algorithm, graph);
    EXPECT_EQ(t.count, 0u) << tc::name(algorithm);
    EXPECT_EQ(t.clustering.wedges, 19ull * 18 / 2);  // all through the centre
    EXPECT_DOUBLE_EQ(t.clustering.global_transitivity, 0.0);
  }
}

TEST(Transitivity, MatchesBruteForceTriangleCount) {
  const auto graph = g::build_undirected(g::holme_kim(
      {.num_vertices = 1000, .edges_per_vertex = 5, .p_triad = 0.6, .seed = 42}));
  const std::uint64_t triangles = lotus::baselines::brute_force(graph);
  for (const auto algorithm : kSubstrates) {
    const auto t = clustering(algorithm, graph);
    EXPECT_EQ(t.count, triangles) << tc::name(algorithm);
    // Triad formation forces clustering.
    EXPECT_GT(t.clustering.avg_clustering, 0.1) << tc::name(algorithm);
  }
}

// ---------- per-vertex counts through the LOTUS phases ----------

TEST(LotusLocal, MatchesForwardLocalCounts) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 10, .seed = 61}));
  const auto via_lotus = local_counts(tc::Algorithm::kLotus, graph);
  const auto via_forward = local_counts(tc::Algorithm::kForwardMerge, graph);
  ASSERT_EQ(via_lotus.size(), via_forward.size());
  for (std::size_t v = 0; v < via_lotus.size(); ++v)
    ASSERT_EQ(via_lotus[v], via_forward[v]) << "vertex " << v;
}

TEST(LotusLocal, CompleteGraph) {
  const auto counts =
      local_counts(tc::Algorithm::kLotus, g::build_undirected(g::complete(9)));
  for (auto c : counts) EXPECT_EQ(c, 8u * 7 / 2);
}

/// 40 whales forming a clique, whale w adjacent to every (w+1)-th of
/// `leaves` ring-linked leaves: leaf 0 sees every whale, so hub lists run to
/// 40 entries, and with 40 hubs every class (HHH, HHN, HNN, NNN) is
/// populated. Each leaf closes a ring triangle with its next two leaves.
g::CsrGraph hub_whale_graph(g::VertexId leaves) {
  constexpr g::VertexId kWhales = 40;
  g::EdgeList el{kWhales + leaves, {}};
  for (g::VertexId w = 0; w < kWhales; ++w) {
    for (g::VertexId x = w + 1; x < kWhales; ++x) el.edges.push_back({w, x});
    for (g::VertexId l = 0; l < leaves; l += w + 1)
      el.edges.push_back({w, kWhales + l});
  }
  for (g::VertexId l = 0; l < leaves; ++l) {
    el.edges.push_back({kWhales + l, kWhales + (l + 1) % leaves});
    el.edges.push_back({kWhales + l, kWhales + (l + 2) % leaves});
  }
  return g::build_undirected(el);
}

// Both triangle sources of the truss peel against the oracle: the index,
// and the merge of symmetric lists that a budget one byte short of the
// index forces. Per-edge trussness must agree between them, and each
// histogram must match the oracle, at 1 and 4 threads (the supports and
// the index are filled by pool workers).
TEST(KTruss, IndexAndMergePeelsAgreeWithOracle) {
  g::EdgeList clique_with_tail = g::complete(5);
  clique_with_tail.num_vertices = 7;
  clique_with_tail.edges.push_back({4, 5});
  clique_with_tail.edges.push_back({5, 6});
  const g::CsrGraph graphs[] = {
      g::build_undirected(g::complete(6)),
      g::build_undirected(g::wheel(8)),
      g::build_undirected(clique_with_tail),
      g::build_undirected(g::rmat({.scale = 9, .edge_factor = 8, .seed = 71})),
      g::build_undirected(g::holme_kim({.num_vertices = 800,
                                        .edges_per_vertex = 5,
                                        .p_triad = 0.6,
                                        .seed = 72})),
      hub_whale_graph(3000)};
  const auto histogram = [](const std::vector<std::uint32_t>& trussness) {
    std::map<std::uint32_t, std::uint64_t> out;
    for (const std::uint32_t t : trussness) out[t] += 1;
    return out;
  };
  for (const auto& graph : graphs) {
    const auto oracle = truss_oracle(graph);
    const auto oriented = g::degree_ordered_oriented(graph);
    for (const unsigned threads : {1u, 4u}) {
      lotus::parallel::set_num_threads(threads);
      // The walks' position rows are per thread, so the forcing budget is
      // taken at the thread count the peels run at.
      const std::uint64_t forcing = lotus::test::merge_forcing_budget(oriented);
      SCOPED_TRACE("n=" + std::to_string(graph.num_vertices()) +
                   " threads=" + std::to_string(threads));
      const auto indexed = lotus::analytics::ktruss_prepared(oriented);
      lotus::util::MemoryBudget budget(forcing);
      const auto merged = [&] {
        lotus::util::ScopedMemoryBudget scoped(&budget);
        return lotus::analytics::ktruss_prepared(oriented);
      }();
      EXPECT_TRUE(indexed.indexed);
      EXPECT_FALSE(merged.indexed);  // the index charge was refused
      EXPECT_LE(budget.used(), forcing);
      EXPECT_EQ(merged.trussness, indexed.trussness);
      for (const auto* r : {&indexed, &merged}) {
        EXPECT_EQ(histogram(r->trussness), oracle.histogram);
        EXPECT_EQ(r->max_k, oracle.max_k);
        EXPECT_EQ(r->edges_in_max_truss, oracle.edges_in_max_truss);
      }
    }
  }
  lotus::parallel::set_num_threads(0);
}

// The serial peel polls the installed ExecContext itself, and the index is
// filled by a parallel walk that polls per chunk. A canceller thread cancels
// the moment the budget shows the triangle source charged, so the cancel
// lands in the index walk or in the peel; the call must then return with
// edges left unpeeled, on both peels. The merge lists are filled serially,
// so on the merge peel only the peel's own poll can stop it. Where the
// cancel lands depends on timing, so each peel is retried until a round
// sees it.
TEST(KTruss, CancelAfterTheSourceChargeStopsEitherPeel) {
  const auto oriented = g::degree_ordered_oriented(hub_whale_graph(3000));
  const std::uint64_t forcing = lotus::test::merge_forcing_budget(oriented);
  for (const std::uint64_t limit : {std::uint64_t{0}, forcing}) {
    std::uint64_t charged = 0;  // the charge total once the source is charged
    {
      lotus::util::MemoryBudget budget(limit);
      lotus::util::ScopedMemoryBudget scoped(&budget);
      (void)lotus::analytics::ktruss_prepared(oriented);
      charged = budget.used();
    }
    bool stopped = false;
    for (int round = 0; round < 50 && !stopped; ++round) {
      lotus::util::CancelToken token;
      lotus::parallel::ExecContext context;
      context.cancel = &token;
      lotus::util::MemoryBudget budget(limit);
      std::atomic<bool> done{false};
      std::thread canceller([&] {
        while (!done.load(std::memory_order_relaxed)) {
          if (budget.used() >= charged) {
            token.cancel();
            return;
          }
        }
      });
      lotus::analytics::KTrussResult result;
      {
        lotus::parallel::ScopedExecContext scoped_context(&context);
        lotus::util::ScopedMemoryBudget scoped_budget(&budget);
        result = lotus::analytics::ktruss_prepared(oriented);
      }
      done = true;
      canceller.join();
      // No poll saw the cancel: the call finished first.
      if (context.observed.load() == lotus::parallel::Interrupt::kNone) continue;
      EXPECT_EQ(result.indexed, limit == 0);
      stopped = std::count(result.trussness.begin(), result.trussness.end(), 0u) > 0;
    }
    EXPECT_TRUE(stopped) << "no round stopped inside the peel, limit " << limit;
  }
}

// The LOTUS substrate (phase-kernel visitors + the NHE walk) and the
// oriented substrate (the positional Forward walk) against the oracle, with
// every HE list tiled (threshold 1) so one vertex's hub pairs are split
// across tiles and threads, under both count_hnn steps. Corner credits go to
// thread-private rows for internal IDs below 65,536 and to a shared atomic
// tail above; with 70,000 leaves the ring triangles put corners on both
// sides of that boundary in both substrates, so a lost tail credit or a row
// left out of the reduce shows up against the oracle.
TEST(LocalCounts, SubstratesMatchOracleOnTiledWhaleGraph) {
  for (const g::VertexId leaves : {3000u, 70000u}) {
    const auto graph = hub_whale_graph(leaves);
    const auto oracle = local_counts_oracle(graph);
    ASSERT_GT(std::accumulate(oracle.begin(), oracle.end(), std::uint64_t{0}),
              0u);
    lotus::core::LotusConfig config;
    config.hub_count = 40;
    config.tiling_degree_threshold = 1;
    for (const unsigned threads : {1u, 4u}) {
      lotus::parallel::set_num_threads(threads);
      for (const bool vectorize : {true, false}) {
        config.vectorize = vectorize;
        EXPECT_EQ(local_counts(tc::Algorithm::kLotus, graph, config), oracle)
            << "lotus leaves=" << leaves << " threads=" << threads
            << " vectorize=" << vectorize;
      }
      EXPECT_EQ(local_counts(tc::Algorithm::kForwardMerge, graph), oracle)
          << "oriented leaves=" << leaves << " threads=" << threads;
    }
  }
  lotus::parallel::set_num_threads(0);
}

// The k-truss support pass reads edge positions from the walk, so trussness
// must not depend on the orientation: map each oriented edge to its
// undirected endpoints and compare the ID order with the degree order (the
// artifact tc::query serves).
TEST(KTruss, TrussnessIndependentOfOrientation) {
  const g::CsrGraph graphs[] = {
      g::build_undirected(g::rmat({.scale = 9, .edge_factor = 8, .seed = 71})),
      g::build_undirected(g::holme_kim({.num_vertices = 800,
                                        .edges_per_vertex = 5,
                                        .p_triad = 0.6,
                                        .seed = 72}))};
  using Edge = std::pair<g::VertexId, g::VertexId>;
  const auto by_endpoints = [](const g::OrientedCsr& oriented,
                               const std::vector<std::uint32_t>& trussness,
                               const std::vector<g::VertexId>& original) {
    std::map<Edge, std::uint32_t> out;
    for (g::VertexId v = 0; v < oriented.num_vertices(); ++v) {
      std::uint64_t e = oriented.offset(v);
      for (const g::VertexId u : oriented.neighbors(v)) {
        const g::VertexId a = original[u], b = original[v];
        out[{std::min(a, b), std::max(a, b)}] = trussness[e++];
      }
    }
    return out;
  };
  for (const auto& graph : graphs) {
    std::vector<g::VertexId> identity(graph.num_vertices());
    std::iota(identity.begin(), identity.end(), 0);
    const auto by_id = by_endpoints(g::orient_by_id(graph),
                                    ktruss(graph).trussness, identity);

    const auto perm = g::degree_descending_permutation(graph);
    std::vector<g::VertexId> original(perm.size());
    for (g::VertexId v = 0; v < perm.size(); ++v) original[perm[v]] = v;
    const auto served = analytic(tc::Algorithm::kForwardMerge, graph,
                                 {.kind = tc::AnalyticKind::kKTruss});
    const auto by_degree = by_endpoints(g::degree_ordered_oriented(graph),
                                        served.edge_trussness, original);

    ASSERT_EQ(by_id.size(), graph.num_edges() / 2);
    EXPECT_EQ(by_id, by_degree);
    EXPECT_GT(served.truss.max_k, 3u);
  }
}

TEST(LotusLocal, CornerSumIsThreeTimesTotal) {
  const auto graph = g::build_undirected(g::copy_web(
      {.num_vertices = 2000, .edges_per_vertex = 6, .p_copy = 0.7,
       .locality_window = 128, .seed = 62}));
  const auto counts = local_counts(tc::Algorithm::kLotus, graph);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}),
            3 * lotus::baselines::brute_force(graph));
}

}  // namespace
