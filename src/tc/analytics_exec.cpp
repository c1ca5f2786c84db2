// detail::run_analytic — the execution core behind every non-triangle
// analytic tc::query()/tc::Engine serve (kKClique, kKTruss, kLocalCounts,
// kClustering).
//
// The job here is substrate plumbing, not graph algorithms: pick the
// substrate the Algorithm selects (LOTUS phases for lotus on the per-vertex
// analytics, the degree-ordered oriented CSR otherwise), borrow it from the
// prepared artifact (the Engine's cached one, or the one tc::query just
// built), then hand off to the analytic kernels (mining::count_cliques,
// lotus/local.hpp, analytics/ktruss.hpp, analytics/clustering.hpp), which
// walk triangles once per substrate (docs/API.md).
//
// Timing model: the residual per-query work the artifact cannot cover — the
// degree permutation for per-vertex remaps (OrientedCsr stores no
// permutation, and the LOTUSPA1 spill format must not change to carry one)
// — lands in preprocess_s (traced as a "preprocess" leaf). The traversals
// land in count_s, the truss peel's index or merge lists included: it reads
// the oriented CSR alone. The artifact build is timed by the caller, which
// keeps the Engine's cache-amortization metrics honest: a cache hit removes
// exactly the artifact build, never the residual.
//
// Error model: budget vetoes surface as bad_alloc (execute_query's
// degradation retry applies — the substrate switches, the analytic stays);
// cancellation/deadline are polled inside every traversal and execute_query's
// re-check of the latched interrupt clears any partial payload.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "analytics/clustering.hpp"
#include "analytics/ktruss.hpp"
#include "graph/degree_order.hpp"
#include "lotus/local.hpp"
#include "lotus/lotus_graph.hpp"
#include "mining/vertex_miner.hpp"
#include "tc/api.hpp"
#include "tc/prepared.hpp"
#include "util/timer.hpp"

namespace lotus::tc::detail {

using graph::VertexId;

RunResult run_analytic(Algorithm algorithm, const graph::CsrGraph& graph,
                       const QueryOptions& options,
                       const PreparedGraph& prepared,
                       obs::PhaseTracer* trace) {
  const AnalyticsRequest& request = options.analytic;
  if (request.kind == AnalyticKind::kTriangles)
    throw std::logic_error("run_analytic called for kTriangles");
  const bool full = request.granularity == OutputGranularity::kFull;

  RunResult out;
  out.analytics.kind = request.kind;
  out.analytics.k = request.kind == AnalyticKind::kKClique ? request.k : 3;

  // Substrate choice. The per-vertex analytics honour a LOTUS algorithm
  // (adaptive arrives already resolved); the DAG-only analytics always run
  // over the oriented CSR.
  const bool per_vertex = request.kind == AnalyticKind::kLocalCounts ||
                          request.kind == AnalyticKind::kClustering;
  const bool lotus_substrate = per_vertex && algorithm == Algorithm::kLotus;
  if (trace != nullptr) {
    trace->note("analytic", analytic_name(request.kind));
    trace->note("substrate", lotus_substrate ? "lotus" : "oriented");
  }

  // Borrow the substrate from the artifact; time the residual work it does
  // not carry.
  const core::LotusGraph* lg = nullptr;
  const graph::OrientedCsr* oriented = nullptr;
  std::vector<VertexId> perm;  // degree-descending permutation

  if (lotus_substrate) {
    lg = prepared.lotus();
    if (lg == nullptr)
      throw std::invalid_argument(
          "prepared artifact lacks the LotusGraph required by " +
          name(algorithm));
  } else {
    oriented = prepared.oriented();
    if (oriented == nullptr)
      throw std::invalid_argument(
          "prepared artifact lacks the oriented CSR required by " +
          name(algorithm));
    if (per_vertex) {
      util::Timer timer;
      perm = graph::degree_descending_permutation(graph);
      out.preprocess_s += timer.elapsed_s();
    }
  }

  util::Timer count_timer;
  switch (request.kind) {
    case AnalyticKind::kKClique: {
      // Hubs are the ceil(hub_fraction · n) lowest oriented IDs (at least
      // one); validate() has already rejected k < 3.
      const auto hub_count = static_cast<VertexId>(std::max(
          1.0, std::ceil(request.hub_fraction * oriented->num_vertices())));
      const mining::CliqueCensus census =
          mining::count_cliques(*oriented, request.k, hub_count);
      out.analytics.count = census.cliques;
      out.analytics.hub_count = census.hub_cliques;
      // The TC adapter: k = 3 *is* the triangle census.
      out.triangles = request.k == 3 ? census.cliques : 0;
      break;
    }
    case AnalyticKind::kKTruss: {
      analytics::KTrussResult truss = analytics::ktruss_prepared(*oriented);
      if (trace != nullptr)
        trace->note("truss_triangles", truss.indexed ? "index" : "merge");
      out.analytics.truss.max_k = truss.max_k;
      out.analytics.truss.edges_in_max_truss = truss.edges_in_max_truss;
      if (full) out.analytics.edge_trussness = std::move(truss.trussness);
      break;
    }
    case AnalyticKind::kLocalCounts:
    case AnalyticKind::kClustering: {
      std::vector<std::uint64_t> counts =
          lotus_substrate
              ? core::count_triangles_local_prepared(*lg, options.config)
              : analytics::local_triangle_counts_prepared(*oriented, perm);
      const std::uint64_t corner_sum =
          std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
      if (request.kind == AnalyticKind::kLocalCounts) {
        out.analytics.count = corner_sum / 3;
        out.triangles = out.analytics.count;
        if (full) out.analytics.vertex_counts = std::move(counts);
      } else {
        const analytics::TransitivitySummary summary =
            analytics::transitivity_from_counts(graph, counts);
        out.analytics.count = summary.triangles;
        out.triangles = summary.triangles;
        out.analytics.clustering.wedges = summary.wedges;
        out.analytics.clustering.global_transitivity =
            summary.global_transitivity;
        out.analytics.clustering.avg_clustering = summary.avg_clustering;
        if (full)
          out.analytics.vertex_coefficients =
              analytics::coefficients_from_counts(graph, counts);
      }
      break;
    }
    case AnalyticKind::kTriangles:
      break;  // unreachable (guarded above)
  }
  out.count_s = count_timer.elapsed_s();

  if (trace != nullptr) {
    if (out.preprocess_s > 0.0) trace->leaf("preprocess", out.preprocess_s);
    trace->leaf("count", out.count_s);
  }
  return out;
}

}  // namespace lotus::tc::detail
