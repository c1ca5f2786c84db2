#include "analytics/clustering.hpp"

#include "mining/triangle_walk.hpp"
#include "util/memory_budget.hpp"

namespace lotus::analytics {

using graph::CsrGraph;
using graph::VertexId;

std::vector<std::uint64_t> local_triangle_counts_prepared(
    const graph::OrientedCsr& oriented, const std::vector<VertexId>& new_id) {
  mining::CornerCredits credits(oriented.num_vertices(),
                                "clustering/per-vertex-counts");
  mining::ForwardWalk walk(oriented, /*report_u=*/false,
                           "clustering/walk-positions");
  walk.run([&](unsigned thread, VertexId v, VertexId u,
               const mining::PairHits& hits) {
    const VertexId* nv = oriented.neighbors(v).data();
    credits.add(thread, v, u, hits.count,
                [&](std::uint64_t k) { return nv[hits.at_v[k]]; });
  });
  return credits.by_original(new_id);
}

namespace {

/// t / C(d, 2), and 0 below degree 2.
double coefficient(std::uint64_t d, std::uint64_t t) {
  return d < 2 ? 0.0
               : 2.0 * static_cast<double>(t) /
                     (static_cast<double>(d) * static_cast<double>(d - 1));
}

}  // namespace

std::vector<double> coefficients_from_counts(
    const CsrGraph& graph, const std::vector<std::uint64_t>& triangles) {
  const VertexId n = graph.num_vertices();
  util::charge_current(static_cast<std::uint64_t>(n) * sizeof(double),
                       "clustering/coefficients");
  std::vector<double> coefficients(n);
  for (VertexId v = 0; v < n; ++v)
    coefficients[v] = coefficient(graph.degree(v), triangles[v]);
  return coefficients;
}

TransitivitySummary transitivity_from_counts(
    const CsrGraph& graph, const std::vector<std::uint64_t>& triangles) {
  TransitivitySummary out;
  const VertexId n = graph.num_vertices();
  std::uint64_t corner_sum = 0;
  double coefficient_sum = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    const std::uint64_t d = graph.degree(v);
    out.wedges += d * (d - 1) / 2;
    corner_sum += triangles[v];
    coefficient_sum += coefficient(d, triangles[v]);
  }
  out.triangles = corner_sum / 3;
  out.global_transitivity =
      out.wedges > 0 ? static_cast<double>(corner_sum) / static_cast<double>(out.wedges) : 0.0;
  out.avg_clustering = n > 0 ? coefficient_sum / n : 0.0;
  return out;
}

}  // namespace lotus::analytics
