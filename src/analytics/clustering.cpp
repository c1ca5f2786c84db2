#include "analytics/clustering.hpp"

#include <atomic>

#include "mining/vertex_miner.hpp"
#include "util/memory_budget.hpp"

namespace lotus::analytics {

using graph::CsrGraph;
using graph::VertexId;

std::vector<std::uint64_t> local_triangle_counts_prepared(
    const graph::OrientedCsr& oriented, const std::vector<VertexId>& new_id) {
  const VertexId n = oriented.num_vertices();
  // Atomic accumulators + the remapped output coexist: charge both.
  util::charge_current(2 * static_cast<std::uint64_t>(n) * sizeof(std::uint64_t),
                       "clustering/per-vertex-counts");
  std::vector<std::atomic<std::uint64_t>> counts(n);  // indexed by NEW id
  mining::for_each_triangle(oriented, [&](VertexId v, VertexId u, VertexId w) {
    counts[v].fetch_add(1, std::memory_order_relaxed);
    counts[u].fetch_add(1, std::memory_order_relaxed);
    counts[w].fetch_add(1, std::memory_order_relaxed);
  });

  std::vector<std::uint64_t> by_original(n);
  for (VertexId v = 0; v < n; ++v)
    by_original[v] = counts[new_id[v]].load(std::memory_order_relaxed);
  return by_original;
}

std::vector<double> coefficients_from_counts(
    const CsrGraph& graph, const std::vector<std::uint64_t>& triangles) {
  const VertexId n = graph.num_vertices();
  util::charge_current(static_cast<std::uint64_t>(n) * sizeof(double),
                       "clustering/coefficients");
  std::vector<double> coefficients(n, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    const std::uint64_t d = graph.degree(v);
    if (d >= 2)
      coefficients[v] = 2.0 * static_cast<double>(triangles[v]) /
                        (static_cast<double>(d) * static_cast<double>(d - 1));
  }
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
    if (d >= 2)
      coefficient_sum += 2.0 * static_cast<double>(triangles[v]) /
                         (static_cast<double>(d) * static_cast<double>(d - 1));
  }
  out.triangles = corner_sum / 3;
  out.global_transitivity =
      out.wedges > 0 ? static_cast<double>(corner_sum) / static_cast<double>(out.wedges) : 0.0;
  out.avg_clustering = n > 0 ? coefficient_sum / n : 0.0;
  return out;
}

}  // namespace lotus::analytics
