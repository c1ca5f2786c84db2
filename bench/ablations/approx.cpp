#include "bench/ablations/approx.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "baselines/tc_baselines.hpp"
#include "graph/builder.hpp"
#include "graph/degree_order.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

namespace lotus::ablation {

using graph::CsrGraph;
using graph::VertexId;

ApproxResult doulion(const CsrGraph& graph, double keep_probability,
                     std::uint64_t seed) {
  if (keep_probability <= 0.0 || keep_probability > 1.0)
    throw std::invalid_argument("doulion: keep probability must be in (0, 1]");
  util::Timer timer;
  util::Xoshiro256 rng(seed);

  // Sparsify undirected edges (each kept/dropped once, both directions).
  graph::EdgeList kept;
  kept.num_vertices = graph.num_vertices();
  for (VertexId v = 0; v < graph.num_vertices(); ++v)
    for (VertexId u : graph.neighbors(v))
      if (u < v && rng.next_double() < keep_probability)
        kept.edges.push_back({u, v});

  const CsrGraph sparse = graph::build_undirected(kept);
  const auto count = baselines::forward_merge_prepared(
      graph::degree_ordered_oriented(sparse), /*vectorize=*/true);

  ApproxResult out;
  const double p3 = keep_probability * keep_probability * keep_probability;
  out.estimated_triangles = static_cast<double>(count) / p3;
  // Per-triangle survival is Bernoulli(p^3): relative stderr ≈
  // sqrt((1−p^3)/(T·p^3)) with T approximated by the estimate itself.
  if (out.estimated_triangles > 0)
    out.relative_stderr =
        std::sqrt((1.0 - p3) / (out.estimated_triangles * p3));
  out.elapsed_s = timer.elapsed_s();
  return out;
}

ApproxResult wedge_sampling(const CsrGraph& graph, std::uint64_t samples,
                            std::uint64_t seed) {
  if (samples == 0) throw std::invalid_argument("wedge_sampling: need samples > 0");
  util::Timer timer;
  util::Xoshiro256 rng(seed);
  const VertexId n = graph.num_vertices();

  // Cumulative wedge counts for centre-vertex sampling ∝ C(d, 2).
  std::vector<double> cumulative(static_cast<std::size_t>(n) + 1, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    const double d = graph.degree(v);
    cumulative[v + 1] = cumulative[v] + d * (d - 1) / 2.0;
  }
  const double total_wedges = cumulative.back();
  ApproxResult out;
  if (total_wedges == 0) {
    out.elapsed_s = timer.elapsed_s();
    return out;
  }

  std::uint64_t closed = 0;
  for (std::uint64_t s = 0; s < samples; ++s) {
    const double target = rng.next_double() * total_wedges;
    const auto centre = static_cast<VertexId>(
        std::upper_bound(cumulative.begin(), cumulative.end(), target) -
        cumulative.begin() - 1);
    auto ns = graph.neighbors(centre);
    const auto i = rng.next_below(ns.size());
    auto j = rng.next_below(ns.size() - 1);
    if (j >= i) ++j;  // distinct pair, uniform
    const VertexId a = ns[i], b = ns[j];
    auto na = graph.neighbors(a);
    closed += std::binary_search(na.begin(), na.end(), b) ? 1u : 0u;
  }

  const double closure = static_cast<double>(closed) / static_cast<double>(samples);
  // Every triangle closes exactly 3 wedges.
  out.estimated_triangles = closure * total_wedges / 3.0;
  if (closed > 0)
    out.relative_stderr =
        std::sqrt((1.0 - closure) / static_cast<double>(closed));
  out.elapsed_s = timer.elapsed_s();
  return out;
}

}  // namespace lotus::ablation
