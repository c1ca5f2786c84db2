#include "graph/stats.hpp"

#include <algorithm>
#include <cmath>

#include "graph/builder.hpp"
#include "graph/degree_order.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/padded.hpp"
#include "util/prng.hpp"

namespace lotus::graph {

std::vector<std::uint32_t> degrees(const CsrGraph& graph) {
  std::vector<std::uint32_t> out(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) out[v] = graph.degree(v);
  return out;
}

DegreeStats degree_stats(const CsrGraph& graph, std::uint64_t sample_seed) {
  DegreeStats stats;
  const VertexId n = graph.num_vertices();
  if (n == 0) return stats;

  stats.min_degree = graph.degree(0);
  for (VertexId v = 0; v < n; ++v) {
    const std::uint32_t d = graph.degree(v);
    stats.min_degree = std::min(stats.min_degree, d);
    stats.max_degree = std::max(stats.max_degree, d);
  }
  stats.avg_degree = static_cast<double>(graph.num_edges()) / n;

  // Fixed-size degree sample, as in GAP's WorthRelabelling heuristic.
  constexpr std::size_t kSamples = 1000;
  util::Xoshiro256 rng(sample_seed);
  std::vector<std::uint32_t> sample(kSamples);
  for (auto& s : sample)
    s = graph.degree(static_cast<VertexId>(rng.next_below(n)));
  std::nth_element(sample.begin(), sample.begin() + kSamples / 2, sample.end());
  stats.sampled_median_degree = sample[kSamples / 2];
  return stats;
}

HubStats hub_stats(const CsrGraph& graph, double hub_fraction) {
  HubStats stats;
  const VertexId n = graph.num_vertices();
  if (n == 0) return stats;

  const auto hub_count = static_cast<VertexId>(
      std::max<double>(1.0, std::ceil(hub_fraction * n)));
  stats.hub_count = hub_count;

  // After degree-descending relabeling, vertex v is a hub iff v < hub_count.
  const OrientedCsr oriented = degree_ordered_oriented(graph);

  // --- Edge classes (Table 1 columns 2-5). Each oriented entry (v, u<v) is
  // one undirected edge.
  std::uint64_t h2h = 0, h2n = 0, n2n = 0;
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u : oriented.neighbors(v)) {
      if (v < hub_count)
        ++h2h;  // u < v so u is a hub too
      else if (u < hub_count)
        ++h2n;
      else
        ++n2n;
    }
  }
  const auto total_edges = static_cast<double>(oriented.num_edges());
  if (total_edges > 0) {
    stats.hub_to_hub_edges_pct = 100.0 * static_cast<double>(h2h) / total_edges;
    stats.hub_to_nonhub_edges_pct = 100.0 * static_cast<double>(h2n) / total_edges;
    stats.hub_edges_total_pct = stats.hub_to_hub_edges_pct + stats.hub_to_nonhub_edges_pct;
    stats.nonhub_edges_pct = 100.0 * static_cast<double>(n2n) / total_edges;
  }

  // --- Relative density of the hub sub-graph (Sec. 3.4).
  const double rd_num = static_cast<double>(h2h) /
                        (static_cast<double>(hub_count) * hub_count);
  const double rd_den = total_edges / (static_cast<double>(n) * n);
  stats.relative_density_hubs = rd_den > 0 ? rd_num / rd_den : 0.0;

  // --- Triangle enumeration with merge join (Forward algorithm), tracking:
  //   * hub triangles: the smallest vertex of a triangle decides hubness
  //     (ids are degree-ranked, so w < u < v makes w the only candidate);
  //   * fruitless accesses (Sec. 3.3): elements read during intersections of
  //     vertices v with no hub neighbour, where the element is a hub ID.
  struct Partial {
    std::uint64_t triangles = 0;
    std::uint64_t hub_triangles = 0;
    std::uint64_t hubless_accesses = 0;  // accesses while processing hub-free vertices
    std::uint64_t fruitless = 0;         // ...of which point at hub edges
  };
  std::vector<parallel::Padded<Partial>> partials(parallel::num_threads());

  parallel::parallel_for(0, n, 256,
      [&](unsigned thread_index, std::uint64_t b, std::uint64_t e) {
        Partial& p = partials[thread_index].value;
        for (std::uint64_t vi = b; vi < e; ++vi) {
          const auto v = static_cast<VertexId>(vi);
          auto nv = oriented.neighbors(v);
          // Lists are sorted, so "no hub neighbour" = first entry not a hub.
          const bool v_hubless = nv.empty() || nv.front() >= hub_count;
          const bool track_fruitless = v >= hub_count && v_hubless;
          for (VertexId u : nv) {
            auto nu = oriented.neighbors(u);
            std::size_t i = 0, j = 0;
            while (i < nv.size() && j < nu.size()) {
              if (track_fruitless) ++p.hubless_accesses;
              if (nv[i] < nu[j]) {
                ++i;
              } else if (nv[i] > nu[j]) {
                if (track_fruitless && nu[j] < hub_count) ++p.fruitless;
                ++j;
              } else {
                ++p.triangles;
                if (nv[i] < hub_count) ++p.hub_triangles;
                ++i;
                ++j;
              }
            }
          }
        }
      });

  Partial total;
  for (const auto& p : partials) {
    total.triangles += p.value.triangles;
    total.hub_triangles += p.value.hub_triangles;
    total.hubless_accesses += p.value.hubless_accesses;
    total.fruitless += p.value.fruitless;
  }
  stats.total_triangles = total.triangles;
  if (total.triangles > 0)
    stats.hub_triangles_pct =
        100.0 * static_cast<double>(total.hub_triangles) / static_cast<double>(total.triangles);
  if (total.hubless_accesses > 0)
    stats.fruitless_searches_pct = 100.0 * static_cast<double>(total.fruitless) /
                                   static_cast<double>(total.hubless_accesses);
  return stats;
}

}  // namespace lotus::graph
