// Test oracles shared by the unit and sanitizer suites: LotusGraph::build
// and the per-vertex triangle counts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "lotus/lotus_graph.hpp"
#include "lotus/relabel.hpp"

namespace lotus::test {

// Reference build: Alg. 2 in its plainest form. One serial pass classifies
// every lower neighbour, std::sorts each list and sets one H2H bit per
// hub-hub edge. LotusGraph::build must match it array for array.
inline core::LotusGraph reference_build(const graph::CsrGraph& input,
                                        const core::LotusConfig& config) {
  const graph::VertexId n = input.num_vertices();
  const graph::VertexId hubs = config.resolve_hub_count(n);
  std::vector<graph::VertexId> new_id = core::create_relabeling_array(
      input, config.resolve_reorder_count(n, hubs));
  std::vector<graph::VertexId> old_of_new(n);
  for (graph::VertexId v = 0; v < n; ++v) old_of_new[new_id[v]] = v;
  std::vector<std::uint64_t> he_offsets{0}, nhe_offsets{0};
  std::vector<std::uint16_t> he;
  std::vector<graph::VertexId> nhe;
  core::TriangularBitArray h2h(hubs);
  for (graph::VertexId v = 0; v < n; ++v) {
    for (const graph::VertexId u_old : input.neighbors(old_of_new[v])) {
      const graph::VertexId u = new_id[u_old];
      if (u >= v) continue;  // upper neighbour or self-edge
      if (u < hubs) {
        he.push_back(static_cast<std::uint16_t>(u));
        if (v < hubs) h2h.set_atomic(v, u);
      } else {
        nhe.push_back(u);
      }
    }
    std::sort(he.begin() + static_cast<std::ptrdiff_t>(he_offsets.back()), he.end());
    std::sort(nhe.begin() + static_cast<std::ptrdiff_t>(nhe_offsets.back()), nhe.end());
    he_offsets.push_back(he.size());
    nhe_offsets.push_back(nhe.size());
  }
  return core::LotusGraph::from_parts(
      hubs, std::move(h2h), graph::Csr16(std::move(he_offsets), std::move(he)),
      graph::CsrGraph(std::move(nhe_offsets), std::move(nhe)), std::move(new_id));
}

/// Triangles through each vertex over the full symmetric lists: N(v) is
/// marked, then every w > u in N(u) for u > v in N(v) is looked up, so each
/// triangle v < u < w is credited once to each corner. The cost is
/// Σ_v Σ_{u ∈ N(v)} deg(u), not the deg(v)² of a merge per pair, so whale
/// graphs with tens of thousands of leaves stay cheap.
inline std::vector<std::uint64_t> local_counts_oracle(
    const graph::CsrGraph& graph) {
  std::vector<std::uint64_t> counts(graph.num_vertices(), 0);
  std::vector<char> in_nv(graph.num_vertices(), 0);
  for (graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
    const auto nv = graph.neighbors(v);
    for (const graph::VertexId u : nv) in_nv[u] = 1;
    for (const graph::VertexId u : nv) {
      if (u <= v) continue;
      for (const graph::VertexId w : graph.neighbors(u)) {
        if (w <= u || in_nv[w] == 0) continue;
        ++counts[v];
        ++counts[u];
        ++counts[w];
      }
    }
    for (const graph::VertexId u : nv) in_nv[u] = 0;
  }
  return counts;
}

}  // namespace lotus::test
