// Test oracles shared by the unit, analytics and sanitizer suites:
// LotusGraph::build, the per-vertex triangle counts and the truss
// decomposition, plus the budget that forces the truss peel's merge source.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "analytics/ktruss.hpp"
#include "graph/csr.hpp"
#include "lotus/lotus_graph.hpp"
#include "lotus/relabel.hpp"
#include "tc/api.hpp"
#include "util/memory_budget.hpp"

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

struct TrussOracle {
  std::uint32_t max_k = 0;
  std::uint64_t edges_in_max_truss = 0;
  /// trussness value -> number of edges (order-invariant form).
  std::map<std::uint32_t, std::uint64_t> histogram;
};

/// Textbook peeling over adjacency sets: for rising k, delete every edge
/// with fewer than k − 2 triangles, re-examining the edges that shared a
/// triangle with a deleted one, until none is left below; an edge deleted
/// at level k has trussness k − 1. Supports are common-neighbour counts
/// kept in a map and decremented per deleted triangle.
inline TrussOracle truss_oracle(const graph::CsrGraph& graph) {
  using graph::VertexId;
  using Edge = std::pair<VertexId, VertexId>;
  const auto key = [](VertexId a, VertexId b) {
    return Edge{std::min(a, b), std::max(a, b)};
  };
  std::vector<std::set<VertexId>> adj(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v)
    for (const VertexId u : graph.neighbors(v)) adj[v].insert(u);
  // Visit each w adjacent to both a and b, scanning the smaller set.
  const auto for_common = [&](VertexId a, VertexId b, const auto& fn) {
    const auto& small = adj[a].size() <= adj[b].size() ? adj[a] : adj[b];
    const auto& large = adj[a].size() <= adj[b].size() ? adj[b] : adj[a];
    for (const VertexId w : small)
      if (large.count(w) != 0) fn(w);
  };
  std::map<Edge, std::uint64_t> support;  // the edges still alive
  for (VertexId v = 0; v < graph.num_vertices(); ++v)
    for (const VertexId u : adj[v]) {
      if (u >= v) break;
      std::uint64_t& s = support[{u, v}];
      for_common(u, v, [&](VertexId) { ++s; });
    }

  TrussOracle oracle;
  for (std::uint32_t k = 3; !support.empty(); ++k) {
    std::vector<Edge> doomed;
    for (const auto& [edge, s] : support)
      if (s < k - 2) doomed.push_back(edge);
    while (!doomed.empty()) {
      const auto [u, v] = doomed.back();
      doomed.pop_back();
      if (support.erase({u, v}) == 0) continue;  // queued twice
      oracle.histogram[k - 1] += 1;
      adj[u].erase(v);
      adj[v].erase(u);
      for_common(u, v, [&](VertexId w) {
        for (const Edge other : {key(u, w), key(v, w)})
          if (--support[other] < k - 2) doomed.push_back(other);
      });
    }
    if (!support.empty()) {
      oracle.max_k = k;
      oracle.edges_in_max_truss = support.size();
    }
  }
  return oracle;
}

/// Budget bytes that admit analytics::ktruss_prepared's edge state on
/// `oriented` but not its triangle index: one byte short of what the
/// indexed peel charges, so the peel takes its triangles from the merge
/// lists — which fit wherever they are smaller than the index (more than
/// about (m + 2n) / 6 triangles). The charge includes the walks' per-thread
/// position rows, so the budget holds at the current
/// parallel::num_threads().
inline std::uint64_t merge_forcing_budget(const graph::OrientedCsr& oriented) {
  util::MemoryBudget accounting;  // limit 0: counts, never refuses
  util::ScopedMemoryBudget scoped(&accounting);
  (void)analytics::ktruss_prepared(oriented);
  return accounting.used() - 1;
}

/// Two lists whose positional-merge block stores reach furthest past the
/// hits: all but the last element of the short list's final 8-entry block
/// match in one block of the long list, which then runs on for `extra`
/// blocks below that last element. Each of those blocks stores 8 lanes from
/// slot min(|a|, |b|) - 1, up to min(|a|, |b|) + 7.
inline std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
merge_store_bound_lists(std::uint32_t short_blocks, std::uint32_t extra) {
  std::vector<std::uint32_t> a;
  for (std::uint32_t i = 0; i + 1 < 8 * short_blocks; ++i) a.push_back(2 * i);
  std::vector<std::uint32_t> b = a;
  a.push_back(1u << 30);
  b.push_back(2 * (8 * short_blocks - 1));  // in a's last block, no match
  for (std::uint32_t i = 0; i < 8 * extra; ++i) b.push_back((1u << 20) + i);
  return {a, b};
}

/// Budget bytes one byte short of what a local-counts query on `algorithm`
/// charges. Its last charge is the per-thread position rows of the triangle
/// walk (mining::ForwardWalk), so under this budget the credit rows and
/// everything before them fit and the walk's scratch does not. The query
/// runs with memory_budget_bytes = 0, so it charges the budget installed
/// here; taken at the current parallel::num_threads().
inline std::uint64_t walk_forcing_budget(tc::Algorithm algorithm,
                                         const graph::CsrGraph& graph) {
  util::MemoryBudget accounting;  // limit 0: counts, never refuses
  util::ScopedMemoryBudget scoped(&accounting);
  tc::QueryOptions options;
  options.analytic.kind = tc::AnalyticKind::kLocalCounts;
  (void)tc::query(algorithm, graph, options);
  return accounting.used() - 1;
}

}  // namespace lotus::test
