#include "analytics/ktruss.hpp"

#include <algorithm>
#include <atomic>

#include "baselines/intersect.hpp"
#include "mining/triangle_walk.hpp"
#include "parallel/exec_context.hpp"
#include "util/memory_budget.hpp"

namespace lotus::analytics {

using graph::CsrGraph;
using graph::OrientedCsr;
using graph::VertexId;

namespace {

/// Peel loop cadence for cancellation/deadline polls: the loop is sequential
/// (the bucket queue is inherently ordered), so it polls the installed
/// ExecContext itself instead of relying on parallel_for.
constexpr std::uint64_t kPeelPollInterval = 2048;

/// Index of oriented edge (a, b) with a < b in the flattened (by b) order;
/// b's list is sorted so the position is a binary search.
std::uint64_t edge_id(const OrientedCsr& oriented, VertexId a, VertexId b) {
  auto nb = oriented.neighbors(b);
  const auto it = std::lower_bound(nb.begin(), nb.end(), a);
  return oriented.offset(b) + static_cast<std::uint64_t>(it - nb.begin());
}

}  // namespace

KTrussResult ktruss_prepared(const CsrGraph& graph,
                             const OrientedCsr& oriented) {
  KTrussResult result;
  const std::uint64_t m = oriented.num_edges();
  if (m == 0) return result;

  // Per-edge state: trussness + endpoints + support + alive ≈ 24 bytes/edge,
  // plus bucket-queue entries (8 bytes/edge amortised). Charge before the
  // first allocation so budgeted queries degrade instead of dying mid-build.
  util::charge_current(m * 32, "ktruss/edge-state");
  result.trussness.assign(m, 0);

  // Edge e = (u, v), u < v, in flattened order: u is the neighbour-array
  // entry itself, v the list it sits in.
  const auto& edge_u = oriented.neighbor_array();
  std::vector<VertexId> edge_v(m);
  for (VertexId v = 0; v < oriented.num_vertices(); ++v)
    for (std::uint64_t e = oriented.offset(v); e < oriented.offset(v + 1); ++e)
      edge_v[e] = v;

  // Initial supports via one positional Forward walk: the flat positions of
  // each triangle's edges (u,v), (w,v) and (w,u) are their edge IDs.
  // Relaxed atomic increments — counts only, no ordering needed.
  std::vector<std::atomic<std::uint32_t>> support_atomic(m);
  mining::forward_walk(oriented, [&](unsigned, VertexId, VertexId, VertexId,
                                     std::uint64_t e_uv, std::uint64_t e_wv,
                                     std::uint64_t e_wu) {
    support_atomic[e_uv].fetch_add(1, std::memory_order_relaxed);
    support_atomic[e_wv].fetch_add(1, std::memory_order_relaxed);
    support_atomic[e_wu].fetch_add(1, std::memory_order_relaxed);
  });
  if (parallel::interrupted()) return result;  // partial: all-zero trussness

  std::vector<std::uint32_t> support(m);
  std::uint32_t max_support = 0;
  for (std::uint64_t e = 0; e < m; ++e) {
    support[e] = support_atomic[e].load(std::memory_order_relaxed);
    max_support = std::max(max_support, support[e]);
  }
  support_atomic.clear();
  support_atomic.shrink_to_fit();

  // Bucket queue keyed by support; peel in non-decreasing support order.
  std::vector<std::vector<std::uint64_t>> buckets(max_support + 1);
  for (std::uint64_t e = 0; e < m; ++e) buckets[support[e]].push_back(e);
  std::vector<bool> alive(m, true);
  std::uint64_t removed = 0;
  std::uint64_t since_poll = 0;
  std::uint32_t current = 0;  // current peeling threshold (support floor)

  while (removed < m) {
    if (++since_poll >= kPeelPollInterval) {
      since_poll = 0;
      if (parallel::interrupted()) return result;  // partial decomposition
    }
    // Find the next non-empty bucket at or below every edge's support.
    while (current <= max_support && buckets[current].empty()) ++current;
    if (current > max_support) break;
    const std::uint64_t e = buckets[current].back();
    buckets[current].pop_back();
    if (!alive[e] || support[e] != current) continue;  // stale entry

    alive[e] = false;
    ++removed;
    result.trussness[e] = current + 2;
    result.max_k = std::max(result.max_k, current + 2);

    // Decrement the supports of the two other edges of every surviving
    // triangle through e.
    const VertexId a = edge_u[e], b = edge_v[e];
    const auto na = graph.neighbors(a);
    baselines::intersect_merge<VertexId>(
        na, graph.neighbors(b), baselines::null_probe,
        [&](std::size_t i, std::size_t) {
          const VertexId w = na[i];
          const std::uint64_t e1 = edge_id(oriented, std::min(w, a), std::max(w, a));
          const std::uint64_t e2 = edge_id(oriented, std::min(w, b), std::max(w, b));
          if (!alive[e1] || !alive[e2]) return;
          for (std::uint64_t other : {e1, e2}) {
            if (support[other] > current) {
              --support[other];
              buckets[support[other]].push_back(other);
            }
          }
        });
    // New bucket entries are always >= current (supports are floored at the
    // threshold), so the scan never needs to move backwards.
  }

  for (std::uint64_t e = 0; e < m; ++e)
    result.edges_in_max_truss += result.trussness[e] == result.max_k ? 1u : 0u;
  return result;
}

}  // namespace lotus::analytics
