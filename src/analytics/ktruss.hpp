// k-truss decomposition — the canonical downstream consumer of triangle
// counting (community cores): the k-truss is the maximal subgraph in which
// every edge participates in at least k−2 triangles.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace lotus::analytics {

struct KTrussResult {
  /// trussness[e] for the oriented edge order (v, u<v) flattened by v: the
  /// largest k such that edge e survives in the k-truss.
  std::vector<std::uint32_t> trussness;
  std::uint32_t max_k = 0;            // largest non-empty truss
  std::uint64_t edges_in_max_truss = 0;
};

/// Peeling decomposition over a prebuilt orientation of `graph` (support
/// recomputation is O(triangles) per peel level). `oriented` must be
/// an orientation of `graph` in the SAME vertex-ID space (each vertex lists
/// its lower-ID neighbours) — e.g. `orient_by_id(graph)` or, for the
/// Engine-served analytic, a cached degree-ordered artifact paired with the
/// correspondingly relabeled graph. `trussness` is indexed by the flattened
/// oriented edge order of `oriented`; summary fields (`max_k`,
/// `edges_in_max_truss`) are independent of edge order. Polls the installed
/// ExecContext (cancellation/deadline ⇒ returns a partial decomposition the
/// caller must discard) and charges edge state against the memory budget.
KTrussResult ktruss_prepared(const graph::CsrGraph& graph,
                             const graph::OrientedCsr& oriented);

}  // namespace lotus::analytics
