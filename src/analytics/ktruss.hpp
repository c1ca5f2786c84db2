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
  /// Triangles came from the index (false: from the merge lists).
  bool indexed = false;
};

/// Bytes of one edge ID in a graph of `m` edges (the peel's queue and the
/// merge lists); the triangle index needs 4.
[[nodiscard]] constexpr unsigned edge_id_bytes(std::uint64_t m) noexcept {
  return m < (std::uint64_t{1} << 32) ? 4 : 8;
}

/// Batagelj–Zaversnik peel over an oriented CSR (each vertex lists its
/// lower neighbours ascending: `orient_by_id(graph)`, or the Engine's
/// degree-ordered artifact). Supports come from a positional Forward walk;
/// each triangle dies once, when its first edge is peeled. Its edges come
/// from a per-edge triangle index (24 B/triangle + 4 B/edge, filled by a
/// second walk) when the budget admits it and the IDs fit 32 bits, else
/// from a merge of the endpoints' symmetric lists; both give the same
/// decomposition. `trussness` follows the flattened oriented edge order.
/// Polls the installed ExecContext (an interrupt returns a partial result
/// the caller must discard) and charges the memory budget first.
KTrussResult ktruss_prepared(const graph::OrientedCsr& oriented);

}  // namespace lotus::analytics
