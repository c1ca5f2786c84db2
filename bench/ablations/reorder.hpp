// Graph reordering algorithms and locality metrics (Sec. 6.5 context), for
// the ordering ablation (bench/ablation_ordering.cpp).
//
// The LOTUS relabeling preserves the input order of non-hub vertices
// because full degree ordering is known to destroy the spatial locality
// that crawl/LLP orderings provide (Sec. 4.3.1, [44]). This module supplies
// the orderings needed to study that effect, plus the gap-based locality
// metrics that quantify it.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace lotus::ablation {

enum class Ordering {
  kOriginal,    // identity
  kRandom,      // destroys all locality (worst case)
  kDegreeDesc,  // classical degree ordering (Forward's preprocessing)
  kBfs,         // breadth-first from the max-degree vertex; community-local
  kDfs,         // depth-first; path-local
};

/// Permutation new_id[old_id] for the requested ordering. Deterministic for
/// a given (graph, seed).
std::vector<graph::VertexId> make_ordering(const graph::CsrGraph& graph,
                                           Ordering ordering,
                                           std::uint64_t seed = 1);

[[nodiscard]] const char* ordering_name(Ordering ordering);
[[nodiscard]] std::vector<Ordering> all_orderings();

/// Mean |v − u| over all adjacency entries: small when neighbours have
/// nearby IDs (spatial locality).
double average_neighbor_gap(const graph::CsrGraph& graph);

// The gap of a neighbour list is its first ID, then (next − previous − 1)
// between consecutive neighbours. Both gap metrics below require strictly
// ascending lists and throw std::invalid_argument otherwise, since a
// descending pair would wrap its gap.

/// Mean log2(1 + gap) over all adjacency entries — the bit cost a gap coder
/// pays per edge, i.e. a compression-friendliness proxy.
double log_gap_cost_bits(const graph::CsrGraph& graph);

/// Bytes of the WebGraph-style gap + varint encoding of `graph` (the format
/// the paper's web datasets ship in [18]): one 8-byte offset per vertex plus
/// one, and each gap as a little-endian base-128 varint (7 bits per byte).
std::uint64_t gap_varint_bytes(const graph::CsrGraph& graph);

}  // namespace lotus::ablation
