// LOTUS relabeling (Sec. 4.3.1).
//
// The first consecutive IDs go to the highest-degree vertices — at least the
// hubs, and by default the top 10% — sorted by descending degree, ties by
// lower original ID. All other vertices keep their original relative order,
// preserving whatever locality the input ordering had (full degree ordering
// is known to destroy it).
//
// The output is exactly that of a stable descending-degree sort of all V
// vertices, but it is computed in parallel and only the reordered block is
// ever sorted: a parallel degree histogram finds the degree of the k-th
// vertex (the cutoff), the k selected vertices — everything above the cutoff
// plus the lowest-ID vertices at it — are counting-sorted by degree, and the
// rest take their IDs from a parallel prefix sum over vertex blocks. Degrees
// at or above kRelabelHistogramCap share one overflow bucket and are resolved
// from a list of just those vertices, so scratch stays O(V + threads · cap)
// even on a star graph.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace lotus::core {

/// Degrees below this get their own histogram bucket; larger ones overflow.
inline constexpr std::uint32_t kRelabelHistogramCap = 1024;

/// Vertices per block of the prefix-sum passes: the unit of parallel work
/// and of the two per-block counters.
inline constexpr std::uint64_t kRelabelBlock = 1u << 14;

/// Returns new_id[old_id]. `reorder_count` vertices get degree-sorted front
/// IDs; callers pass LotusConfig::resolve_reorder_count. Charges its
/// buffers to the current memory budget (site "relabel_buffers"). If the
/// query is interrupted mid-way the array is partial; the caller discards it.
std::vector<graph::VertexId> create_relabeling_array(const graph::CsrGraph& graph,
                                                     graph::VertexId reorder_count);

}  // namespace lotus::core
