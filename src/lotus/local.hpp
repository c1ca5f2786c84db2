// Per-vertex (local) triangle counting through the LOTUS phases.
//
// Local triangle counts drive the clustering-coefficient and local-motif
// analyses the paper's introduction motivates [11, 12]. This runs the same
// three locality-optimized phases as the scalar counter, crediting all
// three corners of every discovered triangle.
#pragma once

#include <cstdint>
#include <vector>

namespace lotus::core {

class LotusGraph;

/// Triangles through each vertex of an already-built LotusGraph — the
/// kernel behind the kLocalCounts/kClustering analytics on the lotus
/// substrate, so a cached ArtifactKind::kLotus artifact is shared with scalar
/// LOTUS counting. Output is indexed by ORIGINAL vertex ID (remapped via
/// lg.relabeling()); the sum over all vertices is 3 × the triangle count.
/// Charges the per-vertex output against the active memory budget.
std::vector<std::uint64_t> count_triangles_local_prepared(const LotusGraph& lg);

}  // namespace lotus::core
