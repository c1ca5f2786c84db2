// Per-vertex (local) triangle counting on the LOTUS substrate, for the
// clustering-coefficient and local-motif analyses the paper's introduction
// motivates [11, 12]. The credits come from the counting phases themselves:
// count_hhh_hhn and count_hnn hand a visitor each vertex pair's common hubs,
// and NNN runs the positional Forward walk over NHE
// (mining/triangle_walk.hpp), so a pair's two vertices are credited once per
// pair and only the third vertices once per triangle. Each visit carries the
// pool thread index, so the hub corners — every hub ID is below 65,536 — are
// credited to that thread's private row of mining::CornerCredits, not to a
// cache line shared with the other threads.
#pragma once

#include <cstdint>
#include <vector>

#include "lotus/config.hpp"

namespace lotus::core {

class LotusGraph;

/// Triangles through each vertex of a built LotusGraph (the kLocalCounts /
/// kClustering kernel on the lotus substrate, sharing the kLotus artifact).
/// `config` is the query's: the hub phase runs its squared tiling and
/// work-stealing (a visitor pins the hub phase to its scalar pair probes
/// and HNN to its bitmap step, whatever `config.vectorize` says). Indexed by ORIGINAL vertex ID;
/// sums to 3 × the triangle count. Charges the per-vertex arrays, the
/// per-thread credit rows (threads × min(n, 65,536) × 8 B), the phases' hub
/// rows and, last, the NNN walk's position rows against the active memory
/// budget.
std::vector<std::uint64_t> count_triangles_local_prepared(
    const LotusGraph& lg, const LotusConfig& config);

}  // namespace lotus::core
