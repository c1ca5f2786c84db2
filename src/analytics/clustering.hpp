// Graph-mining analytics built on triangle counting: per-vertex triangle
// counts, local clustering coefficients, and global transitivity. These are
// the downstream uses the paper's introduction motivates (community
// structure, social-capital metrics, motif analysis).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace lotus::analytics {

struct TransitivitySummary {
  std::uint64_t triangles = 0;       // distinct triangles
  std::uint64_t wedges = 0;          // paths of length 2 (open + closed)
  double global_transitivity = 0.0;  // 3·triangles / wedges
  double avg_clustering = 0.0;       // mean local coefficient
};

/// Per-vertex counts over a prebuilt degree-ordered oriented CSR (the cached
/// artifact, see tc/analytics_exec.cpp) by the positional Forward walk
/// (mining/triangle_walk.hpp); `new_id[v]` is v's ID in it (the
/// degree-descending permutation), and results are indexed by ORIGINAL ID.
/// Charges the per-vertex arrays against the active memory budget.
std::vector<std::uint64_t> local_triangle_counts_prepared(
    const graph::OrientedCsr& oriented,
    const std::vector<graph::VertexId>& new_id);

/// Coefficients from precomputed per-vertex counts (indexed by original ID).
std::vector<double> coefficients_from_counts(
    const graph::CsrGraph& graph, const std::vector<std::uint64_t>& triangles);

/// Transitivity summary from precomputed per-vertex counts.
TransitivitySummary transitivity_from_counts(
    const graph::CsrGraph& graph, const std::vector<std::uint64_t>& triangles);

}  // namespace lotus::analytics
