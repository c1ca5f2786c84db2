// The two rejected HNN alternatives, for the fusion and HNN-blocking
// ablations (bench/ablation_fusion.cpp, bench/ablation_hnn_blocking.cpp).
// Both count exactly what the split phases of lotus/count.hpp count and take
// count_hnn's hub-bitmap step (core::HnnHitCounter), so each ablation
// compares only the traversal order or the loop structure.
#pragma once

#include <cstdint>

#include "graph/types.hpp"
#include "lotus/lotus_graph.hpp"

namespace lotus::ablation {

/// Blocked HNN (the second Sec. 7 future-work item): processes non-hub
/// edges in blocks of their target u, so the randomly accessed HE lists of
/// one pass come from a bounded ID range and can stay cached. Counting is
/// identical to core::count_hnn; only the traversal order changes. NHE
/// entries are bucketed by block once, as (begin, v, size) runs charged to
/// the budget, so each block pass walks only its own runs and sets HE(v)
/// in the bitmap once per run.
std::uint64_t count_hnn_blocked(const core::LotusGraph& lg,
                                graph::VertexId block_size);

/// Fused HNN + NNN (the rejected alternative of Sec. 4.5): one pass over
/// NHE doing both intersections, enlarging the randomly accessed working
/// set. Equals core::count_hnn + core::count_nnn.
std::uint64_t count_hnn_nnn_fused(const core::LotusGraph& lg);

}  // namespace lotus::ablation
