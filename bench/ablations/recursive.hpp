// Recursive LOTUS (the Sec. 5.5 / Sec. 7 extension), for the recursion
// ablation (bench/ablation_recursive.cpp).
//
// For graphs with many moderately high-degree vertices (social networks with
// a long hub tail), one level of hub extraction leaves a still-skewed NHE
// sub-graph. Recursive LOTUS re-applies the decomposition: instead of
// counting NNN triangles with the Forward algorithm, it rebuilds the NHE
// sub-graph as a standalone graph, selects fresh hubs there, and recurses —
// splitting it into new H2H / HE / NHE components, as the paper suggests
// ("similar to how iHTL extracts dense flipped blocks").
#pragma once

#include <cstdint>

#include "graph/csr.hpp"
#include "lotus/config.hpp"

namespace lotus::ablation {

struct RecursiveLotusResult {
  std::uint64_t triangles = 0;
  unsigned levels_used = 0;
  double preprocess_s = 0.0;  // summed over levels
  double count_s = 0.0;       // summed over levels
};

/// Count triangles with up to `max_levels` of hub extraction. Level 1 is
/// plain LOTUS; recursion stops early when the remaining NHE sub-graph is
/// too small or no longer skew-dominated.
RecursiveLotusResult count_triangles_recursive(const graph::CsrGraph& graph,
                                               const core::LotusConfig& config = {},
                                               unsigned max_levels = 3);

}  // namespace lotus::ablation
