// Adaptive algorithm selection (Sec. 5.5).
//
// LOTUS pays off on skewed-degree graphs; for low-skew inputs (the
// Friendster case) the Forward algorithm is the better choice. Following
// the GAP heuristic the paper cites, we compare the average degree against
// a sampled median. tc::detail::resolve_adaptive turns the decision into
// the algorithm (and artifact) a kAdaptive query runs as.
#pragma once

#include "graph/csr.hpp"

namespace lotus::core {

/// The dispatch predicate: true → LOTUS, false → Forward. Costs one O(V)
/// degree scan.
bool should_use_lotus(const graph::CsrGraph& graph);

}  // namespace lotus::core
