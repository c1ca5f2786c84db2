#include "lotus/adaptive.hpp"

#include "graph/stats.hpp"

namespace lotus::core {

bool should_use_lotus(const graph::CsrGraph& graph) {
  return graph::degree_stats(graph).is_skewed();
}

}  // namespace lotus::core
