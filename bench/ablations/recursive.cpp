#include "bench/ablations/recursive.hpp"

#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "lotus/count.hpp"
#include "lotus/lotus_graph.hpp"
#include "util/timer.hpp"

namespace lotus::ablation {

using core::LotusConfig;
using core::LotusGraph;
using graph::CsrGraph;
using graph::VertexId;

namespace {

/// The NHE sub-graph as a standalone symmetric graph over the non-hub
/// vertices, reindexed to [0, V - hubs).
CsrGraph extract_nhe_graph(const LotusGraph& lg) {
  const VertexId hubs = lg.hub_count();
  graph::EdgeList edges;
  edges.num_vertices = lg.num_vertices() - hubs;
  edges.edges.reserve(lg.nhe().num_edges());
  for (VertexId v = hubs; v < lg.num_vertices(); ++v)
    for (VertexId u : lg.nhe().neighbors(v))
      edges.edges.push_back({v - hubs, u - hubs});
  return graph::build_undirected(edges);
}

}  // namespace

RecursiveLotusResult count_triangles_recursive(const CsrGraph& graph,
                                               const LotusConfig& config,
                                               unsigned max_levels) {
  RecursiveLotusResult result;
  CsrGraph current = graph;

  for (unsigned level = 0; level < max_levels; ++level) {
    util::Timer timer;
    const LotusGraph lg = LotusGraph::build(current, config);
    result.preprocess_s += timer.elapsed_s();
    ++result.levels_used;

    timer.reset();
    const core::HubPhaseCounts hub_phase = core::count_hhh_hhn(lg, config);
    const std::uint64_t hnn = core::count_hnn(lg);
    result.triangles += hub_phase.hhh + hub_phase.hhn + hnn;

    const bool last_level = level + 1 == max_levels ||
                            lg.nhe().num_edges() < 4096 ||
                            lg.hub_count() >= lg.num_vertices();
    if (last_level) {
      // Close out with the plain NNN pass (Forward on NHE).
      result.triangles += core::count_nnn(lg);
      result.count_s += timer.elapsed_s();
      break;
    }
    result.count_s += timer.elapsed_s();

    // Recurse into the non-hub residue: its triangles are exactly the NNN
    // triangles of this level.
    timer.reset();
    current = extract_nhe_graph(lg);
    result.preprocess_s += timer.elapsed_s();
  }
  return result;
}

}  // namespace lotus::ablation
