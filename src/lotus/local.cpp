#include "lotus/local.hpp"

#include "lotus/count.hpp"
#include "lotus/lotus_graph.hpp"
#include "mining/triangle_walk.hpp"

namespace lotus::core {

using graph::VertexId;

std::vector<std::uint64_t> count_triangles_local_prepared(
    const LotusGraph& lg, const LotusConfig& config) {
  mining::CornerCredits credits(lg.num_vertices(), "local/per-vertex-counts");
  const auto corners = [&credits](unsigned thread, VertexId v, VertexId u,
                                  VertexId w, auto&&... /*edge positions*/) {
    credits.add(thread, v, u, w);
  };
  count_hhh_hhn(lg, config, TilingPolicy::kSquared, nullptr,
                baselines::null_probe, corners);
  count_hnn(lg, baselines::null_probe, config.vectorize, corners);
  mining::forward_walk(lg.nhe(), corners);
  return credits.by_original({lg.relabeling().data(), lg.relabeling().size()});
}

}  // namespace lotus::core
