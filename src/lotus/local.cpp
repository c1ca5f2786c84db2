#include "lotus/local.hpp"

#include <span>

#include "lotus/count.hpp"
#include "lotus/lotus_graph.hpp"
#include "mining/triangle_walk.hpp"

namespace lotus::core {

using graph::VertexId;

std::vector<std::uint64_t> count_triangles_local_prepared(
    const LotusGraph& lg, const LotusConfig& config) {
  mining::CornerCredits credits(lg.num_vertices(), "local/per-vertex-counts");
  const auto hub_corners = [&credits](unsigned thread, VertexId v, VertexId u,
                                      std::span<const std::uint16_t> hubs) {
    credits.add(thread, v, u, hubs.size(),
                [hubs](std::uint64_t k) { return VertexId{hubs[k]}; });
  };
  count_hhh_hhn(lg, config, TilingPolicy::kSquared, nullptr,
                baselines::null_probe, hub_corners);
  count_hnn(lg, baselines::null_probe, config.vectorize, hub_corners);
  const graph::CsrGraph& nhe = lg.nhe();
  mining::ForwardWalk walk(nhe, /*report_u=*/false, "local/walk-positions");
  walk.run([&](unsigned thread, VertexId v, VertexId u,
               const mining::PairHits& hits) {
    const VertexId* nv = nhe.neighbors(v).data();
    credits.add(thread, v, u, hits.count,
                [&](std::uint64_t k) { return nv[hits.at_v[k]]; });
  });
  return credits.by_original({lg.relabeling().data(), lg.relabeling().size()});
}

}  // namespace lotus::core
