#include "lotus/count.hpp"

#include <algorithm>

namespace lotus::core {

using graph::VertexId;

std::vector<std::vector<HubTile>> build_hub_tasks(const LotusGraph& lg,
                                                  const LotusConfig& config,
                                                  TilingPolicy policy,
                                                  unsigned threads) {
  const graph::Csr16& he = lg.he();
  const VertexId n = lg.num_vertices();
  std::vector<std::vector<HubTile>> tasks;

  if (policy == TilingPolicy::kEdgeBalanced) {
    // The comparison policy of Table 9 (GraphGrind/Polymer-style): cut the
    // edge stream into 256 · #threads equal-entry partitions at vertex
    // boundaries. A heavy vertex's whole triangular loop (quadratic in its
    // degree) lands in a single partition — the imbalance squared edge
    // tiling removes.
    const std::uint64_t total_entries = he.num_edges();
    const std::uint64_t partitions = std::max<std::uint64_t>(1, 256ULL * threads);
    const std::uint64_t per_task = std::max<std::uint64_t>(1, (total_entries + partitions - 1) / partitions);
    std::vector<HubTile> current;
    std::uint64_t filled = 0;
    for (VertexId v = 0; v < n; ++v) {
      const std::uint32_t deg = he.degree(v);
      if (deg < 2) continue;  // no pairs to enumerate
      current.push_back({v, 0, deg});
      filled += deg;
      if (filled >= per_task) {
        tasks.push_back(std::move(current));
        current.clear();
        filled = 0;
      }
    }
    if (!current.empty()) tasks.push_back(std::move(current));
    return tasks;
  }

  // Squared edge tiling: heavy vertices get p = 2 × threads equal-pair-work
  // tiles each (Sec. 5.8); light vertices are batched into tasks of roughly
  // equal total pair-work.
  constexpr unsigned kTilesPerThread = 2;
  const unsigned p = std::max(1u, kTilesPerThread * threads);
  std::uint64_t light_work = 0;
  for (VertexId v = 0; v < n; ++v) {
    const std::uint32_t deg = he.degree(v);
    if (deg > config.tiling_degree_threshold) {
      const auto bounds = tile_boundaries(deg, p, TilingPolicy::kSquared);
      for (unsigned k = 0; k < p; ++k)
        if (bounds[k] < bounds[k + 1])
          tasks.push_back({HubTile{v, bounds[k], bounds[k + 1]}});
    } else {
      light_work += pair_work(0, deg);
    }
  }

  const std::uint64_t light_target_tasks = std::max<std::uint64_t>(1, 64ULL * threads);
  const std::uint64_t work_per_task =
      std::max<std::uint64_t>(1, (light_work + light_target_tasks - 1) / light_target_tasks);
  std::vector<HubTile> current;
  std::uint64_t filled = 0;
  for (VertexId v = 0; v < n; ++v) {
    const std::uint32_t deg = he.degree(v);
    if (deg > config.tiling_degree_threshold || deg < 2) continue;
    current.push_back({v, 0, deg});
    filled += pair_work(0, deg);
    if (filled >= work_per_task) {
      tasks.push_back(std::move(current));
      current.clear();
      filled = 0;
    }
  }
  if (!current.empty()) tasks.push_back(std::move(current));
  return tasks;
}

}  // namespace lotus::core
