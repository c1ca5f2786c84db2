// Tunable parameters of the LOTUS algorithm.
#pragma once

#include <algorithm>
#include <cstdint>

#include "graph/types.hpp"

namespace lotus::core {

struct LotusConfig {
  /// Number of hub vertices. 0 selects the automatic rule below; the paper
  /// fixes 64 Ki (Sec. 4.2), which is the upper bound here because HE stores
  /// neighbour IDs in 16 bits.
  graph::VertexId hub_count = 0;

  /// Fraction of highest-degree vertices relabeled to the first IDs
  /// (Sec. 4.3.1 uses 10%; hubs are always included). Valid range [0, 1];
  /// tc::validate rejects anything else, NaN included.
  double relabel_fraction = 0.10;

  /// Squared edge tiling kicks in above this HE degree (Sec. 5.8 uses 512).
  std::uint32_t tiling_degree_threshold = 512;

  /// Route the counting phases through the runtime-dispatched SIMD kernel
  /// layer (src/kernels, docs/KERNELS.md): word-level H2H row popcounts,
  /// 16-bit vectorized merge for HNN, and the sparse-vs-dense hybrid for
  /// NNN. false pins the probe-templated scalar reference kernels;
  /// instrumented (probed) runs use those regardless of this flag. The
  /// effective ISA tier additionally honours LOTUS_ISA (kernels/isa.hpp).
  bool vectorize = true;

  /// Degree at or above which the hybrid kernels switch a vertex from merge
  /// intersection to the dense-bitmap set/probe/clear strategy (the
  /// GraphChallenge-style vertex-range split). 0 disables the bitmap side
  /// (pure vectorized merge). Only meaningful with `vectorize`.
  std::uint32_t hybrid_degree_threshold = 64;

  /// Resolve the hub count for a graph with `num_vertices` vertices.
  /// Auto rule: 1% of vertices (the hub definition of Table 1), clamped to
  /// [16, min(2^16, V/2)] so scaled-down graphs keep a meaningful hub set
  /// and HE IDs always fit in 16 bits.
  [[nodiscard]] graph::VertexId resolve_hub_count(graph::VertexId num_vertices) const {
    constexpr graph::VertexId kMax = 1u << 16;
    if (hub_count != 0)
      return std::min({hub_count, kMax, std::max<graph::VertexId>(1, num_vertices)});
    const graph::VertexId one_percent = num_vertices / 100;
    const graph::VertexId cap = std::min(kMax, std::max<graph::VertexId>(1, num_vertices / 2));
    return std::clamp<graph::VertexId>(one_percent, std::min<graph::VertexId>(16, cap), cap);
  }

  /// The number of vertices relabeling moves to the front:
  /// max(hubs, ⌊relabel_fraction · V⌋). Defined for any relabel_fraction: a
  /// NaN or negative fraction counts as 0 and one above 1 as 1, so no
  /// out-of-range float→integer conversion can happen.
  [[nodiscard]] graph::VertexId resolve_reorder_count(graph::VertexId num_vertices,
                                                      graph::VertexId hubs) const {
    const double scaled = relabel_fraction * num_vertices;
    if (!(scaled > 0.0)) return hubs;
    if (scaled >= num_vertices) return std::max(hubs, num_vertices);
    return std::max(hubs, static_cast<graph::VertexId>(scaled));
  }
};

}  // namespace lotus::core
