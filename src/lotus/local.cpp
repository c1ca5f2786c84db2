#include "lotus/local.hpp"

#include <atomic>

#include "baselines/intersect.hpp"
#include "lotus/count.hpp"
#include "lotus/lotus_graph.hpp"
#include "parallel/parallel_for.hpp"
#include "util/memory_budget.hpp"

namespace lotus::core {

using graph::VertexId;

std::vector<std::uint64_t> count_triangles_local_prepared(const LotusGraph& lg) {
  const VertexId n = lg.num_vertices();
  const TriangularBitArray& h2h = lg.h2h();
  const graph::Csr16& he = lg.he();
  const graph::CsrGraph& nhe = lg.nhe();

  // Two n-sized arrays live at once (atomic accumulators + the remapped
  // output); charge both up front so a budgeted query degrades instead of
  // dying mid-phase.
  util::charge_current(2 * static_cast<std::uint64_t>(n) * sizeof(std::uint64_t),
                       "local/per-vertex-counts");
  std::vector<std::atomic<std::uint64_t>> counts(n);  // LOTUS ID space
  auto credit = [&counts](VertexId v) {
    counts[v].fetch_add(1, std::memory_order_relaxed);
  };

  // Phase 1 — HHH & HHN: every connected hub pair closes a triangle with v.
  parallel::parallel_for(0, n, 128,
      [&](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t vi = b; vi < e; ++vi) {
          const auto v = static_cast<VertexId>(vi);
          auto list = he.neighbors(v);
          for (std::size_t a = 1; a < list.size(); ++a) {
            const std::uint64_t base = TriangularBitArray::row_base(list[a]);
            for (std::size_t c = 0; c < a; ++c) {
              if (h2h.test_bit(base + list[c])) {
                credit(v);
                credit(list[a]);
                credit(list[c]);
              }
            }
          }
        }
      });

  // Phase 2 — HNN: common hub neighbours of each non-hub edge, by count_hnn's
  // bitmap step (HE(v) in a per-thread hub bitmap, HE(u) probed against it).
  HubBitmaps bitmaps(lg.hub_count(), parallel::num_threads(),
                     "hnn/hub-bitmaps");
  parallel::parallel_for(0, n, 128,
      [&](unsigned thread_index, std::uint64_t b, std::uint64_t e) {
        std::uint64_t* bitmap = bitmaps.get(thread_index);
        for (std::uint64_t vi = b; vi < e; ++vi) {
          const auto v = static_cast<VertexId>(vi);
          auto hub_list = he.neighbors(v);
          auto nv = nhe.neighbors(v);
          if (hub_list.empty() || nv.empty()) continue;
          set_hub_bits(bitmap, hub_list);
          for (VertexId u : nv) {
            hub_bitmap_hits(bitmap, he.neighbors(u), [&](std::uint16_t h) {
              credit(v);
              credit(u);
              credit(h);
            });
          }
          clear_hub_bits(bitmap, hub_list);
        }
      });

  // Phase 3 — NNN: Forward restricted to the NHE sub-graph.
  parallel::parallel_for(0, n, 128,
      [&](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t vi = b; vi < e; ++vi) {
          const auto v = static_cast<VertexId>(vi);
          auto nv = nhe.neighbors(v);
          for (VertexId u : nv) {
            baselines::intersect_merge_visit<VertexId>(
                nv, nhe.neighbors(u), [&](VertexId w) {
                  credit(v);
                  credit(u);
                  credit(w);
                });
          }
        }
      });

  const auto& new_id = lg.relabeling();
  std::vector<std::uint64_t> by_original(n);
  for (VertexId v = 0; v < n; ++v)
    by_original[v] = counts[new_id[v]].load(std::memory_order_relaxed);
  return by_original;
}

}  // namespace lotus::core
