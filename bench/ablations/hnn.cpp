#include "bench/ablations/hnn.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "kernels/intersect.hpp"
#include "lotus/count.hpp"
#include "lotus/hub_bitmaps.hpp"
#include "parallel/padded.hpp"
#include "parallel/parallel_for.hpp"
#include "util/memory_budget.hpp"

namespace lotus::ablation {

using core::HnnHitCounter;
using core::HubBitmaps;
using graph::VertexId;

std::uint64_t count_hnn_blocked(const core::LotusGraph& lg, VertexId block_size) {
  const graph::Csr16& he = lg.he();
  const graph::CsrGraph& nhe = lg.nhe();
  const VertexId n = lg.num_vertices();
  const VertexId first = lg.hub_count();  // NHE targets are non-hubs
  if (block_size == 0) block_size = 1;
  const std::uint64_t blocks =
      n > first ? (std::uint64_t{n} - first + block_size - 1) / block_size : 0;
  const std::uint64_t* offsets = nhe.offsets().data();
  const VertexId* adj = nhe.neighbor_array().data();
  struct Run { std::uint64_t begin; VertexId v; std::uint32_t size; };

  // Each of `parts` vertex ranges calls fn(part · blocks + block, v, lo, hi)
  // per maximal one-block run of an NHE list, in parallel: once to count
  // into its own row of cursors, once to place; ranges are block-major.
  const unsigned parts = parallel::num_threads();
  const std::uint64_t part_size = (std::uint64_t{n} + parts - 1) / parts;
  const auto for_each_run = [&](auto&& fn) {
    parallel::parallel_for(
        0, parts, 1, [&](unsigned, std::uint64_t pb, std::uint64_t pe) {
          for (std::uint64_t part = pb; part < pe; ++part) {
            const std::uint64_t v_end =
                std::min<std::uint64_t>(n, (part + 1) * part_size);
            for (std::uint64_t v = part * part_size; v < v_end; ++v) {
              for (std::uint64_t k = offsets[v], hi = offsets[v + 1]; k < hi;) {
                const std::uint64_t block = (adj[k] - first) / block_size;
                const std::uint64_t limit = first + (block + 1) * block_size;
                const std::uint64_t lo = k;
                while (k < hi && adj[k] < limit) ++k;
                fn(part * blocks + block, static_cast<VertexId>(v), lo, k);
              }
            }
          }
        });
  };
  util::charge_current((parts + 1) * (blocks + 1) * sizeof(std::uint64_t),
                       "hnn/block-index");
  std::vector<std::uint64_t> cursor(parts * blocks, 0);
  for_each_run([&](std::uint64_t slot, VertexId, std::uint64_t, std::uint64_t) {
    ++cursor[slot];
  });
  std::vector<std::uint64_t> block_start(blocks + 1, 0);
  std::uint64_t placed = 0;
  for (std::uint64_t block = 0; block < blocks; ++block) {
    block_start[block] = placed;
    for (std::uint64_t part = 0; part < parts; ++part)
      placed += std::exchange(cursor[part * blocks + block], placed);
  }
  block_start[blocks] = placed;
  util::charge_current(placed * sizeof(Run), "hnn/block-ranges");
  const auto ranges = std::make_unique_for_overwrite<Run[]>(placed);
  for_each_run([&](std::uint64_t slot, VertexId v, std::uint64_t lo,
                   std::uint64_t hi) {
    ranges[cursor[slot]++] = {lo, v, static_cast<std::uint32_t>(hi - lo)};
  });

  HubBitmaps bitmaps(lg.hub_count(), parallel::num_threads(), "hnn/hub-bitmaps");
  std::vector<parallel::Padded<std::uint64_t>> partial(parallel::num_threads());
  for (std::uint64_t block = 0; block < blocks; ++block) {
    parallel::parallel_for(
        block_start[block], block_start[block + 1], 64,
        [&](unsigned thread_index, std::uint64_t b, std::uint64_t e) {
          std::uint64_t* bitmap = bitmaps.get(thread_index);
          std::uint64_t local = 0;
          HnnHitCounter counter;
          for (std::uint64_t r = b; r < e; ++r) {
            const Run& range = ranges[r];
            auto hub_list = he.neighbors(range.v);
            if (hub_list.empty()) continue;
            core::set_hub_bits(bitmap, hub_list);
            for (std::uint64_t k = range.begin; k < range.begin + range.size; ++k)
              local += counter.count(bitmap, he.neighbors(adj[k]));
            core::clear_hub_bits(bitmap, hub_list);
          }
          counter.flush();
          partial[thread_index].value += local;
        });
  }
  std::uint64_t total = 0;
  for (const auto& p : partial) total += p.value;
  return total;
}

std::uint64_t count_hnn_nnn_fused(const core::LotusGraph& lg) {
  const graph::Csr16& he = lg.he();
  const graph::CsrGraph& nhe = lg.nhe();
  HubBitmaps bitmaps(lg.hub_count(), parallel::num_threads(), "hnn/hub-bitmaps");
  std::vector<parallel::Padded<std::uint64_t>> partial(parallel::num_threads());
  parallel::parallel_for(
      0, lg.num_vertices(), 64,
      [&](unsigned thread_index, std::uint64_t b, std::uint64_t e) {
        std::uint64_t* bitmap = bitmaps.get(thread_index);
        std::uint64_t local = 0;
        HnnHitCounter counter;
        for (std::uint64_t vi = b; vi < e; ++vi) {
          const auto v = static_cast<VertexId>(vi);
          auto nv = nhe.neighbors(v);
          auto hub_list = he.neighbors(v);
          core::set_hub_bits(bitmap, hub_list);
          for (VertexId u : nv) {
            if (!hub_list.empty())  // count_hnn skips these vertices
              local += counter.count(bitmap, he.neighbors(u));
            local += kernels::intersect(nv, nhe.neighbors(u));
          }
          core::clear_hub_bits(bitmap, hub_list);
        }
        counter.flush();
        partial[thread_index].value += local;
      });
  std::uint64_t total = 0;
  for (const auto& p : partial) total += p.value;
  return total;
}

}  // namespace lotus::ablation
