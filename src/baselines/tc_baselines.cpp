#include "baselines/tc_baselines.hpp"

#include <algorithm>
#include <vector>

#include "baselines/intersect.hpp"
#include "kernels/hybrid.hpp"
#include "kernels/intersect.hpp"
#include "parallel/parallel_for.hpp"
#include "util/bitset.hpp"
#include "util/memory_budget.hpp"

namespace lotus::baselines {

using graph::CsrGraph;
using graph::OrientedCsr;
using graph::VertexId;

std::uint64_t forward_merge_prepared(const OrientedCsr& oriented,
                                     bool vectorize) {
  const VertexId n = oriented.num_vertices();
  return parallel::parallel_reduce_add<std::uint64_t>(
      0, n, 64, [&](std::uint64_t vi) {
        const auto v = static_cast<VertexId>(vi);
        auto nv = oriented.neighbors(v);
        std::uint64_t local = 0;
        for (VertexId u : nv)
          local += kernels::intersect(nv, oriented.neighbors(u), null_probe,
                                      vectorize);
        return local;
      });
}

std::uint64_t forward_gallop_prepared(const OrientedCsr& oriented) {
  const VertexId n = oriented.num_vertices();
  return parallel::parallel_reduce_add<std::uint64_t>(
      0, n, 64, [&](std::uint64_t vi) {
        const auto v = static_cast<VertexId>(vi);
        auto nv = oriented.neighbors(v);
        std::uint64_t local = 0;
        for (VertexId u : nv)
          local += intersect_gallop<VertexId>(oriented.neighbors(u), nv);
        return local;
      });
}

std::uint64_t forward_hashed_prepared(const OrientedCsr& oriented) {
  const VertexId n = oriented.num_vertices();
  // The per-thread HashedSet scratch peaks at the largest out-degree; charge
  // it up front (master thread) so a memory budget can veto this kernel and
  // the caller can degrade to the scratch-free merge intersection.
  if (util::memory_accounting_active()) {
    std::size_t max_degree = 0;
    for (VertexId v = 0; v < n; ++v)
      max_degree = std::max(max_degree, oriented.neighbors(v).size());
    std::size_t cap = 16;
    while (cap < max_degree * 2) cap <<= 1;
    util::charge_current(static_cast<std::uint64_t>(parallel::num_threads()) *
                             cap * sizeof(std::uint64_t),
                         "hash_scratch");
  }
  std::vector<parallel::Padded<std::uint64_t>> partial(parallel::num_threads());
  parallel::parallel_for(0, n, 64,
      [&](unsigned thread_index, std::uint64_t b, std::uint64_t e) {
        HashedSet<VertexId> set;  // rebuilt per outer vertex, reused per chunk
        std::uint64_t local = 0;
        for (std::uint64_t vi = b; vi < e; ++vi) {
          const auto v = static_cast<VertexId>(vi);
          auto nv = oriented.neighbors(v);
          if (nv.size() < 2) continue;
          set.build(nv);
          for (VertexId u : nv) local += set.count_hits(oriented.neighbors(u));
        }
        partial[thread_index].value += local;
      });
  std::uint64_t total = 0;
  for (const auto& p : partial) total += p.value;
  return total;
}

std::uint64_t forward_bitmap_prepared(const OrientedCsr& oriented) {
  const VertexId n = oriented.num_vertices();
  // Each thread owns an n-bit bitmap; charge all of them up front (master
  // thread) so a budget can veto the kernel before any worker allocates.
  util::charge_current(static_cast<std::uint64_t>(parallel::num_threads()) *
                           ((static_cast<std::uint64_t>(n) + 63) / 64 * 8),
                       "bitmap_scratch");
  std::vector<parallel::Padded<std::uint64_t>> partial(parallel::num_threads());
  parallel::parallel_for(0, n, 64,
      [&](unsigned thread_index, std::uint64_t b, std::uint64_t e) {
        util::Bitset bitmap(n);  // per-chunk; bits are unset after each vertex
        std::uint64_t local = 0;
        for (std::uint64_t vi = b; vi < e; ++vi) {
          const auto v = static_cast<VertexId>(vi);
          auto nv = oriented.neighbors(v);
          if (nv.size() < 2) continue;
          for (VertexId u : nv) bitmap.set(u);
          for (VertexId u : nv)
            local += count_bitmap_hits<VertexId>(oriented.neighbors(u), bitmap);
          for (VertexId u : nv) bitmap.clear(u);
        }
        partial[thread_index].value += local;
      });
  std::uint64_t total = 0;
  for (const auto& p : partial) total += p.value;
  return total;
}

std::uint64_t forward_hybrid_prepared(const OrientedCsr& oriented,
                                      std::uint32_t degree_threshold) {
  const VertexId n = oriented.num_vertices();
  // The hybrid's per-thread bitmaps allocate lazily on worker threads, where
  // a budget cannot be charged; charge the worst case up front (master
  // thread) like forward_bitmap — but only when some vertex will actually
  // reach the dense path.
  if (util::memory_accounting_active()) {
    bool any_dense = false;
    for (VertexId v = 0; v < n && !any_dense; ++v)
      any_dense = oriented.neighbors(v).size() >= degree_threshold;
    if (any_dense)
      util::charge_current(
          static_cast<std::uint64_t>(parallel::num_threads()) *
              ((static_cast<std::uint64_t>(n) + 63) / 64 * 8),
          "hybrid_scratch");
  }
  return kernels::hybrid_forward_count(oriented.offsets(),
                                       oriented.neighbor_array(),
                                       degree_threshold);
}

std::uint64_t edge_parallel_forward_prepared(const OrientedCsr& oriented) {
  // GBBS-style: the flat loop over oriented edges exposes the intersection
  // work of heavy vertices to many threads instead of one.
  const std::uint64_t m = oriented.num_edges();
  const auto& offsets = oriented.offsets();
  const auto& nbrs = oriented.neighbor_array();
  return parallel::parallel_reduce_add<std::uint64_t>(
      0, m, 2048, [&](std::uint64_t edge_index) {
        // Source vertex of this CSR slot, found by binary search on offsets.
        const auto it = std::upper_bound(offsets.begin(), offsets.end(), edge_index);
        const auto v = static_cast<VertexId>(it - offsets.begin() - 1);
        const VertexId u = nbrs[edge_index];
        return intersect_merge<VertexId>(oriented.neighbors(v),
                                         oriented.neighbors(u));
      });
}

std::uint64_t blocked_tc_prepared(const OrientedCsr& oriented,
                                  VertexId block_size) {
  // BBTC-style schedule: vertices are grouped into ranges and each
  // (source-block, neighbour-block) pair is one task, so the randomly
  // accessed second lists of a task fall inside one block.
  const VertexId n = oriented.num_vertices();
  if (block_size == 0) block_size = 1;
  const VertexId num_blocks = (n + block_size - 1) / block_size;
  const std::uint64_t tasks = static_cast<std::uint64_t>(num_blocks) * num_blocks;
  return parallel::parallel_reduce_add<std::uint64_t>(
      0, tasks, 1, [&](std::uint64_t task) {
        const auto bv = static_cast<VertexId>(task / num_blocks);
        const auto bu = static_cast<VertexId>(task % num_blocks);
        if (bu > bv) return std::uint64_t{0};  // u < v, so bu <= bv only
        const VertexId v_begin = bv * block_size;
        const VertexId v_end = std::min<VertexId>(n, v_begin + block_size);
        const VertexId u_begin = bu * block_size;
        const VertexId u_end = std::min<VertexId>(n, u_begin + block_size);
        std::uint64_t local = 0;
        for (VertexId v = v_begin; v < v_end; ++v) {
          auto nv = oriented.neighbors(v);
          const auto first = std::lower_bound(nv.begin(), nv.end(), u_begin);
          for (auto it = first; it != nv.end() && *it < u_end; ++it)
            local += intersect_merge<VertexId>(nv, oriented.neighbors(*it));
        }
        return local;
      });
}

std::uint64_t brute_force(const CsrGraph& g) {
  const VertexId n = g.num_vertices();
  std::uint64_t total = 0;
  for (VertexId v = 0; v < n; ++v) {
    auto nv = g.neighbors(v);
    for (std::size_t i = 0; i < nv.size(); ++i) {
      if (nv[i] >= v) break;  // enforce w < u < v: count each triangle once
      for (std::size_t j = i + 1; j < nv.size(); ++j) {
        if (nv[j] >= v) break;
        auto nu = g.neighbors(nv[j]);
        total += std::binary_search(nu.begin(), nu.end(), nv[i]) ? 1u : 0u;
      }
    }
  }
  return total;
}

}  // namespace lotus::baselines
