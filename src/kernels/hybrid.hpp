// Sparse-vs-dense hybrid Forward counting.
//
// The degree-split recipe of the fastest GraphChallenge single-node
// counters: vertices whose oriented neighbour list is long are counted by
// materializing the list as a dense per-thread bitmap and popcount-probing
// each second list against it (one O(1) probe per element instead of a
// merge step), while the low-degree tail keeps the vectorized merge, whose
// locality is unbeatable on short lists. The threshold is the caller's
// `degree_threshold`: LOTUS's NNN phase passes
// LotusConfig::hybrid_degree_threshold, and forward_hybrid_prepared takes it
// as a parameter (64 by default, which the forward-hybrid query uses).
//
// Memory: each thread lazily allocates one ⌈n/64⌉-word bitmap the first
// time it meets a dense vertex. Callers running under an active memory
// budget must either charge that scratch up front on the master thread
// (baselines::forward_hybrid_prepared does) or pass a threshold no vertex
// reaches, which keeps the kernel allocation-free (the LOTUS NNN phase
// does). See docs/KERNELS.md.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/dispatch.hpp"
#include "kernels/edge_stream.hpp"
#include "obs/counters.hpp"
#include "parallel/padded.hpp"
#include "parallel/parallel_for.hpp"

namespace lotus::kernels {

/// Count closed wedges over an oriented CSR given by its arrays: for every
/// vertex v and every u in v's list, |list(v) ∩ list(u)|. `offsets` has
/// num_vertices + 1 entries; lists are strictly ascending and every
/// neighbour ID is < num_vertices. Each chunk walks its entries as one flat
/// stream with an EdgeStreamPrefetcher running ahead (kernels/edge_stream.hpp).
inline std::uint64_t hybrid_forward_count(std::span<const std::uint64_t> offsets,
                                          std::span<const std::uint32_t> neighbors,
                                          std::uint32_t degree_threshold) {
  const KernelTable& table = kernel_table();
  const std::uint64_t num_vertices = offsets.size() - 1;
  const std::uint64_t bitmap_words = (num_vertices + 63) / 64;
  const unsigned slots = parallel::num_threads();
  std::vector<parallel::Padded<std::uint64_t>> partial(slots);
  std::vector<std::vector<std::uint64_t>> bitmaps(slots);
  const std::uint64_t* off = offsets.data();
  const std::uint32_t* adj = neighbors.data();

  parallel::parallel_for(
      0, num_vertices, 64,
      [&](unsigned thread_index, std::uint64_t chunk_begin,
          std::uint64_t chunk_end) {
        std::uint64_t local = 0;
        std::uint64_t comparisons = 0;  // dead when LOTUS_OBS=0
        std::vector<std::uint64_t>& bitmap = bitmaps[thread_index];
        const EdgeStreamPrefetcher<std::uint32_t> prefetch(adj, off[chunk_end],
                                                           off, adj);
        for (std::uint64_t vi = chunk_begin; vi < chunk_end; ++vi) {
          const std::uint64_t lo = off[vi];
          const std::uint64_t hi = off[vi + 1];
          const std::uint32_t* nv = adj + lo;
          const std::uint64_t nv_size = hi - lo;
          if (nv_size < 2) continue;
          if (nv_size >= degree_threshold) {
            if (bitmap.empty()) bitmap.assign(bitmap_words, 0);
            for (std::uint64_t k = lo; k < hi; ++k)
              bitmap[adj[k] >> 6] |= 1ULL << (adj[k] & 63);
            for (std::uint64_t k = lo; k < hi; ++k) {
              prefetch(k);
              const std::uint32_t u = adj[k];
              const std::uint64_t nu_size = off[u + 1] - off[u];
              local += table.hits_bitset(adj + off[u], nu_size, bitmap.data());
              comparisons += nu_size;
            }
            // Every set bit belongs to nv, so zeroing each member's whole
            // word restores the all-zero invariant.
            for (std::uint64_t k = lo; k < hi; ++k) bitmap[adj[k] >> 6] = 0;
          } else {
            for (std::uint64_t k = lo; k < hi; ++k) {
              prefetch(k);
              const std::uint32_t u = adj[k];
              const std::uint64_t nu_size = off[u + 1] - off[u];
              local += table.merge_u32(nv, nv_size, adj + off[u], nu_size,
                                       nullptr, nullptr);
              comparisons += nu_size == 0 ? 0 : nv_size + nu_size;
            }
          }
        }
        obs::count(obs::Counter::kIntersectComparisons, comparisons);
        partial[thread_index].value += local;
      });

  std::uint64_t total = 0;
  for (const auto& p : partial) total += p.value;
  return total;
}

}  // namespace lotus::kernels
