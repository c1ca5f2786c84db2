// The vectorized Forward count loop (Alg. 1), shared by gap-forward,
// forward-bitmap, forward-hybrid and LOTUS's NNN phase.
//
// For every vertex v and every u in v's list it counts |list(v) ∩ list(u)|
// with one per-vertex choice, the degree split of the GraphChallenge
// single-node counters: a list shorter than the caller's `dense_from` is
// merged against each second list (the dispatched `merge_u32`, whose
// locality is unbeatable on short lists); a list at or above it is set once
// in a dense per-thread bitmap and each second list is popcount-probed
// against it (`hits_bitset`, one O(1) probe per element instead of a merge
// step). Each caller picks only `dense_from`: gap-forward passes
// kNeverDense, forward-bitmap 2 (every countable list dense, Latapy),
// forward-hybrid its threshold (64 by default) and the NNN phase
// LotusConfig::hybrid_degree_threshold.
//
// Memory: each thread lazily allocates one ⌈n/64⌉-word bitmap the first
// time it meets a dense list. When a budget is accounting and some
// countable list will be dense, the calling thread charges all of them
// before the loop, at the caller's site; otherwise the loop allocates
// nothing it could be charged for. See docs/KERNELS.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "kernels/dispatch.hpp"
#include "kernels/edge_stream.hpp"
#include "obs/counters.hpp"
#include "parallel/padded.hpp"
#include "parallel/parallel_for.hpp"
#include "util/memory_budget.hpp"

namespace lotus::kernels {

/// A `dense_from` no list reaches: every list merges, nothing is allocated.
inline constexpr std::uint32_t kNeverDense = ~std::uint32_t{0};

/// Count closed wedges over an oriented CSR given by its arrays: the sum
/// over v and u in v's list of |list(v) ∩ list(u)|. `offsets` has
/// num_vertices + 1 entries; lists are strictly ascending and every
/// neighbour ID is < num_vertices. Lists of fewer than two entries close no
/// wedge and are skipped; a list of length ≥ max(dense_from, 2) takes the
/// bitmap. Each chunk walks its entries as one flat stream with an
/// EdgeStreamPrefetcher running ahead (kernels/edge_stream.hpp). Throws
/// util::BudgetError from the up-front charge at `scratch_site`.
inline std::uint64_t forward_count(std::span<const std::uint64_t> offsets,
                                   std::span<const std::uint32_t> neighbors,
                                   std::uint32_t dense_from,
                                   const char* scratch_site = "forward_scratch") {
  const KernelTable& table = kernel_table();
  const std::uint64_t num_vertices = offsets.size() - 1;
  const std::uint64_t bitmap_words = (num_vertices + 63) / 64;
  const std::uint64_t dense_size = std::max<std::uint64_t>(dense_from, 2);
  const unsigned slots = parallel::num_threads();
  const std::uint64_t* off = offsets.data();
  const std::uint32_t* adj = neighbors.data();
  if (dense_from != kNeverDense && util::memory_accounting_active()) {
    bool any_dense = false;
    for (std::uint64_t v = 0; v < num_vertices && !any_dense; ++v)
      any_dense = off[v + 1] - off[v] >= dense_size;
    if (any_dense)
      util::charge_current(slots * bitmap_words * sizeof(std::uint64_t),
                           scratch_site);
  }
  std::vector<parallel::Padded<std::uint64_t>> partial(slots);
  std::vector<std::vector<std::uint64_t>> bitmaps(slots);

  parallel::parallel_for(
      0, num_vertices, 64,
      [&](unsigned thread_index, std::uint64_t chunk_begin,
          std::uint64_t chunk_end) {
        std::uint64_t local = 0;
        std::uint64_t comparisons = 0, fruitless = 0;  // dead when LOTUS_OBS=0
        std::vector<std::uint64_t>& bitmap = bitmaps[thread_index];
        const EdgeStreamPrefetcher<std::uint32_t> prefetch(adj, off[chunk_end],
                                                           off, adj);
        for (std::uint64_t vi = chunk_begin; vi < chunk_end; ++vi) {
          const std::uint64_t lo = off[vi];
          const std::uint64_t hi = off[vi + 1];
          const std::uint32_t* nv = adj + lo;
          const std::uint64_t nv_size = hi - lo;
          if (nv_size < 2) continue;
          if (nv_size >= dense_size) {
            if (bitmap.empty()) bitmap.assign(bitmap_words, 0);
            for (std::uint64_t k = lo; k < hi; ++k)
              bitmap[adj[k] >> 6] |= 1ULL << (adj[k] & 63);
            for (std::uint64_t k = lo; k < hi; ++k) {
              prefetch(k);
              const std::uint32_t u = adj[k];
              const std::uint64_t nu_size = off[u + 1] - off[u];
              const std::uint64_t hits =
                  table.hits_bitset(adj + off[u], nu_size, bitmap.data());
              local += hits;
              comparisons += nu_size;
              fruitless += hits == 0 && nu_size != 0 ? 1 : 0;
            }
            // Every set bit belongs to nv, so zeroing each member's whole
            // word restores the all-zero invariant.
            for (std::uint64_t k = lo; k < hi; ++k) bitmap[adj[k] >> 6] = 0;
          } else {
            for (std::uint64_t k = lo; k < hi; ++k) {
              prefetch(k);
              const std::uint32_t u = adj[k];
              const std::uint64_t nu_size = off[u + 1] - off[u];
              const std::uint64_t hits = table.merge_u32(
                  nv, nv_size, adj + off[u], nu_size, nullptr, nullptr);
              local += hits;
              comparisons += nu_size == 0 ? 0 : nv_size + nu_size;
              fruitless += hits == 0 && nu_size != 0 ? 1 : 0;
            }
          }
        }
        obs::count(obs::Counter::kIntersectComparisons, comparisons);
        obs::count(obs::Counter::kFruitlessSearches, fruitless);
        partial[thread_index].value += local;
      });

  std::uint64_t total = 0;
  for (const auto& p : partial) total += p.value;
  return total;
}

}  // namespace lotus::kernels
