// LOTUS triangle counting (Alg. 3): three phases, each concentrating its
// random memory accesses on one small data structure (Table 2).
//
// Every phase is templated on a memory probe (default NullProbe → zero
// overhead) so the instrumented replays in src/tc reuse this exact code.
// Probes are stateful and unsynchronized: instrumented runs must execute
// with parallel::set_num_threads(1).
// count_hhh_hhn and count_hnn also take a trailing triangle visitor (default
// baselines::NoVisit: the counting-only code). It is called once per vertex
// pair, never once per triangle: `visit(thread, v, u, hubs)` sees the pair's
// common hubs w, packed into a thread-private row, so the triangles
// (v, u, w) are hubs.size() in number, all in LOTUS IDs. `thread` is the
// pool worker's index (in [0, parallel::num_threads())), so a visitor can
// credit thread-private rows (mining::CornerCredits) — v and u once per
// pair, each hub once.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "baselines/intersect.hpp"
#include "kernels/edge_stream.hpp"
#include "kernels/hybrid.hpp"
#include "lotus/hub_bitmaps.hpp"
#include "lotus/lotus_graph.hpp"
#include "lotus/tiling.hpp"
#include "obs/counters.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/memory_budget.hpp"

namespace lotus::core {

struct HubPhaseCounts {
  std::uint64_t hhh = 0;  // triangles whose apex vertex is itself a hub
  std::uint64_t hhn = 0;  // apex is a non-hub with two connected hub neighbours
};

/// One contiguous h1-index range of one vertex's HE list; the unit of
/// phase-1 scheduling.
struct HubTile {
  graph::VertexId v;
  std::uint32_t begin;
  std::uint32_t end;
};

/// Set the bits of `hubs` in `bitmap` / clear them again. Clearing zeroes
/// each member's whole word: every set bit belongs to a member.
inline void set_hub_bits(std::uint64_t* bitmap, std::span<const std::uint16_t> hubs) {
  for (const std::uint16_t h : hubs) bitmap[h >> 6] |= 1ULL << (h & 63);
}
inline void clear_hub_bits(std::uint64_t* bitmap, std::span<const std::uint16_t> hubs) {
  for (const std::uint16_t h : hubs) bitmap[h >> 6] = 0;
}

/// The HNN step: how many hubs of HE(u) have their bit set in `bitmap`
/// (HE(v)), one L1 bit test per element. With kPack the common hubs are also
/// packed into `packed` (|hubs| slots) by a store per element that only a
/// hit keeps — no branch on the bit. obs tallies, flushed once per chunk
/// (dead when LOTUS_OBS=0): each probed element is one intersect
/// comparison, and an NHE edge that probed elements without a hit is one
/// fruitless search (the merge's convention).
struct HnnHitCounter {
  std::uint64_t probed = 0;
  std::uint64_t fruitless = 0;

  template <bool kPack = false>
  std::uint64_t count(const std::uint64_t* bitmap,
                      std::span<const std::uint16_t> hubs,
                      std::uint16_t* packed = nullptr) {
    std::uint64_t hits = 0;
    for (const std::uint16_t h : hubs) {
      const std::uint64_t bit = (bitmap[h >> 6] >> (h & 63)) & 1;
      if constexpr (kPack) packed[hits] = h;
      hits += bit;
    }
    probed += hubs.size();
    if (hits == 0 && !hubs.empty()) ++fruitless;
    return hits;
  }
  void flush() const {
    obs::count(obs::Counter::kIntersectComparisons, probed);
    obs::count(obs::Counter::kFruitlessSearches, fruitless);
  }
};

/// Build the phase-1 tile list under a partitioning policy. Squared tiling
/// splits heavy vertices (HE degree > threshold) into equal-pair-work tiles;
/// light vertices are batched separately by the scheduler. Edge-balanced
/// splits the flattened HE entry stream into ~256·threads equal-entry tiles
/// (the comparison policy of Table 9).
std::vector<std::vector<HubTile>> build_hub_tasks(const LotusGraph& lg,
                                                  const LotusConfig& config,
                                                  TilingPolicy policy,
                                                  unsigned threads);

/// Phase 1 — HHH + HHN (Alg. 3 lines 2-6). Iterates all pairs of hub
/// neighbours of every vertex and tests connectivity in the H2H bit array.
/// `busy_s_out`, if non-null, receives per-thread busy seconds (Table 9).
///
/// With `config.vectorize` and no probe attached, dense tiles take the
/// word-level popcount path instead of per-bit probing: the tile's hub
/// prefix is materialized as a per-thread bitmap over hub-ID space (≤ 8 KiB)
/// and every row of the H2H triangle is ANDed against it 64 bits at a time
/// (TriangularBitArray::row_hits). A per-tile cost model picks
/// whichever side is cheaper, so sparse tiles — where the row scan would
/// read mostly zero words — keep the scalar bit probes. The obs counter
/// kBitarrayProbes keeps counting *logical* (h1, h2) membership tests under
/// both paths, so the Table 8 probe totals stay comparable. A visitor, like
/// a probe, pins the scalar pair path. Each row (tile.v, h1) packs its hits
/// h2 into a per-thread row of hub_count slots (charged at "hub/hit-rows"),
/// and `visit(thread_index, tile.v, h1, hubs)` sees a row with hits once.
template <typename Probe = baselines::NullProbe,
          typename Visit = baselines::NoVisit>
HubPhaseCounts count_hhh_hhn(const LotusGraph& lg, const LotusConfig& config,
                             TilingPolicy policy = TilingPolicy::kSquared,
                             std::vector<double>* busy_s_out = nullptr,
                             Probe& probe = baselines::null_probe,
                             Visit visit = {}) {
  const TriangularBitArray& h2h = lg.h2h();
  const graph::Csr16& he = lg.he();
  constexpr bool kVisit = !std::is_same_v<Visit, baselines::NoVisit>;
  constexpr bool kPopcount =
      std::is_same_v<Probe, baselines::NullProbe> && !kVisit;

  parallel::ThreadPool& pool = parallel::default_pool();
  auto tasks = build_hub_tasks(lg, config, policy, pool.size());

  std::optional<HubBitmaps> masks;  // the popcount path's scratch
  if (kPopcount && config.vectorize)
    masks.emplace(lg.hub_count(), pool.size(), "hub/popcount-masks");
  std::optional<ThreadRows<std::uint16_t>> hit_rows;  // the visitor's rows
  if constexpr (kVisit)
    hit_rows.emplace(lg.hub_count(), pool.size(), "hub/hit-rows");

  std::vector<parallel::Padded<HubPhaseCounts>> partial(pool.size());
  std::vector<parallel::WorkStealingScheduler::Task> jobs;
  jobs.reserve(tasks.size());
  for (auto& task : tasks) {
    jobs.emplace_back([&, segments = std::move(task)](unsigned thread_index) {
      HubPhaseCounts local;
      std::uint64_t probes = 0;  // logical H2H tests; dead when LOTUS_OBS=0
      for (const HubTile& tile : segments) {
        auto list = he.neighbors(tile.v);
        probes += pair_work(tile.begin, tile.end);
        std::uint64_t found = 0;
        bool counted = false;
        if constexpr (kPopcount) {
          if (config.vectorize && tile.end >= 2) {
            // Model: scalar pays ~1 op per enumerated pair; the popcount
            // path pays ~1 op per row window word plus the bitmap
            // build/clear. Engage on a modeled ≥2× win.
            const std::uint64_t pair_cost = pair_work(tile.begin, tile.end);
            const std::uint64_t row_words =
                (static_cast<std::uint64_t>(list[tile.end - 1]) >> 6) + 1;
            const std::uint64_t word_cost =
                2 * tile.end + (tile.end - tile.begin) * row_words;
            if (word_cost * 2 < pair_cost) {
              std::uint64_t* mask = masks->get(thread_index);
              set_hub_bits(mask, list.first(tile.begin));
              for (std::uint32_t a = tile.begin; a < tile.end; ++a) {
                const std::uint16_t h1 = list[a];
                if (a > 0) {
                  // Members list[0..a) all precede h1, so the mask's live
                  // words end at list[a-1]'s word.
                  const std::size_t live_words =
                      (static_cast<std::size_t>(list[a - 1]) >> 6) + 1;
                  found += h2h.row_hits(h1, mask, live_words);
                }
                mask[h1 >> 6] |= 1ULL << (h1 & 63);
              }
              clear_hub_bits(mask, list.first(tile.end));
              counted = true;
            }
          }
        }
        if (!counted) {
          std::uint16_t* row = nullptr;
          if constexpr (kVisit) row = hit_rows->get(thread_index);
          for (std::uint32_t a = tile.begin; a < tile.end; ++a) {
            const std::uint16_t h1 = list[a];
            probe.read(&list[a], sizeof(std::uint16_t));
            const std::uint64_t base = TriangularBitArray::row_base(h1);
            std::uint64_t row_hits = 0;
            for (std::uint32_t b = 0; b < a; ++b) {
              const std::uint16_t h2 = list[b];
              probe.read(&list[b], sizeof(std::uint16_t));
              const std::uint64_t bit = base + h2;
              probe.read(h2h.word_address(bit), sizeof(std::uint64_t));
              probe.op();
              const bool hit = h2h.test_bit(bit);
              probe.branch(4, hit);
              if constexpr (kVisit) row[row_hits] = h2;
              row_hits += hit ? 1u : 0u;
            }
            if constexpr (kVisit)
              if (row_hits != 0)
                visit(thread_index, tile.v, graph::VertexId{h1},
                      std::span<const std::uint16_t>(row, row_hits));
            found += row_hits;
          }
        }
        (lg.is_hub(tile.v) ? local.hhh : local.hhn) += found;
      }
      obs::count(obs::Counter::kBitarrayProbes, probes);
      partial[thread_index].value.hhh += local.hhh;
      partial[thread_index].value.hhn += local.hhn;
    });
  }

  parallel::WorkStealingScheduler scheduler(pool);
  std::vector<double> busy = scheduler.run(std::move(jobs));
  if (busy_s_out) *busy_s_out = std::move(busy);

  HubPhaseCounts total;
  for (const auto& p : partial) {
    total.hhh += p.value.hhh;
    total.hhn += p.value.hhn;
  }
  return total;
}

/// Phase 2 — HNN (Alg. 3 lines 7-9): for each non-hub edge (v, u), count the
/// common hub neighbours of v and u in the compact 16-bit HE lists.
///
/// With `vectorize` and no probe attached, HE(v) is set in a per-thread
/// bitmap over hub-ID space (≤ 8 KiB, L1-resident; see HubBitmaps) and every
/// element of each HE(u) is tested against it: Σ|HE(u)| bit tests instead of
/// a merge walking Σ(|HE(v)| + |HE(u)|) elements. Vertices with an empty
/// HE(v) or NHE(v) are skipped. Each chunk walks its NHE entries as one
/// stream, prefetching HE(u) ahead of use (kernels/edge_stream.hpp).
/// Otherwise (vectorize == false, or a probe attached for an instrumented
/// replay) the probe-templated scalar merge runs; it is the reference the
/// differential harness compares against. A visitor always takes the bitmap
/// step, whatever `vectorize` says: each NHE edge (v, u) packs its common
/// hubs into a per-thread row of hub_count slots (charged at
/// "hnn/hit-rows"), and `visit(thread_index, v, u, hubs)` sees an edge with
/// hits once. obs accounting: see HnnHitCounter.
template <typename Probe = baselines::NullProbe,
          typename Visit = baselines::NoVisit>
std::uint64_t count_hnn(const LotusGraph& lg,
                        Probe& probe = baselines::null_probe,
                        bool vectorize = true, Visit visit = {}) {
  const graph::Csr16& he = lg.he();
  const graph::CsrGraph& nhe = lg.nhe();
  constexpr bool kVisit = !std::is_same_v<Visit, baselines::NoVisit>;
  static_assert(!kVisit || std::is_same_v<Probe, baselines::NullProbe>,
                "a visited HNN phase carries no probe");
  if constexpr (std::is_same_v<Probe, baselines::NullProbe>) {
    if (vectorize || kVisit) {
      HubBitmaps bitmaps(lg.hub_count(), parallel::num_threads(),
                         "hnn/hub-bitmaps");
      std::optional<ThreadRows<std::uint16_t>> hit_rows;
      if constexpr (kVisit)
        hit_rows.emplace(lg.hub_count(), parallel::num_threads(),
                         "hnn/hit-rows");
      std::vector<parallel::Padded<std::uint64_t>> partial(
          parallel::num_threads());
      parallel::parallel_for(
          0, lg.num_vertices(), 64,
          [&](unsigned thread_index, std::uint64_t b, std::uint64_t e) {
            std::uint64_t* bitmap = bitmaps.get(thread_index);
            std::uint16_t* row = nullptr;
            if constexpr (kVisit) row = hit_rows->get(thread_index);
            std::uint64_t local = 0;
            HnnHitCounter counter;
            const std::uint64_t* nhe_offsets = nhe.offsets().data();
            const graph::VertexId* nhe_adj = nhe.neighbor_array().data();
            const kernels::EdgeStreamPrefetcher<std::uint16_t> prefetch(
                nhe_adj, nhe_offsets[e], he.offsets().data(),
                he.neighbor_array().data());
            for (std::uint64_t vi = b; vi < e; ++vi) {
              const auto v = static_cast<graph::VertexId>(vi);
              auto hub_list = he.neighbors(v);
              const std::uint64_t lo = nhe_offsets[vi];
              const std::uint64_t hi = nhe_offsets[vi + 1];
              if (hub_list.empty() || lo == hi) continue;
              set_hub_bits(bitmap, hub_list);
              for (std::uint64_t k = lo; k < hi; ++k) {
                prefetch(k);
                const graph::VertexId u = nhe_adj[k];
                const std::uint64_t hits =
                    counter.count<kVisit>(bitmap, he.neighbors(u), row);
                if constexpr (kVisit)
                  if (hits != 0)
                    visit(thread_index, v, u,
                          std::span<const std::uint16_t>(row, hits));
                local += hits;
              }
              clear_hub_bits(bitmap, hub_list);
            }
            counter.flush();
            partial[thread_index].value += local;
          });
      std::uint64_t total = 0;
      for (const auto& p : partial) total += p.value;
      return total;
    }
  }
  std::vector<parallel::Padded<std::uint64_t>> partial(parallel::num_threads());
  parallel::parallel_for(
      0, lg.num_vertices(), 64,
      [&](unsigned thread_index, std::uint64_t b, std::uint64_t e) {
        std::uint64_t local = 0;
        for (std::uint64_t vi = b; vi < e; ++vi) {
          const auto v = static_cast<graph::VertexId>(vi);
          auto hub_list = he.neighbors(v);
          for (graph::VertexId u : nhe.neighbors(v)) {
            probe.read(&u, sizeof(graph::VertexId));
            local += baselines::intersect_merge<std::uint16_t>(
                hub_list, he.neighbors(u), probe);
          }
        }
        partial[thread_index].value += local;
      });
  std::uint64_t total = 0;
  for (const auto& p : partial) total += p.value;
  return total;
}

/// Phase 3 — NNN (Alg. 3 lines 10-12): Forward algorithm restricted to the
/// NHE sub-graph; hub edges are never touched (the pruning of Sec. 3.3).
/// Uninstrumented vectorized runs go through the sparse-vs-dense hybrid
/// (kernels/hybrid.hpp), which prefetches along each chunk's NHE entry
/// stream. Its dense-bitmap scratch is suppressed — threshold pushed out of
/// reach — while a memory budget is accounting, so the LOTUS footprint
/// under a budget stays exactly the accounted topology.
template <typename Probe = baselines::NullProbe>
std::uint64_t count_nnn(const LotusGraph& lg,
                        Probe& probe = baselines::null_probe,
                        bool vectorize = true,
                        std::uint32_t hybrid_degree_threshold = 64) {
  const graph::CsrGraph& nhe = lg.nhe();
  if constexpr (std::is_same_v<Probe, baselines::NullProbe>) {
    if (vectorize) {
      const std::uint32_t threshold =
          util::memory_accounting_active() || hybrid_degree_threshold == 0
              ? ~std::uint32_t{0}
              : hybrid_degree_threshold;
      return kernels::hybrid_forward_count(nhe.offsets(), nhe.neighbor_array(),
                                           threshold);
    }
  }
  return parallel::parallel_reduce_add<std::uint64_t>(
      0, lg.num_vertices(), 64, [&](std::uint64_t vi) {
        const auto v = static_cast<graph::VertexId>(vi);
        auto nv = nhe.neighbors(v);
        std::uint64_t local = 0;
        for (graph::VertexId u : nv) {
          probe.read(&u, sizeof(graph::VertexId));
          local += baselines::intersect_merge<graph::VertexId>(
              nv, nhe.neighbors(u), probe);
        }
        return local;
      });
}

}  // namespace lotus::core
