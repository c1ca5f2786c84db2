#include "lotus/lotus_graph.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <utility>

#include "lotus/hub_bitmaps.hpp"
#include "lotus/relabel.hpp"
#include "parallel/parallel_for.hpp"
#include "util/memory_budget.hpp"

namespace lotus::core {

using graph::CsrGraph;
using graph::VertexId;

LotusGraph LotusGraph::from_parts(VertexId hub_count, TriangularBitArray h2h,
                                  graph::Csr16 he, CsrGraph nhe,
                                  util::ConstArray<VertexId> new_id) {
  if (he.num_vertices() != nhe.num_vertices() ||
      static_cast<std::size_t>(he.num_vertices()) != new_id.size())
    throw std::invalid_argument("LotusGraph parts disagree on vertex count");
  if (h2h.hub_count() != hub_count)
    throw std::invalid_argument("H2H hub count mismatch");
  LotusGraph lg;
  lg.num_vertices_ = he.num_vertices();
  lg.hub_count_ = hub_count;
  lg.h2h_ = std::move(h2h);
  lg.he_ = std::move(he);
  lg.nhe_ = std::move(nhe);
  lg.new_id_ = std::move(new_id);
  return lg;
}

namespace {

// HE lists at least this long are sorted through the thread's hub-space
// bitmap, shorter ones by std::sort: the crossover of a list-length sweep
// on the factor-16 RMAT and copy-model graphs.
constexpr std::size_t kBitmapSortMinLength = 64;

// Pass 2 stages each neighbour list in blocks of this many entries: the four
// per-thread block buffers take 3.5 KiB, so they stay in L1.
constexpr std::size_t kStageBlock = 256;

// Sort `list` (hub IDs) ascending through `bitmap`, which is all-zero on
// entry and on return: set each entry's bit, then read the bits back with
// ctz over the list's [min, max] words, clearing them. The input CSR is not
// checked for repeated entries, and a repeat would collapse into one bit,
// so a list with one falls back to std::sort and keeps it.
void bitmap_sort(std::span<std::uint16_t> list, std::uint64_t* bitmap) {
  std::uint64_t repeated = 0;
  std::uint16_t lo = list.front(), hi = list.front();
  for (const std::uint16_t h : list) {
    const std::uint64_t bit = 1ULL << (h & 63);
    repeated |= bitmap[h >> 6] & bit;
    bitmap[h >> 6] |= bit;
    lo = std::min(lo, h);
    hi = std::max(hi, h);
  }
  std::uint64_t* const first = bitmap + (lo >> 6);
  std::uint64_t* const last = bitmap + (hi >> 6) + 1;
  if (repeated != 0) {
    std::fill(first, last, 0);
    std::sort(list.begin(), list.end());
    return;
  }
  std::uint16_t* out = list.data();
  for (std::uint64_t* w = first; w != last; ++w) {
    const auto base = static_cast<unsigned>(w - bitmap) * 64;
    for (std::uint64_t word = std::exchange(*w, 0); word != 0; word &= word - 1)
      *out++ = static_cast<std::uint16_t>(base + static_cast<unsigned>(std::countr_zero(word)));
  }
}

}  // namespace

LotusGraph LotusGraph::build(const CsrGraph& graph, const LotusConfig& config,
                             obs::PhaseTracer* tracer) {
  LotusGraph lg;
  const VertexId n = graph.num_vertices();
  lg.num_vertices_ = n;
  lg.hub_count_ = config.resolve_hub_count(n);
  const VertexId hubs = lg.hub_count_;
  const VertexId reorder_count = config.resolve_reorder_count(n, hubs);

  {
    obs::ScopedSpan span(tracer, "relabel");
    // create_relabeling_array charges its own buffers; old_of_new below
    // adds one more VertexId array.
    util::charge_current(static_cast<std::uint64_t>(n) * sizeof(VertexId),
                         "relabel_buffers");
    lg.new_id_ = create_relabeling_array(graph, reorder_count);
    if (tracer != nullptr) {
      tracer->note("hub_count", static_cast<std::uint64_t>(hubs));
      tracer->note("reorder_count", static_cast<std::uint64_t>(reorder_count));
    }
  }
  const VertexId* const new_id = lg.new_id_.data();

  // The inverse permutation: new_id_ is a bijection, so every chunk writes
  // disjoint slots. (An interrupted relabel returns a partial array, but the
  // interrupt is latched, so this loop then runs no chunk at all.) The
  // caller discards a partial LotusGraph, so each parallel loop from here on
  // is followed by a return rather than by work on slots it may have skipped.
  std::vector<VertexId> old_of_new(n);
  parallel::parallel_for(0, n, 4096,
      [&](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t v = b; v < e; ++v)
          old_of_new[new_id[v]] = static_cast<VertexId>(v);
      });
  if (parallel::interrupted()) return lg;

  // Pass 1: per-vertex HE/NHE degrees. u is a lower neighbour of v iff
  // u_new < v_new, which also drops a self-edge (then u_new == v_new), and
  // an HE entry iff it is a hub as well; both are counted without a branch.
  util::charge_current((static_cast<std::uint64_t>(n) + 1) * 2 * sizeof(std::uint64_t),
                       "csx_offsets");
  std::vector<std::uint64_t> he_offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::uint64_t> nhe_offsets(static_cast<std::size_t>(n) + 1, 0);
  std::uint64_t* const he_off = he_offsets.data();
  std::uint64_t* const nhe_off = nhe_offsets.data();
  {
    obs::ScopedSpan span(tracer, "partition");
    parallel::parallel_for(0, n, 512,
        [&](unsigned, std::uint64_t b, std::uint64_t e) {
          for (std::uint64_t wi = b; wi < e; ++wi) {
            const auto v_new = static_cast<VertexId>(wi);
            std::uint64_t lower = 0, he_deg = 0;
            for (const VertexId u_old : graph.neighbors(old_of_new[wi])) {
              const VertexId u_new = new_id[u_old];
              lower += static_cast<std::uint64_t>(u_new < v_new);
              he_deg += static_cast<std::uint64_t>((u_new < hubs) & (u_new < v_new));
            }
            he_off[wi + 1] = he_deg;
            nhe_off[wi + 1] = lower - he_deg;
          }
        });
    if (parallel::interrupted()) return lg;
    std::partial_sum(he_off, he_off + n + 1, he_off);
    std::partial_sum(nhe_off, nhe_off + n + 1, nhe_off);
  }

  // Pass 2: fill each vertex's HE and NHE slots, sort them, and set its H2H
  // row. Each block of the neighbour list is gathered into the lower
  // neighbours, which are then split three ways, both without a branch:
  //   * HE entries (hubs): a long list is sorted through the thread's hub
  //     bitmap, a short one by std::sort.
  //   * NHE head (reordered non-hubs, u_new < reorder_count): written from
  //     the front of the slot and sorted.
  //   * NHE tail (plain vertices): written from the back of the slot, then
  //     reversed. Plain vertices keep their relative input order
  //     (relabel.hpp), so the tail is already sorted whenever the input list
  //     was, and is only sorted when it is not. Every reordered ID is below
  //     every plain one, so head then tail is the sorted list.
  {
    obs::ScopedSpan span(tracer, "serialize");
    util::charge_current(TriangularBitArray::size_bytes_for(hubs), "h2h_bitarray");
    lg.h2h_ = TriangularBitArray(hubs);

    util::charge_current(he_off[n] * sizeof(std::uint16_t) + nhe_off[n] * sizeof(VertexId),
                         "csx_neighbors");
    std::vector<std::uint16_t> he_array(he_off[n]);
    std::vector<VertexId> nhe_array(nhe_off[n]);
    std::uint16_t* const he_neighbors = he_array.data();
    VertexId* const nhe_neighbors = nhe_array.data();
    HubBitmaps bitmaps(hubs, parallel::num_threads(), "build/hub-bitmaps");
    parallel::parallel_for(0, n, 512,
        [&](unsigned thread_index, std::uint64_t b, std::uint64_t e) {
          VertexId lower_block[kStageBlock];
          std::uint16_t he_block[kStageBlock];
          VertexId head_block[kStageBlock];
          VertexId tail_block[kStageBlock];
          for (std::uint64_t wi = b; wi < e; ++wi) {
            const auto v_new = static_cast<VertexId>(wi);
            std::uint16_t* const he_first = he_neighbors + he_off[wi];
            std::uint16_t* he_out = he_first;
            VertexId* const nhe_first = nhe_neighbors + nhe_off[wi];
            VertexId* const nhe_last = nhe_neighbors + nhe_off[wi + 1];
            VertexId* head = nhe_first;
            VertexId* tail = nhe_last;
            const std::span<const VertexId> adj = graph.neighbors(old_of_new[wi]);
            for (std::size_t at = 0; at < adj.size(); at += kStageBlock) {
              const std::size_t block = std::min(kStageBlock, adj.size() - at);
              std::size_t lower = 0;
              for (std::size_t k = 0; k < block; ++k) {
                const VertexId u_new = new_id[adj[at + k]];
                lower_block[lower] = u_new;
                lower += static_cast<std::size_t>(u_new < v_new);
              }
              std::size_t to_he = 0, to_head = 0, to_tail = 0;
              for (std::size_t k = 0; k < lower; ++k) {
                const VertexId u_new = lower_block[k];
                const bool hub = u_new < hubs;
                const bool reordered = u_new < reorder_count;
                he_block[to_he] = static_cast<std::uint16_t>(u_new);
                head_block[to_head] = u_new;
                tail_block[to_tail] = u_new;
                to_he += static_cast<std::size_t>(hub);
                to_head += static_cast<std::size_t>(!hub && reordered);
                to_tail += static_cast<std::size_t>(!reordered);
              }
              he_out = std::copy_n(he_block, to_he, he_out);
              head = std::copy_n(head_block, to_head, head);
              tail -= to_tail;
              std::reverse_copy(tail_block, tail_block + to_tail, tail);
            }

            const std::span<std::uint16_t> he_list(he_first, he_out);
            if (he_list.size() >= kBitmapSortMinLength)
              bitmap_sort(he_list, bitmaps.get(thread_index));
            else
              std::sort(he_list.begin(), he_list.end());
            if (v_new < hubs) lg.h2h_.set_row_atomic(v_new, he_list);
            std::sort(nhe_first, head);
            std::reverse(tail, nhe_last);
            if (!std::is_sorted(tail, nhe_last)) std::sort(tail, nhe_last);
          }
        });
    if (parallel::interrupted()) return lg;

    lg.he_ = graph::Csr16(std::move(he_offsets), std::move(he_array));
    lg.nhe_ = CsrGraph(std::move(nhe_offsets), std::move(nhe_array));
    if (tracer != nullptr) {
      tracer->note("he_edges", lg.he_.num_edges());
      tracer->note("nhe_edges", lg.nhe_.num_edges());
      tracer->note("topology_bytes", lg.topology_bytes());
    }
  }
  return lg;
}

}  // namespace lotus::core
