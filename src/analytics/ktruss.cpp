#include "analytics/ktruss.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <new>
#include <span>
#include <utility>

#include "kernels/dispatch.hpp"
#include "mining/triangle_walk.hpp"
#include "parallel/exec_context.hpp"
#include "util/memory_budget.hpp"

namespace lotus::analytics {

using graph::OrientedCsr;
using graph::VertexId;

namespace {

/// Cancellation/deadline poll cadence of the peel, which is sequential
/// (edges leave in support order) and so cannot rely on parallel_for's.
constexpr std::uint64_t kPeelPollInterval = 2048;

/// `c[i + 1]` holds item i's count; make it item i's first slot. After one
/// `c[i + 1]++` per placed entry, [c[i], c[i + 1]) is item i's range: the
/// fill cursors become the offsets in place.
template <typename T>
void counts_to_cursors(std::span<T> c) {
  T start = 0;
  for (T& slot : c.subspan(1)) start += std::exchange(slot, start);
}

/// The triangle index's allocator: one anonymous mapping, unmapped on free.
/// glibc would serve a block this large by mmap too, but freeing it raises
/// the dynamic mmap threshold to its size, after which every thread's arena
/// keeps freed blocks up to that size resident.
template <typename T>
struct MappedAllocator {
  using value_type = T;
  T* allocate(std::size_t n) {
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) noexcept { ::munmap(p, n * sizeof(T)); }
  bool operator==(const MappedAllocator&) const = default;
};

/// The Batagelj–Zaversnik peel. `order` holds the edges sorted by support,
/// `bin[s]` the first position of support s. Each step peels the next edge
/// e at its support s; every live triangle through e moves its other two
/// edges one bin down (a swap with the first edge of their bin), never
/// below s. `triangles(e, visit)` calls `visit(f, g)` for the other two
/// edges of each triangle through e, which is live while neither f nor g
/// has been peeled (trussness still 0): each triangle dies exactly once.
template <typename EdgeId, typename Triangles>
void peel(std::vector<std::uint32_t>& support, std::uint32_t max_support,
          const Triangles& triangles, std::vector<std::uint32_t>& trussness) {
  const auto m = static_cast<EdgeId>(support.size());
  std::vector<EdgeId> bin(std::uint64_t{max_support} + 2, 0), order(m), pos(m);
  for (EdgeId e = 0; e < m; ++e) ++bin[support[e] + 1];
  counts_to_cursors(std::span(bin));
  for (EdgeId e = 0; e < m; ++e) order[pos[e] = bin[support[e] + 1]++] = e;
  for (EdgeId i = 0; i < m; ++i) {
    // The poll at i = 0 also stops a peel whose index walk was interrupted.
    if (i % kPeelPollInterval == 0 && parallel::interrupted()) return;
    const EdgeId e = order[i];
    const std::uint32_t s = support[e];
    trussness[e] = s + 2;
    triangles(e, [&](EdgeId f, EdgeId g) {
      if (trussness[f] != 0 || trussness[g] != 0) return;
      for (const EdgeId x : {f, g}) {
        if (support[x] <= s) continue;
        const EdgeId px = pos[x], pw = bin[support[x]--]++;
        std::swap(pos[x], pos[order[pw]]);
        std::swap(order[px], order[pw]);
      }
    });
  }
}

template <typename EdgeId>
void decompose(const OrientedCsr& oriented, KTrussResult& result) {
  const std::uint64_t m = oriented.num_edges();
  const VertexId n = oriented.num_vertices();
  const auto& lower = oriented.neighbor_array();
  // Trussness and support (4 B each), the peel's order and position (one
  // edge ID each): charged before the first allocation so budgeted queries
  // degrade instead of dying mid-build.
  util::charge_current(m * (8 + 2 * sizeof(EdgeId)), "ktruss/edge-state");
  result.trussness.assign(m, 0);

  // Supports via one positional Forward walk: the flat positions of each
  // triangle's edges (u,v), (w,v) and (w,u) are their edge IDs, and (u,v)
  // gains all of its pair's hits at once.
  mining::ForwardWalk walk(oriented, /*report_u=*/true, "ktruss/walk-positions");
  std::vector<std::uint32_t> support(m, 0);
  const auto bump = [&](std::uint64_t e, std::uint32_t by) {
    std::atomic_ref(support[e]).fetch_add(by, std::memory_order_relaxed);
  };
  walk.run([&](unsigned, VertexId v, VertexId u, const mining::PairHits& hits) {
    bump(hits.e_uv, static_cast<std::uint32_t>(hits.count));
    for (std::uint64_t k = 0; k < hits.count; ++k) {
      bump(oriented.offset(v) + hits.at_v[k], 1);
      bump(oriented.offset(u) + hits.at_u[k], 1);
    }
  });
  if (parallel::interrupted()) return;  // partial: all-zero trussness
  std::uint64_t incidences = 0;         // 3 per triangle
  for (const std::uint32_t s : support) incidences += s;
  const std::uint32_t max_support = *std::max_element(support.begin(), support.end());
  // The peel's bins, and the two position rows of the merge peel's kernel
  // calls: a triangle-source call sees at most max_support triangles, which
  // bounds each merge's hits. Charged on both paths, before the index, so
  // the merge path fits wherever its lists are smaller than the index.
  const std::uint64_t positions = std::uint64_t{max_support} + kernels::kMergeSlack;
  util::charge_current((std::uint64_t{max_support} + 2) * sizeof(EdgeId) +
                           2 * positions * sizeof(std::uint32_t),
                       "ktruss/edge-state");

  // The triangle index — for each edge, the (f, g) pair of every triangle
  // through it, at offsets from the supports' prefix sum — when its IDs fit
  // 32 bits and the budget admits it (site ktruss/triangle-index).
  result.indexed = sizeof(EdgeId) == 4 && incidences < (std::uint64_t{1} << 32) &&
                   util::try_charge_current(incidences * 8 + (m + 1) * 4);
  if (result.indexed) {
    std::vector<std::uint32_t> offsets(m + 1, 0);
    std::copy(support.begin(), support.end(), offsets.begin() + 1);
    counts_to_cursors(std::span(offsets));
    using Incidence = std::pair<std::uint32_t, std::uint32_t>;
    std::vector<Incidence, MappedAllocator<Incidence>> index(incidences);
    // (u,v) takes its pair's hits as one run of slots.
    const auto claim = [&](std::uint64_t e, std::uint32_t slots) {
      return std::atomic_ref(offsets[e + 1]).fetch_add(slots, std::memory_order_relaxed);
    };
    walk.run([&](unsigned, VertexId v, VertexId u, const mining::PairHits& hits) {
      const auto e_uv = static_cast<std::uint32_t>(hits.e_uv);
      std::uint32_t run = claim(e_uv, static_cast<std::uint32_t>(hits.count));
      for (std::uint64_t k = 0; k < hits.count; ++k) {
        const auto e_wv = static_cast<std::uint32_t>(oriented.offset(v) + hits.at_v[k]);
        const auto e_wu = static_cast<std::uint32_t>(oriented.offset(u) + hits.at_u[k]);
        index[run++] = {e_wv, e_wu};
        index[claim(e_wv, 1)] = {e_uv, e_wu};
        index[claim(e_wu, 1)] = {e_uv, e_wv};
      }
    });
    peel<EdgeId>(support, max_support, [&](EdgeId e, const auto& visit) {
      for (std::uint32_t k = offsets[e]; k < offsets[e + 1]; ++k)
        visit(index[k].first, index[k].second);
    }, result.trussness);
    return;
  }

  // Otherwise a merge of the endpoints' symmetric lists: a vertex's lower
  // neighbours are its oriented list (edge IDs are the positions), its
  // upper ones the transposed list, filled in one pass over the oriented
  // lists in ascending order — so sorted with no sort — with edge IDs.
  util::charge_current((std::uint64_t{n} + 1) * 8 + m * (4 + sizeof(EdgeId)),
                       "ktruss/merge-lists");
  std::vector<std::uint64_t> upper_offsets(std::uint64_t{n} + 1, 0);
  for (const VertexId u : lower) ++upper_offsets[u + 1];
  counts_to_cursors(std::span(upper_offsets));
  std::vector<VertexId> upper_neighbors(m);
  std::vector<EdgeId> upper_ids(m);
  for (VertexId v = 0; v < n; ++v)
    for (std::uint64_t e = oriented.offset(v); e < oriented.offset(v + 1); ++e) {
      const std::uint64_t slot = upper_offsets[lower[e] + 1]++;
      upper_neighbors[slot] = v;
      upper_ids[slot] = static_cast<EdgeId>(e);
    }
  const graph::Csr<VertexId> upper(std::move(upper_offsets), std::move(upper_neighbors));
  const auto& offsets = oriented.offsets();
  const kernels::KernelTable& table = kernels::kernel_table();
  std::vector<std::uint32_t> at_x(positions), at_y(positions);
  // on_hit(i, j) for each common element x[i] == y[j].
  const auto merge = [&](std::span<const VertexId> x, std::span<const VertexId> y,
                         const auto& on_hit) {
    const std::uint64_t hits = table.merge_u32(x.data(), x.size(), y.data(),
                                               y.size(), at_x.data(), at_y.data());
    for (std::uint64_t k = 0; k < hits; ++k) on_hit(at_x[k], at_y[k]);
  };
  peel<EdgeId>(support, max_support, [&](EdgeId e, const auto& visit) {
    // e = (a, b), a < b, sits in b's list; the third vertex w lies below a,
    // between a and b, or above b.
    const auto b = static_cast<VertexId>(
        std::upper_bound(offsets.begin(), offsets.end(), e) - offsets.begin() - 1);
    const VertexId a = lower[e];
    const auto la = static_cast<EdgeId>(offsets[a]);
    const auto lb = static_cast<EdgeId>(offsets[b]);
    const EdgeId* ids_a = upper_ids.data() + upper.offset(a);
    const EdgeId* ids_b = upper_ids.data() + upper.offset(b);
    const auto nb = oriented.neighbors(b);
    merge(oriented.neighbors(a), nb.first(e - lb), [&](std::uint32_t i, std::uint32_t j) {
      visit(static_cast<EdgeId>(la + i), static_cast<EdgeId>(lb + j));
    });
    merge(upper.neighbors(a), nb.subspan(e - lb + 1), [&](std::uint32_t i, std::uint32_t j) {
      visit(ids_a[i], static_cast<EdgeId>(e + 1 + j));
    });
    merge(upper.neighbors(a), upper.neighbors(b),
          [&](std::uint32_t i, std::uint32_t j) { visit(ids_a[i], ids_b[j]); });
  }, result.trussness);
}

}  // namespace

KTrussResult ktruss_prepared(const OrientedCsr& oriented) {
  KTrussResult result;
  const std::uint64_t m = oriented.num_edges();
  if (m == 0) return result;
  if (edge_id_bytes(m) == 4)
    decompose<std::uint32_t>(oriented, result);
  else
    decompose<std::uint64_t>(oriented, result);
  if (parallel::interrupted()) return result;  // partial decomposition
  result.max_k = *std::max_element(result.trussness.begin(), result.trussness.end());
  result.edges_in_max_truss = static_cast<std::uint64_t>(
      std::count(result.trussness.begin(), result.trussness.end(), result.max_k));
  return result;
}

}  // namespace lotus::analytics
