// The positional Forward walk — Forward (v merges its list with the list of
// every u in it) with the merge reporting positions, so each triangle comes
// with its edges' flat positions, the index of edge-keyed arrays — and the
// corner-credit accumulator of its per-vertex users. Users: the LOTUS NNN
// credits on NHE, the oriented per-vertex counts, the k-truss supports.
// Runs on parallel_for (chunk-level cancellation polls); `fn` is called
// from pool workers and synchronizes its own writes.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "baselines/intersect.hpp"
#include "graph/csr.hpp"
#include "parallel/parallel_for.hpp"
#include "util/memory_budget.hpp"

namespace lotus::mining {

/// `fn(v, u, w, e_uv, e_wv, e_wu)` once per triangle of an oriented CSR
/// (strictly ascending lists, each edge stored once): u in N(v), w in
/// N(v) ∩ N(u), and `e_ab = offset(b) + pos(a in N(b))`.
template <typename Fn>
void forward_walk(const graph::Csr<graph::VertexId>& dag, const Fn& fn) {
  parallel::parallel_for(
      0, dag.num_vertices(), 64,
      [&](unsigned, std::uint64_t begin, std::uint64_t end) {
        for (auto v = static_cast<graph::VertexId>(begin); v < end; ++v) {
          const auto nv = dag.neighbors(v);
          for (std::size_t i = 0; i < nv.size(); ++i) {
            const graph::VertexId u = nv[i];
            baselines::intersect_merge<graph::VertexId>(
                nv, dag.neighbors(u), baselines::null_probe,
                [&](std::size_t a, std::size_t b) {
                  fn(v, u, nv[a], dag.offset(v) + i, dag.offset(v) + a,
                     dag.offset(u) + b);
                });
          }
        }
      });
}

/// Triangles through each vertex, credited in a graph's internal ID space
/// (relaxed atomics, safe from any thread) and read out by original ID.
/// Charges the credits and the output (2 · n · 8 B) to the memory budget up
/// front, so a budgeted query degrades before its traversal.
class CornerCredits {
 public:
  CornerCredits(graph::VertexId n, const char* site) {
    util::charge_current(2 * std::uint64_t{n} * sizeof(std::uint64_t), site);
    counts_ = std::vector<std::atomic<std::uint64_t>>(n);
  }

  void add(graph::VertexId a, graph::VertexId b, graph::VertexId c) noexcept {
    for (const graph::VertexId x : {a, b, c})
      counts_[x].fetch_add(1, std::memory_order_relaxed);
  }

  /// out[v] = credits[new_id[v]], remapped in parallel.
  [[nodiscard]] std::vector<std::uint64_t> by_original(
      std::span<const graph::VertexId> new_id) const {
    std::vector<std::uint64_t> out(new_id.size());
    parallel::parallel_for(0, new_id.size(), 4096,
                           [&](unsigned, std::uint64_t begin, std::uint64_t end) {
                             for (std::uint64_t v = begin; v < end; ++v)
                               out[v] = counts_[new_id[v]].load(
                                   std::memory_order_relaxed);
                           });
    return out;
  }

 private:
  std::vector<std::atomic<std::uint64_t>> counts_;
};

}  // namespace lotus::mining
