// The positional Forward walk — Forward (v merges its list with the list of
// every u in it) with the merge reporting positions, so each triangle comes
// with its edges' flat positions, the index of edge-keyed arrays — and the
// corner-credit accumulator of its per-vertex users. Users: the LOTUS NNN
// credits on NHE, the oriented per-vertex counts, the k-truss supports.
// Runs on parallel_for (chunk-level cancellation polls); `fn` is called
// from pool workers with the worker's thread index and synchronizes its own
// writes (CornerCredits keeps one private row per thread for that).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "baselines/intersect.hpp"
#include "graph/csr.hpp"
#include "parallel/parallel_for.hpp"
#include "util/memory_budget.hpp"

namespace lotus::mining {

/// `fn(thread, v, u, w, e_uv, e_wv, e_wu)` once per triangle of an oriented
/// CSR (strictly ascending lists, each edge stored once): u in N(v), w in
/// N(v) ∩ N(u), `e_ab = offset(b) + pos(a in N(b))`, and `thread` the pool
/// thread index in [0, parallel::num_threads()).
template <typename Fn>
void forward_walk(const graph::Csr<graph::VertexId>& dag, const Fn& fn) {
  parallel::parallel_for(
      0, dag.num_vertices(), 64,
      [&](unsigned thread, std::uint64_t begin, std::uint64_t end) {
        for (auto v = static_cast<graph::VertexId>(begin); v < end; ++v) {
          const auto nv = dag.neighbors(v);
          for (std::size_t i = 0; i < nv.size(); ++i) {
            const graph::VertexId u = nv[i];
            baselines::intersect_merge<graph::VertexId>(
                nv, dag.neighbors(u), baselines::null_probe,
                [&](std::size_t a, std::size_t b) {
                  fn(thread, v, u, nv[a], dag.offset(v) + i,
                     dag.offset(v) + a, dag.offset(u) + b);
                });
          }
        }
      });
}

/// Triangles through each vertex, credited in a graph's internal ID space
/// and read out by original ID. IDs below P = min(n, 65536) — the LOTUS
/// hubs (HE lists are 16-bit) and, in degree order, the heaviest vertices —
/// are credited with plain increments into the calling thread's private
/// row, so hub lines never bounce between cores; the rest share one
/// relaxed-atomic tail. `add` takes the pool thread index the walks hand
/// their visitors. Charges the rows, the tail and the output
/// (threads · P · 8 B + (n − P) · 8 B + n · 8 B) to the memory budget up
/// front, so a budgeted query degrades before its traversal.
class CornerCredits {
 public:
  CornerCredits(graph::VertexId n, const char* site)
      : prefix_(std::min(n, kMaxPrefix)), threads_(parallel::num_threads()) {
    util::charge_current(
        (threads_ * prefix_ + std::uint64_t{n - prefix_} + n) *
            sizeof(std::uint64_t),
        site);
    rows_.assign(threads_ * prefix_, 0);
    tail_ = std::vector<std::atomic<std::uint64_t>>(n - prefix_);
  }

  void add(unsigned thread, graph::VertexId a, graph::VertexId b,
           graph::VertexId c) noexcept {
    std::uint64_t* row = rows_.data() + std::uint64_t{thread} * prefix_;
    for (const graph::VertexId x : {a, b, c}) {
      if (x < prefix_)
        ++row[x];
      else
        tail_[x - prefix_].fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// out[v] = credits[new_id[v]]: the rows summed for prefix IDs, the tail
  /// otherwise, remapped in parallel.
  [[nodiscard]] std::vector<std::uint64_t> by_original(
      std::span<const graph::VertexId> new_id) const {
    std::vector<std::uint64_t> out(new_id.size());
    parallel::parallel_for(
        0, new_id.size(), 4096,
        [&](unsigned, std::uint64_t begin, std::uint64_t end) {
          for (std::uint64_t v = begin; v < end; ++v) {
            const graph::VertexId x = new_id[v];
            if (x >= prefix_) {
              out[v] = tail_[x - prefix_].load(std::memory_order_relaxed);
              continue;
            }
            std::uint64_t sum = 0;
            for (std::uint64_t t = 0; t < threads_; ++t)
              sum += rows_[t * prefix_ + x];
            out[v] = sum;
          }
        });
    return out;
  }

 private:
  static constexpr graph::VertexId kMaxPrefix = 65536;

  graph::VertexId prefix_;
  std::uint64_t threads_;
  std::vector<std::uint64_t> rows_;  // threads_ rows of prefix_ credits
  std::vector<std::atomic<std::uint64_t>> tail_;
};

}  // namespace lotus::mining
