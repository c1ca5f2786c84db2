// The positional Forward walk — Forward (v merges its list with the list of
// every u in it) with the dispatched merge kernel reporting positions — and
// the corner-credit accumulator of its per-vertex users. Users: the LOTUS
// NNN credits on NHE, the oriented per-vertex counts, the k-truss supports
// and triangle index.
//
// Visitor contract: the walk calls its visitor once per (v, u) pair with at
// least one common neighbour, never once per triangle. The pair's hits are
// the kernel's position outputs (PairHits), so a visitor credits v and u
// once per pair and loops over the positions for the third vertices and
// their edges. Runs on parallel_for (chunk-level cancellation polls); the
// visitor is called from pool workers with the worker's thread index and
// synchronizes its own writes (CornerCredits keeps one private row per
// thread for that).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "kernels/dispatch.hpp"
#include "obs/counters.hpp"
#include "parallel/parallel_for.hpp"
#include "util/memory_budget.hpp"

namespace lotus::mining {

/// The common neighbours of one walk pair (v, u), u in N(v): `count` of
/// them, the k-th (ascending) at N(v)[at_v[k]] and, when the walk reports
/// them, at N(u)[at_u[k]]. `e_uv` is the flat position of u in v's list, so
/// edge (w_k, v) sits at offset(v) + at_v[k] and (w_k, u) at
/// offset(u) + at_u[k].
struct PairHits {
  std::uint64_t e_uv;
  std::uint64_t count;
  const std::uint32_t* at_v;
  const std::uint32_t* at_u;  // null unless the walk reports N(u) positions
};

/// The positional Forward walk over an oriented CSR (strictly ascending
/// lists, each edge stored once). Holds one row of kernel position outputs
/// per pool thread and reported list — max out-degree + kMergeSlack slots,
/// rounded up to a cache line — charged to the memory budget at `site` on
/// construction, before any walk.
class ForwardWalk {
 public:
  ForwardWalk(const graph::Csr<graph::VertexId>& dag, bool report_u,
              const char* site)
      : dag_(dag), stride_(row_slots(dag)), report_u_(report_u) {
    const std::uint64_t slots =
        std::uint64_t{parallel::num_threads()} * (report_u ? 2 : 1) * stride_;
    util::charge_current(slots * sizeof(std::uint32_t), site);
    rows_.resize(slots);
  }

  /// `fn(thread, v, u, hits)` once per pair (v, u) with hits.count > 0;
  /// `thread` is the pool thread index in [0, parallel::num_threads()).
  /// Since N(u) holds IDs below u, only N(v)'s prefix before u can match.
  template <typename Fn>
  void run(const Fn& fn) {
    const kernels::KernelTable& table = kernels::kernel_table();
    const std::uint64_t lists = report_u_ ? 2 : 1;
    parallel::parallel_for(
        0, dag_.num_vertices(), 64,
        [&](unsigned thread, std::uint64_t begin, std::uint64_t end) {
          std::uint32_t* at_v = rows_.data() + thread * lists * stride_;
          std::uint32_t* at_u = report_u_ ? at_v + stride_ : nullptr;
          // obs tallies in the dispatched merge's convention
          // (kernels/forward_count.hpp); dead when LOTUS_OBS=0.
          std::uint64_t comparisons = 0, fruitless = 0;
          for (auto v = static_cast<graph::VertexId>(begin); v < end; ++v) {
            const auto nv = dag_.neighbors(v);
            for (std::size_t i = 1; i < nv.size(); ++i) {
              const graph::VertexId u = nv[i];
              const auto nu = dag_.neighbors(u);
              if (nu.empty()) continue;
              const std::uint64_t count = table.merge_u32(
                  nv.data(), i, nu.data(), nu.size(), at_v, at_u);
              comparisons += i + nu.size();
              if (count == 0) {
                ++fruitless;
                continue;
              }
              fn(thread, v, u, PairHits{dag_.offset(v) + i, count, at_v, at_u});
            }
          }
          obs::count(obs::Counter::kIntersectComparisons, comparisons);
          obs::count(obs::Counter::kFruitlessSearches, fruitless);
        });
  }

 private:
  static std::uint64_t row_slots(const graph::Csr<graph::VertexId>& dag) {
    std::uint64_t max_degree = 0;
    for (graph::VertexId v = 0; v < dag.num_vertices(); ++v)
      max_degree = std::max<std::uint64_t>(max_degree, dag.degree(v));
    constexpr std::uint64_t kLine = 64 / sizeof(std::uint32_t);
    return (max_degree + kernels::kMergeSlack + kLine - 1) / kLine * kLine;
  }

  const graph::Csr<graph::VertexId>& dag_;
  std::uint64_t stride_;
  bool report_u_;
  std::vector<std::uint32_t> rows_;  // threads × (1 or 2) rows of stride_
};

/// Triangles through each vertex, credited in a graph's internal ID space
/// and read out by original ID. IDs below P = min(n, 65536) — the LOTUS
/// hubs (HE lists are 16-bit) and, in degree order, the heaviest vertices —
/// are credited with plain adds into the calling thread's private row, so
/// hub lines never bounce between cores; the rest share one relaxed-atomic
/// tail. `add` takes the pool thread index the walks hand their visitors.
/// Charges the rows, the tail and the output
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

  /// The `hits` triangles of one pair (v, u): v and u gain `hits` each, and
  /// each third vertex `third(k)`, k < hits, gains one.
  template <typename Third>
  void add(unsigned thread, graph::VertexId v, graph::VertexId u,
           std::uint64_t hits, const Third& third) noexcept {
    std::uint64_t* row = rows_.data() + std::uint64_t{thread} * prefix_;
    credit(row, v, hits);
    credit(row, u, hits);
    for (std::uint64_t k = 0; k < hits; ++k) credit(row, third(k), 1);
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

  void credit(std::uint64_t* row, graph::VertexId x,
              std::uint64_t amount) noexcept {
    if (x < prefix_)
      row[x] += amount;
    else
      tail_[x - prefix_].fetch_add(amount, std::memory_order_relaxed);
  }

  graph::VertexId prefix_;
  std::uint64_t threads_;
  std::vector<std::uint64_t> rows_;  // threads_ rows of prefix_ credits
  std::vector<std::atomic<std::uint64_t>> tail_;
};

}  // namespace lotus::mining
