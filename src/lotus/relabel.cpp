#include "lotus/relabel.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>

#include "parallel/exec_context.hpp"
#include "parallel/parallel_for.hpp"
#include "util/memory_budget.hpp"

namespace lotus::core {

using graph::CsrGraph;
using graph::VertexId;

std::vector<VertexId> create_relabeling_array(const CsrGraph& graph,
                                              VertexId reorder_count) {
  const VertexId n = graph.num_vertices();
  const VertexId k = std::min(reorder_count, n);
  constexpr std::uint32_t cap = kRelabelHistogramCap;
  const std::uint64_t buckets = cap + 1;  // bucket `cap` = overflow
  const std::uint64_t blocks =
      (static_cast<std::uint64_t>(n) + kRelabelBlock - 1) / kRelabelBlock;
  const unsigned threads = parallel::num_threads();

  // new_id, the selected block, the per-thread histograms and two per-block
  // counters.
  util::charge_current((static_cast<std::uint64_t>(n) + k + threads * buckets +
                        2 * blocks) * sizeof(VertexId),
                       "relabel_buffers");
  std::vector<VertexId> new_id(n);
  if (k == 0) {
    std::iota(new_id.begin(), new_id.end(), VertexId{0});
    return new_id;
  }
  auto block_begin = [](std::uint64_t b) { return b * kRelabelBlock; };
  auto block_end = [n](std::uint64_t b) {
    return std::min<std::uint64_t>((b + 1) * kRelabelBlock, n);
  };

  // Pass 1: per-thread degree histograms, and each block's overflow count.
  std::vector<VertexId> hist(threads * buckets, 0);
  std::vector<VertexId> block_a(blocks), block_b(blocks);
  parallel::parallel_for(0, blocks, 1,
      [&](unsigned t, std::uint64_t bb, std::uint64_t be) {
        VertexId* h = hist.data() + t * buckets;
        for (std::uint64_t b = bb; b < be; ++b) {
          VertexId over = 0;
          for (std::uint64_t v = block_begin(b); v < block_end(b); ++v) {
            const std::uint32_t d = graph.degree(static_cast<VertexId>(v));
            ++h[std::min(d, cap)];
            over += d >= cap ? 1 : 0;
          }
          block_a[b] = over;
        }
      });
  if (parallel::interrupted()) return new_id;
  for (unsigned t = 1; t < threads; ++t)
    for (std::uint64_t d = 0; d < buckets; ++d) hist[d] += hist[t * buckets + d];
  const VertexId over = hist[cap];

  // The cutoff is the degree of the k-th vertex in descending order; `take`
  // of the vertices at exactly that degree (the lowest IDs) make the cut.
  std::uint32_t cutoff = 0;
  VertexId take = 0;
  if (over >= k) {
    // The cutoff is in the overflow range: resolve it from the overflow
    // vertices' degrees, gathered at per-block offsets.
    util::charge_current(static_cast<std::uint64_t>(over) * sizeof(std::uint32_t),
                         "relabel_buffers");
    std::vector<std::uint32_t> overflow(over);
    VertexId offset = 0;
    for (VertexId& c : block_a) offset += std::exchange(c, offset);
    parallel::parallel_for(0, blocks, 1,
        [&](unsigned, std::uint64_t bb, std::uint64_t be) {
          for (std::uint64_t b = bb; b < be; ++b) {
            VertexId out = block_a[b];
            for (std::uint64_t v = block_begin(b); v < block_end(b); ++v) {
              const std::uint32_t d = graph.degree(static_cast<VertexId>(v));
              if (d >= cap) overflow[out++] = d;
            }
          }
        });
    if (parallel::interrupted()) return new_id;
    std::nth_element(overflow.begin(), overflow.begin() + (k - 1), overflow.end(),
                     std::greater<>());
    cutoff = overflow[k - 1];
    take = k - static_cast<VertexId>(std::count_if(
                   overflow.begin(), overflow.begin() + (k - 1),
                   [cutoff](std::uint32_t d) { return d > cutoff; }));
  } else {
    VertexId above = over;
    std::uint32_t d = cap - 1;
    while (above + hist[d] < k) above += hist[d--];  // Σ hist = n ≥ k stops it
    cutoff = d;
    take = k - above;
  }

  // Pass 2: per block, how many vertices lie above the cutoff and at it.
  parallel::parallel_for(0, blocks, 1,
      [&](unsigned, std::uint64_t bb, std::uint64_t be) {
        for (std::uint64_t b = bb; b < be; ++b) {
          VertexId above = 0, at = 0;
          for (std::uint64_t v = block_begin(b); v < block_end(b); ++v) {
            const std::uint32_t d = graph.degree(static_cast<VertexId>(v));
            above += d > cutoff ? 1 : 0;
            at += d == cutoff ? 1 : 0;
          }
          block_a[b] = above;
          block_b[b] = at;
        }
      });
  if (parallel::interrupted()) return new_id;
  // Block-level exclusive scans: block_a becomes the selected vertices
  // before the block, block_b the cutoff-degree vertices before it.
  VertexId selected_before = 0, at_before = 0;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const VertexId at = block_b[b];
    const VertexId taken = at_before < take ? std::min(take - at_before, at) : 0;
    const VertexId selected = block_a[b] + taken;
    block_a[b] = selected_before;
    block_b[b] = at_before;
    selected_before += selected;
    at_before += at;
  }

  // Pass 3: selected vertices go to `picked` in ID order; every other
  // vertex takes the next ID after the reordered block.
  std::vector<VertexId> picked(k);
  parallel::parallel_for(0, blocks, 1,
      [&](unsigned, std::uint64_t bb, std::uint64_t be) {
        for (std::uint64_t b = bb; b < be; ++b) {
          VertexId out = block_a[b];
          VertexId at = block_b[b];
          auto next = static_cast<VertexId>(k + block_begin(b) - out);
          for (std::uint64_t vi = block_begin(b); vi < block_end(b); ++vi) {
            const auto v = static_cast<VertexId>(vi);
            const std::uint32_t d = graph.degree(v);
            if (d > cutoff || (d == cutoff && at++ < take))
              picked[out++] = v;
            else
              new_id[v] = next++;
          }
        }
      });
  if (parallel::interrupted()) return new_id;

  // Counting sort of the selected block by descending degree; it is stable,
  // so equal degrees keep ID order. Overflow-degree vertices rank first,
  // sorted on their own; hist[d] turns into the next rank at degree d.
  VertexId rank = std::min(over, k);
  for (std::uint32_t d = cap; d-- > cutoff;) {
    const VertexId count = d == cutoff ? take : hist[d];
    hist[d] = rank;
    rank += count;
  }
  VertexId top = 0;
  for (const VertexId v : picked) {
    const std::uint32_t d = graph.degree(v);
    if (d >= cap)
      picked[top++] = v;  // top ≤ position being read: compacts in place
    else
      new_id[v] = hist[d]++;
  }
  std::stable_sort(picked.begin(), picked.begin() + top,
                   [&graph](VertexId a, VertexId b) {
                     return graph.degree(a) > graph.degree(b);
                   });
  for (VertexId r = 0; r < top; ++r) new_id[picked[r]] = r;
  return new_id;
}

}  // namespace lotus::core
