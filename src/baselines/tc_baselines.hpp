// Baseline triangle-counting kernels.
//
// These reimplement, from scratch, the comparator kernels of the paper's
// evaluation (Sec. 5.1.4) plus the classical algorithms of Sec. 2.2:
//   * forward_*            — Alg. 1 (Forward with degree ordering); the merge
//                            variant is the GAP-style kernel, the gallop
//                            variant the binary-search flavour of [31].
//   * edge_parallel_forward— GBBS-style: parallelism over oriented edges
//                            rather than vertices (parallelized intersection).
//   * forward_hashed       — Schank & Wagner's hash-container variant.
//   * forward_bitmap       — Latapy's bitmap (new-vertex-listing) variant.
//   * forward_hybrid       — sparse-vs-dense degree split: dense-bitmap
//                            popcount probing at or above a degree
//                            threshold, SIMD merge below.
//   * blocked_tc           — BBTC-style block-based traversal.
//   * brute_force          — O(V·d_max^2) oracle used only by tests.
//
// The vectorized merge, forward_bitmap and forward_hybrid are one loop,
// kernels::forward_count (kernels/forward_count.hpp), which each calls with
// its own `dense_from`: never dense, 2 (every countable list) and the
// threshold. Every kernel consumes the degree-ordered oriented CSR of a
// tc::PreparedGraph (graph::degree_ordered_oriented); the preprocessing is
// the artifact build, timed by the tc layer. The edge/node iterators, which
// need no artifact, live in tc::detail::run_prepared_kernel.
#pragma once

#include <cstdint>

#include "graph/csr.hpp"

namespace lotus::baselines {

/// GAP-style merge join; `vectorize` picks kernels::forward_count with no
/// dense side, or the scalar merge, like LotusConfig::vectorize. The
/// vectorized loop allocates no scratch and charges no budget.
std::uint64_t forward_merge_prepared(const graph::OrientedCsr& oriented,
                                     bool vectorize);
std::uint64_t forward_gallop_prepared(const graph::OrientedCsr& oriented);
std::uint64_t forward_hashed_prepared(const graph::OrientedCsr& oriented);
/// Every list of ≥ 2 entries takes the bitmap (forward_count's dense_from 2);
/// charges its per-thread bitmaps at site "bitmap_scratch".
std::uint64_t forward_bitmap_prepared(const graph::OrientedCsr& oriented);
/// Lists of ≥ max(degree_threshold, 2) entries take the bitmap (0 and 2
/// both make every countable list dense); charges at "hybrid_scratch".
std::uint64_t forward_hybrid_prepared(const graph::OrientedCsr& oriented,
                                      std::uint32_t degree_threshold = 64);
std::uint64_t edge_parallel_forward_prepared(const graph::OrientedCsr& oriented);
std::uint64_t blocked_tc_prepared(const graph::OrientedCsr& oriented,
                                  graph::VertexId block_size);

/// Reference oracle: correct for any simple symmetric graph; quadratic in
/// the maximum degree, so tests only.
std::uint64_t brute_force(const graph::CsrGraph& graph);

}  // namespace lotus::baselines
