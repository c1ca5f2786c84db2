// Approximate triangle counting (the Sec. 6.2 context).
//
// Two classical estimators, used by the approximation ablation
// (bench/ablation_approx.cpp):
//   * DOULION [71] — keep each edge with probability p, count exactly on
//     the sparsified graph, scale by 1/p^3. Unbiased; variance shrinks as
//     the true count grows.
//   * Wedge sampling [39-style] — sample wedges (length-2 paths) uniformly,
//     measure the closure probability (global transitivity), and convert to
//     a triangle count via the exact wedge total.
#pragma once

#include <cstdint>

#include "graph/csr.hpp"

namespace lotus::ablation {

struct ApproxResult {
  double estimated_triangles = 0.0;
  double relative_stderr = 0.0;  // estimated relative standard error
  double elapsed_s = 0.0;
};

/// DOULION: `keep_probability` in (0, 1]. p = 1 degenerates to exact.
ApproxResult doulion(const graph::CsrGraph& graph, double keep_probability,
                     std::uint64_t seed = 1);

/// Wedge sampling with `samples` closure checks.
ApproxResult wedge_sampling(const graph::CsrGraph& graph, std::uint64_t samples,
                            std::uint64_t seed = 1);

}  // namespace lotus::ablation
