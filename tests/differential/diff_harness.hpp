// Differential correctness harness.
//
// The repository implements the same quantity — the triangle count of a
// simple undirected graph — through ~24 independent code paths: the LOTUS
// three-phase counter under both tiling policies, the Forward baselines over
// four intersection kernels (plus branchless and SIMD variants), k-clique
// enumeration at k = 3, the per-vertex counts on both analytic substrates,
// the blocked/fused HNN alternatives of the ablations and the on-disk
// pipelines. This harness pits every path against a
// brute-force oracle over a seeded corpus of generated and adversarial
// graphs, across pool thread counts.
//
// Any mismatch is a bug in exactly one place; the driver dumps the offending
// graph as a text edge list and prints a one-line `lotus_diff_repro` command
// that replays the single failing (graph, path, threads) cell.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "lotus/config.hpp"

namespace lotus::testing {

/// One corpus entry: the raw edge list (exactly what gets dumped on a
/// mismatch), the LOTUS configuration the LOTUS-family paths run with, and a
/// size class so sanitizer runs can stick to the cheap graphs.
struct DiffGraph {
  std::string name;
  graph::EdgeList edges;
  core::LotusConfig config;
  bool heavy = false;  // generator-sized; excluded from the smoke corpus
};

/// One counting path: a name (stable; the repro CLI looks paths up by it)
/// and a function producing the full triangle count through that path.
/// Baseline paths ignore the config; LOTUS-family paths honour it.
struct DiffPath {
  std::string name;
  std::function<std::uint64_t(const graph::CsrGraph&, const core::LotusConfig&)>
      count;
};

/// Full seeded corpus: every generator family in src/graph/generators.* at
/// several sizes, plus the adversarial shapes (empty, single edge, star,
/// clique, all-hubs, zero-hub triangles, self-loops/duplicates, ...).
[[nodiscard]] std::vector<DiffGraph> differential_corpus();

/// Adversarial/deterministic subset only — cheap enough to run under TSan.
[[nodiscard]] std::vector<DiffGraph> smoke_corpus();

/// Every counting path the repository implements.
[[nodiscard]] std::vector<DiffPath> differential_paths();

/// Paths by `name`; nullptr when unknown (repro CLI lookup).
[[nodiscard]] const DiffPath* find_path(const std::vector<DiffPath>& paths,
                                        const std::string& name);

/// The execution matrix: default-pool thread counts {1, 4, hardware max},
/// deduplicated and sorted. A cell runs after parallel::set_num_threads.
[[nodiscard]] std::vector<unsigned> thread_axis();

/// The one-line repro command printed on a mismatch.
[[nodiscard]] std::string repro_command(const std::string& graph_file,
                                        const DiffGraph& graph,
                                        const std::string& path_name,
                                        unsigned threads);

}  // namespace lotus::testing
