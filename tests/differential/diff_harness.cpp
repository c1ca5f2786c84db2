#include "diff_harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "baselines/intersect.hpp"
#include "bench/ablations/hnn.hpp"
#include "bench/ablations/intersect.hpp"
#include "graph/builder.hpp"
#include "graph/degree_order.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/oocore.hpp"
#include "kernels/dispatch.hpp"
#include "lotus/count.hpp"
#include "lotus/lotus.hpp"
#include "lotus/lotus_graph.hpp"
#include "tc/api.hpp"

namespace lotus::testing {

namespace {

namespace g = lotus::graph;

/// The adversarial / deterministic shapes: closed-form or trivially known
/// counts, plus the corner configurations (no vertices, no hubs, only hubs,
/// dirty input) that historically break exactly one path at a time.
std::vector<DiffGraph> adversarial_graphs() {
  std::vector<DiffGraph> corpus;

  corpus.push_back({"empty", g::EdgeList{0, {}}, {}, false});
  corpus.push_back({"single_edge", g::EdgeList{2, {{0, 1}}}, {}, false});
  corpus.push_back(
      {"single_triangle", g::EdgeList{3, {{0, 1}, {1, 2}, {0, 2}}}, {}, false});
  corpus.push_back({"two_triangles_shared_edge",
                    g::EdgeList{4, {{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 3}}},
                    {},
                    false});

  // Dirty input: self-loops and duplicate edges in both orientations must be
  // cleaned identically by every path's preprocessing.
  corpus.push_back({"self_loops_dups",
                    g::EdgeList{5,
                                {{0, 1}, {1, 0}, {2, 2}, {0, 1}, {1, 2},
                                 {0, 2}, {3, 4}, {4, 3}, {4, 4}}},
                    {},
                    false});

  corpus.push_back({"star_200", g::star(200), {}, false});
  corpus.push_back({"path_100", g::path(100), {}, false});
  corpus.push_back({"cycle_64", g::cycle(64), {}, false});
  corpus.push_back({"wheel_24", g::wheel(24), {}, false});
  corpus.push_back({"grid_8x8", g::grid(8, 8), {}, false});
  corpus.push_back({"bipartite_16_16", g::complete_bipartite(16, 16), {}, false});
  corpus.push_back({"clique_24", g::complete(24), {}, false});

  // All-hubs: every vertex is a hub, so every triangle is HHH and the NHE
  // sub-graph is empty.
  {
    core::LotusConfig config;
    config.hub_count = 32;
    corpus.push_back({"clique_32_all_hubs", g::complete(32), config, false});
  }

  // Zero-hub triangles: the single hub (the star centre) touches no
  // triangle, so every triangle must be found by the NNN phase alone.
  {
    g::EdgeList el{44, {}};
    for (g::VertexId x = 1; x <= 40; ++x) el.edges.push_back({0, x});
    el.edges.push_back({41, 42});
    el.edges.push_back({42, 43});
    el.edges.push_back({41, 43});
    core::LotusConfig config;
    config.hub_count = 1;
    config.relabel_fraction = 0.0;
    corpus.push_back({"zero_hub_triangle", std::move(el), config, false});
  }

  return corpus;
}

/// Every generator family of src/graph/generators.* at two sizes each,
/// seeded so the corpus is identical on every run and machine.
std::vector<DiffGraph> generator_graphs() {
  std::vector<DiffGraph> corpus;
  corpus.push_back(
      {"rmat_s8", g::rmat({.scale = 8, .edge_factor = 8, .seed = 101}), {}, true});
  corpus.push_back(
      {"rmat_s10", g::rmat({.scale = 10, .edge_factor = 8, .seed = 102}), {}, true});
  corpus.push_back({"erdos_renyi_500", g::erdos_renyi(500, 8.0, 103), {}, true});
  corpus.push_back({"erdos_renyi_1500", g::erdos_renyi(1500, 12.0, 104), {}, true});
  corpus.push_back({"holme_kim_800",
                    g::holme_kim({.num_vertices = 800, .edges_per_vertex = 5,
                                  .p_triad = 0.6, .seed = 105}),
                    {},
                    true});
  corpus.push_back({"holme_kim_1600_local",
                    g::holme_kim({.num_vertices = 1600, .edges_per_vertex = 6,
                                  .p_triad = 0.5, .p_local = 0.3, .seed = 106}),
                    {},
                    true});
  corpus.push_back({"watts_strogatz_600",
                    g::watts_strogatz({.num_vertices = 600, .ring_degree = 6,
                                       .rewire_prob = 0.1, .seed = 107}),
                    {},
                    true});
  corpus.push_back({"watts_strogatz_1200",
                    g::watts_strogatz({.num_vertices = 1200, .ring_degree = 8,
                                       .rewire_prob = 0.2, .seed = 108}),
                    {},
                    true});
  corpus.push_back({"copy_web_800",
                    g::copy_web({.num_vertices = 800, .edges_per_vertex = 6,
                                 .p_copy = 0.7, .locality_window = 128,
                                 .seed = 109}),
                    {},
                    true});
  corpus.push_back({"copy_web_1600_core",
                    g::copy_web({.num_vertices = 1600, .edges_per_vertex = 7,
                                 .p_copy = 0.7, .locality_window = 256,
                                 .core_size = 64, .p_core = 0.3,
                                 .p_local = 0.2, .seed = 110}),
                    {},
                    true});
  return corpus;
}

/// LOTUS phases assembled by hand so the non-default phase-1 tiling policy
/// and HNN traversal variants get their own differential paths.
std::uint64_t lotus_phases(const g::CsrGraph& graph,
                           const core::LotusConfig& config,
                           core::TilingPolicy policy, bool blocked_hnn) {
  const auto lg = core::LotusGraph::build(graph, config);
  const auto hub = core::count_hhh_hhn(lg, config, policy);
  const std::uint64_t hnn = blocked_hnn
                                ? ablation::count_hnn_blocked(lg, 64)
                                : core::count_hnn(lg);
  return hub.hhh + hub.hhn + hnn + core::count_nnn(lg);
}

/// Forward algorithm over an explicit intersection kernel — covers the
/// branchless kernels that no named baseline exercises end-to-end.
template <typename Kernel>
std::uint64_t forward_with_kernel(const g::CsrGraph& graph, Kernel&& kernel) {
  const auto oriented = g::orient_by_id(graph);
  std::uint64_t count = 0;
  for (g::VertexId v = 0; v < oriented.num_vertices(); ++v) {
    const auto nv = oriented.neighbors(v);
    for (g::VertexId u : nv) count += kernel(nv, oriented.neighbors(u));
  }
  return count;
}

/// The production path: tc::query builds the algorithm's artifact and counts
/// against it, exactly as an Engine miss does.
tc::RunResult query_result(tc::Algorithm algorithm, const g::CsrGraph& graph,
                           const tc::QueryOptions& options) {
  auto outcome = tc::query(algorithm, graph, options);
  if (!outcome.ok()) throw std::runtime_error(outcome.status().to_string());
  if (!outcome.value().ok())
    throw std::runtime_error(outcome.value().status.to_string());
  return std::move(outcome.take().result);
}

std::uint64_t query_count(tc::Algorithm algorithm, const g::CsrGraph& graph,
                          const tc::QueryOptions& options = {}) {
  return query_result(algorithm, graph, options).triangles;
}

/// Per-vertex triangle counts on one substrate, cross-checked against the
/// other: Σ local / 3, or a sentinel no graph reaches (so the cell fails)
/// when the two per-vertex arrays differ or Σ local is not a multiple of 3.
std::uint64_t local_counts(tc::Algorithm substrate, tc::Algorithm other,
                           const g::CsrGraph& graph,
                           const core::LotusConfig& config) {
  tc::QueryOptions options;
  options.config = config;
  options.analytic.kind = tc::AnalyticKind::kLocalCounts;
  const auto counts =
      query_result(substrate, graph, options).analytics.vertex_counts;
  const auto cross =
      query_result(other, graph, options).analytics.vertex_counts;
  const std::uint64_t corners =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  constexpr std::uint64_t kMismatch = ~std::uint64_t{0};
  return counts != cross || corners % 3 != 0 ? kMismatch : corners / 3;
}

/// On-disk rows stage each corpus graph in a uniquely named temp file and
/// push it through the pipeline under test, so a divergence in the external
/// builder, the mmap loader, or the heap loader surfaces as an ordinary
/// count mismatch with the usual repro line.
std::string oocore_temp_path(const char* tag) {
  // The sequence alone is not unique across processes (ctest -j runs each
  // test case in its own process, and every process counts from 0), so the
  // pid rides along too.
  static std::atomic<std::uint64_t> seq{0};
  return (std::filesystem::temp_directory_path() /
          ("lotus_diff_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(seq.fetch_add(1)) + ".tmp"))
      .string();
}

std::uint64_t oocore_external_build(const g::CsrGraph& graph) {
  const std::string file = oocore_temp_path("el");
  {
    // Dump each undirected edge once; the builder symmetrizes.
    g::EdgeList el{graph.num_vertices(), {}};
    for (g::VertexId v = 0; v < graph.num_vertices(); ++v)
      for (g::VertexId u : graph.neighbors(v))
        if (v < u) el.edges.push_back({v, u});
    const lotus::util::Status written = g::write_edge_list_text_s(file, el);
    if (!written.ok()) throw std::runtime_error(written.to_string());
  }
  g::oocore::ExternalBuildOptions options;
  options.sort_budget_bytes = 1ull << 20;  // the floor: smallest buckets
  auto rebuilt = g::oocore::build_undirected_external_s(file, options);
  std::remove(file.c_str());
  if (!rebuilt.ok()) throw std::runtime_error(rebuilt.status().to_string());
  return query_count(tc::Algorithm::kForwardMerge, rebuilt.value());
}

std::uint64_t oocore_mapped_csx(const g::CsrGraph& graph,
                                const core::LotusConfig& config) {
  const std::string file = oocore_temp_path("csx");
  const lotus::util::Status written = g::write_csr_binary_s(file, graph);
  if (!written.ok()) throw std::runtime_error(written.to_string());
  auto mapped = g::oocore::read_csr_mapped_s(file);
  std::remove(file.c_str());  // the mapping outlives the unlink
  if (!mapped.ok()) throw std::runtime_error(mapped.status().to_string());
  // Full LOTUS pipeline over the zero-copy views, not just a read check.
  return core::count_triangles(mapped.value(), config).triangles;
}

std::uint64_t heap_csx_load(const g::CsrGraph& graph) {
  const std::string file = oocore_temp_path("heap");
  const lotus::util::Status written = g::write_csr_binary_s(file, graph);
  if (!written.ok()) throw std::runtime_error(written.to_string());
  auto loaded = g::read_csr_binary_s(file);
  std::remove(file.c_str());
  if (!loaded.ok()) throw std::runtime_error(loaded.status().to_string());
  return query_count(tc::Algorithm::kForwardMerge, loaded.value());
}

}  // namespace

std::vector<DiffGraph> differential_corpus() {
  auto corpus = adversarial_graphs();
  auto heavy = generator_graphs();
  corpus.insert(corpus.end(), std::make_move_iterator(heavy.begin()),
                std::make_move_iterator(heavy.end()));
  return corpus;
}

std::vector<DiffGraph> smoke_corpus() { return adversarial_graphs(); }

std::vector<DiffPath> differential_paths() {
  using baselines::NullProbe;
  std::vector<DiffPath> paths;

  // --- LOTUS family (honours the per-graph config).
  paths.push_back({"lotus", [](const auto& graph, const auto& config) {
                     return core::count_triangles(graph, config).triangles;
                   }});
  paths.push_back(
      {"lotus_edge_balanced", [](const auto& graph, const auto& config) {
         return lotus_phases(graph, config, core::TilingPolicy::kEdgeBalanced,
                             false);
       }});
  paths.push_back({"lotus_fused", [](const auto& graph, const auto& config) {
                     const auto lg = core::LotusGraph::build(graph, config);
                     const auto hub = core::count_hhh_hhn(lg, config);
                     return hub.hhh + hub.hhn + ablation::count_hnn_nnn_fused(lg);
                   }});
  paths.push_back(
      {"lotus_hnn_blocked", [](const auto& graph, const auto& config) {
         return lotus_phases(graph, config, core::TilingPolicy::kSquared, true);
       }});
  // Scalar reference path of the kernel layer: the dispatched SIMD kernels
  // disabled, probe-templated scalar mirrors everywhere.
  paths.push_back({"lotus_scalar_kernels", [](const auto& graph,
                                              const auto& config) {
                     auto scalar = config;
                     scalar.vectorize = false;
                     return core::count_triangles(graph, scalar).triangles;
                   }});

  // --- Forward over every intersection kernel, through tc::query.
  paths.push_back({"forward_merge", [](const auto& graph, const auto&) {
                     return query_count(tc::Algorithm::kForwardMerge, graph);
                   }});
  paths.push_back({"forward_gallop", [](const auto& graph, const auto&) {
                     return query_count(tc::Algorithm::kForwardGallop, graph);
                   }});
  paths.push_back({"forward_hashed", [](const auto& graph, const auto&) {
                     return query_count(tc::Algorithm::kForwardHashed, graph);
                   }});
  paths.push_back({"forward_bitmap", [](const auto& graph, const auto&) {
                     return query_count(tc::Algorithm::kForwardBitmap, graph);
                   }});
  // gap-forward's scalar GAP merge (the default above dispatches SIMD).
  paths.push_back({"forward_merge_scalar", [](const auto& graph, const auto&) {
                     tc::QueryOptions scalar;
                     scalar.config.vectorize = false;
                     return query_count(tc::Algorithm::kForwardMerge, graph,
                                        scalar);
                   }});
  paths.push_back({"forward_hybrid", [](const auto& graph, const auto&) {
                     return query_count(tc::Algorithm::kForwardHybrid, graph);
                   }});
  // The scalar tier's merge_u32 (kernels::detail::merge_branchless).
  paths.push_back({"forward_merge_branchless",
                   [](const auto& graph, const auto&) {
                     return forward_with_kernel(graph, [](auto a, auto b) {
                       return kernels::kernel_table(kernels::Isa::kScalar)
                           .merge_u32(a.data(), a.size(), b.data(), b.size(),
                                      nullptr, nullptr);
                     });
                   }});
  paths.push_back({"forward_binary_branchfree",
                   [](const auto& graph, const auto&) {
                     return forward_with_kernel(graph, [](auto a, auto b) {
                       return ablation::intersect_binary_branchfree<g::VertexId>(
                           a, b);
                     });
                   }});

  // --- Other parallelization / iteration strategies.
  paths.push_back({"edge_parallel", [](const auto& graph, const auto&) {
                     return query_count(tc::Algorithm::kEdgeParallel, graph);
                   }});
  paths.push_back({"edge_iterator", [](const auto& graph, const auto&) {
                     return query_count(tc::Algorithm::kEdgeIterator, graph);
                   }});
  paths.push_back({"node_iterator", [](const auto& graph, const auto&) {
                     return query_count(tc::Algorithm::kNodeIterator, graph);
                   }});
  paths.push_back({"blocked_tc", [](const auto& graph, const auto&) {
                     return query_count(tc::Algorithm::kBlocked, graph);
                   }});

  // --- Clique enumeration: the k = 3 census of the k-clique analytic.
  paths.push_back({"kclique3", [](const auto& graph, const auto&) {
                     tc::QueryOptions census;
                     census.analytic.kind = tc::AnalyticKind::kKClique;
                     census.analytic.k = 3;
                     return query_count(tc::Algorithm::kForwardMerge, graph,
                                        census);
                   }});

  // --- Per-vertex counts, Σ local / 3: the LOTUS phase visitors and the
  // positional Forward walk, each checked against the other's array.
  paths.push_back({"local_counts_lotus", [](const auto& graph,
                                            const auto& config) {
                     return local_counts(tc::Algorithm::kLotus,
                                         tc::Algorithm::kForwardMerge, graph,
                                         config);
                   }});
  paths.push_back({"local_counts_oriented", [](const auto& graph,
                                               const auto& config) {
                     return local_counts(tc::Algorithm::kForwardMerge,
                                         tc::Algorithm::kLotus, graph, config);
                   }});

  // --- On-disk pipelines (docs/OUT_OF_CORE.md).
  paths.push_back({"oocore_external_build", [](const auto& graph, const auto&) {
                     return oocore_external_build(graph);
                   }});
  paths.push_back({"oocore_mapped_csx", [](const auto& graph,
                                           const auto& config) {
                     return oocore_mapped_csx(graph, config);
                   }});
  paths.push_back({"heap_csx_load", [](const auto& graph, const auto&) {
                     return heap_csx_load(graph);
                   }});

  return paths;
}

const DiffPath* find_path(const std::vector<DiffPath>& paths,
                          const std::string& name) {
  const auto it = std::find_if(paths.begin(), paths.end(),
                               [&](const DiffPath& p) { return p.name == name; });
  return it == paths.end() ? nullptr : &*it;
}

std::vector<unsigned> thread_axis() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::vector<unsigned> axis{1, 4, hw};
  std::sort(axis.begin(), axis.end());
  axis.erase(std::unique(axis.begin(), axis.end()), axis.end());
  return axis;
}

std::string repro_command(const std::string& graph_file, const DiffGraph& graph,
                          const std::string& path_name, unsigned threads) {
  std::ostringstream cmd;
  cmd << "lotus_diff_repro --graph " << graph_file << " --path " << path_name
      << " --threads " << threads << " --hub-count " << graph.config.hub_count
      << " --relabel-fraction " << graph.config.relabel_fraction;
  return cmd.str();
}

}  // namespace lotus::testing
