// Graph explorer: structural profile of any graph — degree distribution,
// the hub characteristics of Table 1, and the algorithm recommendation the
// adaptive dispatcher (Sec. 5.5) would make.
//
//   ./graph_explorer --dataset UKDls-S
//   ./graph_explorer --graph my_edges.txt
#include <algorithm>
#include <iostream>
#include <vector>

#include "datasets/registry.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "lotus/adaptive.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  lotus::util::Cli cli("Structural profile of a graph");
  cli.opt("dataset", "UKDls-S", "registry dataset name");
  cli.opt("graph", "", "path to a text edge list (overrides --dataset)");
  cli.opt("factor", "0.5", "vertex-count multiplier for registry datasets");
  if (!cli.parse(argc, argv)) return 1;

  lotus::graph::CsrGraph graph;
  std::string label;
  if (!cli.get("graph").empty()) {
    label = cli.get("graph");
    const auto edges = lotus::graph::read_edge_list_text_s(label);
    if (!edges.ok()) {
      std::cerr << "error: " << edges.status().message() << "\n";
      return lotus::util::exit_code(edges.status().code());
    }
    graph = lotus::graph::build_undirected(edges.value());
  } else {
    const auto& dataset = lotus::datasets::dataset(cli.get("dataset"));
    label = dataset.name + " (" + dataset.stands_for + ")";
    graph = dataset.make(cli.get_double("factor"));
  }

  std::cout << "== " << label << " ==\n"
            << "vertices: " << lotus::util::with_commas(graph.num_vertices())
            << ", edges: " << lotus::util::with_commas(graph.num_edges() / 2)
            << ", topology: " << lotus::util::human_bytes(graph.topology_bytes())
            << "\n\n";

  const auto ds = lotus::graph::degree_stats(graph);
  std::cout << "degrees: min " << ds.min_degree << ", max "
            << lotus::util::with_commas(ds.max_degree) << ", avg "
            << lotus::util::fixed(ds.avg_degree, 2) << ", sampled median "
            << lotus::util::fixed(ds.sampled_median_degree, 1) << "\n";

  // Log-scale degree histogram.
  std::vector<std::uint64_t> histogram;
  for (lotus::graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
    std::size_t bucket = 0;
    for (std::uint32_t d = graph.degree(v); d > 0; d >>= 1) ++bucket;
    histogram.resize(std::max(histogram.size(), bucket + 1), 0);
    ++histogram[bucket];
  }
  std::cout << "\ndegree histogram (log2 buckets):\n";
  for (std::size_t b = 0; b < histogram.size(); ++b) {
    if (histogram[b] == 0) continue;
    const auto lo = b == 0 ? 0u : 1u << (b - 1);
    const auto hi = (1u << b) - 1;
    std::cout << "  [" << lo << ", " << hi << "]: "
              << std::string(std::max<std::size_t>(1,
                     static_cast<std::size_t>(40.0 * static_cast<double>(histogram[b]) /
                                              static_cast<double>(graph.num_vertices()))), '#')
              << " " << lotus::util::with_commas(histogram[b]) << "\n";
  }

  const auto hub = lotus::graph::hub_stats(graph, 0.01);
  lotus::util::TablePrinter table("hub characteristics (1% hubs, as Table 1)");
  table.header({"metric", "value"});
  table.row({"hub edges", lotus::util::fixed(hub.hub_edges_total_pct, 1) + "%"});
  table.row({"hub triangles", lotus::util::fixed(hub.hub_triangles_pct, 1) + "%"});
  table.row({"hub sub-graph relative density",
             lotus::util::fixed(hub.relative_density_hubs, 0) + "x"});
  table.row({"fruitless searches", lotus::util::fixed(hub.fruitless_searches_pct, 1) + "%"});
  table.row({"triangles", lotus::util::with_commas(hub.total_triangles)});
  std::cout << "\n";
  table.print(std::cout);

  std::cout << "\nadaptive recommendation: "
            << (lotus::core::should_use_lotus(graph)
                    ? "LOTUS (skewed degree distribution)"
                    : "Forward algorithm (low skew; Sec. 5.5)")
            << "\n";
  return 0;
}
