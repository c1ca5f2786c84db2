// Quickstart: generate (or load) a graph and count its triangles with LOTUS.
//
//   ./quickstart                       # RMAT demo graph
//   ./quickstart --graph my_edges.txt  # whitespace edge list, '#' comments
//
// Demonstrates the three public entry points a typical user needs:
// build_undirected, lotus::core::count_triangles, and the unified tc::query.
#include <iostream>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "lotus/lotus.hpp"
#include "tc/api.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  lotus::util::Cli cli("LOTUS quickstart: count triangles in a graph");
  cli.opt("graph", "", "path to a text edge list (empty = generate an RMAT demo)");
  cli.opt("scale", "16", "RMAT scale for the demo graph (2^scale vertices)");
  if (!cli.parse(argc, argv)) return 1;

  // 1. Obtain a clean symmetric graph.
  lotus::graph::CsrGraph graph;
  if (cli.get("graph").empty()) {
    std::cout << "generating RMAT demo graph (scale " << cli.get_int("scale") << ")...\n";
    graph = lotus::graph::build_undirected(lotus::graph::rmat(
        {.scale = static_cast<unsigned>(cli.get_int("scale")), .edge_factor = 12, .seed = 42}));
  } else {
    std::cout << "loading " << cli.get("graph") << "...\n";
    const auto edges = lotus::graph::read_edge_list_text_s(cli.get("graph"));
    if (!edges.ok()) {
      std::cerr << "error: " << edges.status().message() << "\n";
      return lotus::util::exit_code(edges.status().code());
    }
    graph = lotus::graph::build_undirected(edges.value());
  }
  std::cout << "graph: " << lotus::util::with_commas(graph.num_vertices())
            << " vertices, " << lotus::util::with_commas(graph.num_edges() / 2)
            << " edges\n\n";

  // 2. Count triangles with LOTUS; the result carries the full breakdown.
  const auto r = lotus::core::count_triangles(graph);
  std::cout << "triangles: " << lotus::util::with_commas(r.triangles) << "\n"
            << "  HHH (3 hubs): " << lotus::util::with_commas(r.hhh) << "\n"
            << "  HHN (2 hubs): " << lotus::util::with_commas(r.hhn) << "\n"
            << "  HNN (1 hub):  " << lotus::util::with_commas(r.hnn) << "\n"
            << "  NNN (0 hubs): " << lotus::util::with_commas(r.nnn) << "\n"
            << "hubs: " << lotus::util::with_commas(r.hub_count)
            << ", topology: " << lotus::util::human_bytes(r.topology_bytes) << "\n"
            << "time: " << lotus::util::fixed(r.preprocess_s, 3) << "s preprocess + "
            << lotus::util::fixed(r.count_s(), 3) << "s count\n\n";

  // 3. Cross-check against the GAP-style Forward baseline via the unified
  // API (an unbounded gap-forward query cannot fail, so value() is safe).
  const auto baseline =
      lotus::tc::query(lotus::tc::Algorithm::kForwardMerge, graph)
          .value()
          .result;
  std::cout << "gap-forward agrees: "
            << (baseline.triangles == r.triangles ? "yes" : "NO!") << " ("
            << lotus::util::fixed(baseline.total_s(), 3) << "s, lotus "
            << lotus::util::fixed(baseline.total_s() / r.total_s(), 2)
            << "x faster)\n";
  return baseline.triangles == r.triangles ? 0 : 1;
}
