// lotus_tc_cli: command-line triangle counter.
//
//   lotus_tc_cli --graph edges.txt --algorithm lotus
//   lotus_tc_cli --graph g.csr --algorithm gap-forward --repeat 3
//   lotus_tc_cli --graph edges.txt --save-lotus g.lotus   # persist preprocessing
//   lotus_tc_cli --load-lotus g.lotus                     # count from it
//
// Text edge lists and "LOTUSGR1" binary CSR files are auto-detected by
// content; preprocessed LotusGraphs round-trip via --save-lotus/--load-lotus.
#include <fstream>
#include <iostream>

#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "lotus/lotus.hpp"
#include "lotus/serialize.hpp"
#include "tc/api.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "parallel/thread_pool.hpp"

namespace {

bool has_magic(const std::string& path, const char* magic) {
  std::ifstream in(path, std::ios::binary);
  char buffer[8] = {};
  in.read(buffer, 8);
  return in && std::string(buffer, 8) == magic;
}

/// One "error: <message>" line; the exit code follows util::exit_code.
int fail(const lotus::util::Status& status) {
  std::cerr << "error: " << status.message() << "\n";
  return lotus::util::exit_code(status.code());
}

}  // namespace

int main(int argc, char** argv) {
  lotus::util::Cli cli("Count triangles in a graph file");
  cli.opt("graph", "", "input graph: text edge list or LOTUSGR1 binary CSR");
  std::string algorithm_help = "one of:";
  for (const lotus::tc::Algorithm a : lotus::tc::all_algorithms())
    algorithm_help += " " + lotus::tc::name(a);
  cli.opt("algorithm", "lotus", algorithm_help);
  cli.opt("hubs", "0", "LOTUS hub count (0 = automatic)");
  cli.opt("threads", "0", "worker threads (0 = hardware concurrency)");
  cli.opt("repeat", "1", "number of timed repetitions");
  cli.opt("save-lotus", "", "write the preprocessed LotusGraph to this path");
  cli.opt("load-lotus", "", "count from a previously saved LotusGraph");
  if (!cli.parse(argc, argv)) return 1;

  lotus::parallel::set_num_threads(static_cast<unsigned>(cli.get_int("threads")));
  lotus::core::LotusConfig config;
  config.hub_count = static_cast<lotus::graph::VertexId>(cli.get_int("hubs"));

  try {
    if (!cli.get("load-lotus").empty()) {
      const auto lg = lotus::core::read_lotus_binary_s(cli.get("load-lotus"));
      if (!lg.ok()) return fail(lg.status());
      const auto r = lotus::core::count_triangles_prepared(lg.value(), config);
      std::cout << "triangles: " << lotus::util::with_commas(r.triangles)
                << " (counting only: " << lotus::util::fixed(r.count_s(), 3)
                << "s; preprocessing skipped)\n";
      return 0;
    }

    if (cli.get("graph").empty()) {
      std::cerr << "either --graph or --load-lotus is required\n";
      cli.print_usage(argv[0]);
      return 1;
    }

    lotus::graph::CsrGraph graph;
    if (has_magic(cli.get("graph"), "LOTUSGR1")) {
      auto loaded = lotus::graph::read_csr_binary_s(cli.get("graph"));
      if (!loaded.ok()) return fail(loaded.status());
      graph = loaded.take();
    } else {
      const auto edges = lotus::graph::read_edge_list_text_s(cli.get("graph"));
      if (!edges.ok()) return fail(edges.status());
      graph = lotus::graph::build_undirected(edges.value());
    }
    std::cout << "graph: " << lotus::util::with_commas(graph.num_vertices())
              << " vertices, " << lotus::util::with_commas(graph.num_edges() / 2)
              << " edges\n";

    if (!cli.get("save-lotus").empty()) {
      const auto lg = lotus::core::LotusGraph::build(graph, config);
      const auto saved = lotus::core::write_lotus_binary_s(cli.get("save-lotus"), lg);
      if (!saved.ok()) return fail(saved);
      std::cout << "wrote preprocessed LotusGraph ("
                << lotus::util::human_bytes(lg.topology_bytes()) << ") to "
                << cli.get("save-lotus") << "\n";
    }

    const auto algorithm = lotus::tc::parse(cli.get("algorithm"));
    if (!algorithm) {
      std::cerr << "unknown algorithm: " << cli.get("algorithm") << "\n";
      return 1;
    }
    const auto repeat = std::max<std::int64_t>(1, cli.get_int("repeat"));
    lotus::tc::QueryOptions options;
    options.config = config;
    for (std::int64_t i = 0; i < repeat; ++i) {
      const auto outcome = lotus::tc::query(*algorithm, graph, options);
      if (!outcome.ok() || !outcome.value().ok()) {
        return fail(outcome.ok() ? outcome.value().status : outcome.status());
      }
      const auto& r = outcome.value().result;
      std::cout << lotus::tc::name(*algorithm) << ": "
                << lotus::util::with_commas(r.triangles) << " triangles in "
                << lotus::util::fixed(r.total_s(), 3) << "s ("
                << lotus::util::fixed(r.preprocess_s, 3) << "s preprocess + "
                << lotus::util::fixed(r.count_s, 3) << "s count, "
                << lotus::util::human_count(
                       lotus::tc::edges_per_s(graph.num_edges() / 2, r.total_s()))
                << " edges/s)\n";
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
