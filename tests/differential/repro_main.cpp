// lotus_diff_repro — replay one cell of the differential matrix.
//
// The differential test suite prints an invocation of this tool whenever a
// counting path disagrees with the brute-force oracle, e.g.:
//
//   lotus_diff_repro --graph diff_rmat_s10_forward_gallop.el
//       --path forward_gallop --threads 4
//
// The tool loads the dumped edge list, applies the same configuration, runs
// the single failing path, and compares against brute force. Exit status 0
// means the counts agree (bug no longer reproduces), 1 means mismatch, 2
// means usage error. Other failure classes exit with their util::exit_code
// (docs/ROBUSTNESS.md) — unreadable input 3 (io_error), allocation failure 4
// (out_of_memory), thread failure 7 (resource_exhausted) — each with one
// "error (<code>): <message>" line on stderr.
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>

#include "baselines/tc_baselines.hpp"
#include "diff_harness.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "parallel/thread_pool.hpp"
#include "util/cli.hpp"
#include "util/status.hpp"

namespace {

int fail(const lotus::util::Status& status) {
  std::cerr << "error (" << lotus::util::status_code_name(status.code())
            << "): " << status.message() << "\n";
  return lotus::util::exit_code(status.code());
}

}  // namespace

int main(int argc, char** argv) {
  lotus::util::Cli cli(
      "Replay one (graph, path, threads) cell of the differential "
      "correctness matrix against the brute-force oracle.");
  cli.opt("graph", "",
          "corpus graph name or edge-list file dumped by the suite")
      .opt("path", "lotus", "counting path name (see --list)")
      .opt("threads", "1", "pool thread count for the run")
      .opt("hub-count", "0", "LotusConfig::hub_count (0 = automatic)")
      .opt("relabel-fraction", "0.1", "LotusConfig::relabel_fraction")
      .flag("list", "print every known graph and path name and exit");
  if (!cli.parse(argc, argv)) return 2;

  const auto paths = lotus::testing::differential_paths();
  if (cli.get_flag("list")) {
    std::cout << "graphs:\n";
    for (const auto& g : lotus::testing::differential_corpus())
      std::cout << "  " << g.name << "\n";
    std::cout << "paths:\n";
    for (const auto& path : paths) std::cout << "  " << path.name << "\n";
    return 0;
  }

  const lotus::testing::DiffPath* path =
      lotus::testing::find_path(paths, cli.get("path"));
  if (path == nullptr) {
    std::cerr << "unknown path '" << cli.get("path") << "' (try --list)\n";
    return 2;
  }
  if (cli.get("graph").empty()) {
    std::cerr << "--graph is required\n";
    return 2;
  }

  const auto threads = static_cast<unsigned>(cli.get_int("threads"));

  // --graph names either a corpus entry (exact name match; brings that
  // graph's LOTUS config along) or an edge-list file on disk. Explicit
  // --hub-count / --relabel-fraction always win over the corpus config.
  lotus::core::LotusConfig config;
  lotus::graph::EdgeList edges;
  bool from_corpus = false;
  for (const auto& g : lotus::testing::differential_corpus()) {
    if (g.name == cli.get("graph")) {
      edges = g.edges;
      config = g.config;
      from_corpus = true;
      break;
    }
  }
  if (!from_corpus) {
    auto loaded = lotus::graph::read_edge_list_text_s(cli.get("graph"));
    if (!loaded.ok()) {
      const auto status = loaded.status();
      std::cerr << "'" << cli.get("graph")
                << "' is neither a corpus graph name (try --list) nor a "
                   "readable edge list\n";
      return fail(status);
    }
    edges = loaded.take();
  }
  if (cli.get_int("hub-count") != 0)
    config.hub_count =
        static_cast<lotus::graph::VertexId>(cli.get_int("hub-count"));
  if (cli.get("relabel-fraction") != "0.1")
    config.relabel_fraction = cli.get_double("relabel-fraction");

  std::uint64_t expected = 0;
  std::uint64_t actual = 0;
  try {
    const auto csr = lotus::graph::build_undirected(edges);
    expected = lotus::baselines::brute_force(csr);
    lotus::parallel::set_num_threads(threads);
    actual = path->count(csr, config);
  } catch (...) {
    // bad_alloc -> 4, system_error -> 7, invalid_argument -> 2, other -> 1;
    // never aborts, so the suite's repro line always gets a diagnosable exit.
    return fail(lotus::util::status_from_current_exception());
  }

  std::cout << "graph=" << cli.get("graph") << " path=" << path->name
            << " threads=" << threads << "\n"
            << "brute_force=" << expected << " path_count=" << actual << " -> "
            << (actual == expected ? "MATCH" : "MISMATCH") << "\n";
  return actual == expected ? 0 : 1;
}
