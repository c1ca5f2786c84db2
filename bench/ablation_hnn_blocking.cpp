// Ablation: blocked HNN (the second Sec. 7 future-work item) vs the plain
// HNN pass. Blocking bounds the ID range of the randomly accessed HE lists
// per pass; the trade-off is re-scanning the NHE index once per block.
#include <iostream>
#include <sstream>

#include "bench/ablations/hnn.hpp"
#include "bench/common.hpp"
#include "lotus/count.hpp"
#include "lotus/lotus_graph.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  lotus::util::Cli cli("Ablation: blocked vs plain HNN counting");
  lotus::bench::add_common_options(cli, "Twtr-S,SK-S,UKDls-S");
  cli.opt("blocks", "4096,16384,65536", "comma-separated u-range block sizes");
  if (!cli.parse(argc, argv)) return 1;
  const auto ctx = lotus::bench::make_context(cli);

  std::vector<lotus::graph::VertexId> blocks;
  {
    std::istringstream stream(cli.get("blocks"));
    std::string token;
    while (std::getline(stream, token, ','))
      blocks.push_back(static_cast<lotus::graph::VertexId>(std::stoul(token)));
  }

  lotus::util::TablePrinter table("Ablation - HNN blocking (phase-2 time, s)");
  std::vector<std::string> header = {"Dataset", "plain"};
  for (auto b : blocks) header.push_back("block=" + lotus::util::with_commas(b));
  table.header(header);

  for (const auto& dataset : ctx.selection) {
    const auto graph = lotus::bench::load(dataset, ctx.factor);
    const auto lg = lotus::core::LotusGraph::build(graph, ctx.lotus_config);

    lotus::util::Timer timer;
    const std::uint64_t expected = lotus::core::count_hnn(lg);
    std::vector<std::string> row = {dataset.name, lotus::util::fixed(timer.elapsed_s(), 3)};

    for (auto block : blocks) {
      timer.reset();
      const std::uint64_t got = lotus::ablation::count_hnn_blocked(lg, block);
      const double seconds = timer.elapsed_s();
      if (got != expected) {
        std::cerr << "count mismatch on " << dataset.name << "\n";
        return 1;
      }
      row.push_back(lotus::util::fixed(seconds, 3));
    }
    table.row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\npaper (Sec. 7): blocking may further improve HNN locality on\n"
               "graphs whose HE working set exceeds the cache.\n";
  return 0;
}
