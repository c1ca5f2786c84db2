// Ablation: how does the number of hubs affect Lotus? (Design decision 1 in
// DESIGN.md; the paper fixes 64K hubs in Sec. 4.2 and discusses the trade-off
// for less-skewed graphs in Sec. 5.5.)
//
// Sweeps hub counts on each dataset and reports end-to-end time, the HE edge
// share, and the hub-triangle share. Expected shape: too few hubs push all
// work into the NNN phase; too many blow up the H2H bit array and phase-1
// pair enumeration; a broad sweet spot sits near the 1% rule.
#include <iostream>
#include <sstream>

#include "bench/common.hpp"
#include "lotus/lotus.hpp"

int main(int argc, char** argv) {
  lotus::util::Cli cli("Ablation: hub-count sweep");
  lotus::bench::add_common_options(cli, "Twtr-S,SK-S");
  cli.opt("hub-counts", "64,256,1024,4096,16384,65536",
          "comma-separated hub counts to sweep");
  if (!cli.parse(argc, argv)) return 1;
  const auto ctx = lotus::bench::make_context(cli);

  std::vector<lotus::graph::VertexId> hub_counts;
  {
    std::istringstream stream(cli.get("hub-counts"));
    std::string token;
    while (std::getline(stream, token, ','))
      hub_counts.push_back(static_cast<lotus::graph::VertexId>(std::stoul(token)));
  }

  lotus::util::TablePrinter table("Ablation - hub count sweep");
  table.header({"Dataset", "hubs", "total(s)", "HHH&HHN(s)", "NNN(s)", "HE%",
                "hub-tri%"});
  for (const auto& dataset : ctx.selection) {
    const auto graph = lotus::bench::load(dataset, ctx.factor);
    for (const auto hubs : hub_counts) {
      lotus::core::LotusConfig config = ctx.lotus_config;
      config.hub_count = hubs;
      const auto r = lotus::core::count_triangles(graph, config);
      const auto total_edges = static_cast<double>(r.he_edges + r.nhe_edges);
      const double he_pct =
          total_edges > 0 ? 100.0 * static_cast<double>(r.he_edges) / total_edges : 0.0;
      const double hub_pct = r.triangles > 0
          ? 100.0 * static_cast<double>(r.hub_triangles()) / static_cast<double>(r.triangles)
          : 0.0;
      table.row({dataset.name, lotus::util::with_commas(r.hub_count),
                 lotus::util::fixed(r.total_s(), 3),
                 lotus::util::fixed(r.hhh_hhn_s, 3),
                 lotus::util::fixed(r.nnn_s, 3), lotus::bench::pct(he_pct),
                 lotus::bench::pct(hub_pct)});
    }
  }
  table.print(std::cout);
  return 0;
}
