// Community-core mining: triangle-based k-truss decomposition served by
// tc::query — a canonical downstream consumer of triangle counting (dense
// community detection, spam/link-farm isolation in web graphs).
#include <iostream>
#include <map>

#include "datasets/registry.hpp"
#include "tc/api.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace tc = lotus::tc;

int main(int argc, char** argv) {
  lotus::util::Cli cli("Community cores via k-truss decomposition");
  cli.opt("dataset", "LJGrp-S", "registry dataset to analyze");
  cli.opt("factor", "0.25", "vertex-count multiplier");
  if (!cli.parse(argc, argv)) return 1;

  const auto& dataset = lotus::datasets::dataset(cli.get("dataset"));
  const auto graph = dataset.make(cli.get_double("factor"));
  std::cout << "dataset " << dataset.name << ": "
            << lotus::util::with_commas(graph.num_vertices()) << " vertices, "
            << lotus::util::with_commas(graph.num_edges() / 2) << " edges\n";

  // One query per analytic; a rejected or failed query ends the run.
  auto run = [&](tc::Algorithm algorithm, tc::AnalyticKind kind,
                 tc::QueryResult& out) {
    tc::QueryOptions options;
    options.analytic.kind = kind;
    auto attempted = tc::query(algorithm, graph, options);
    if (!attempted.ok()) {
      std::cerr << "query rejected: " << attempted.status().to_string() << "\n";
      return false;
    }
    out = attempted.take();
    if (!out.ok()) {
      std::cerr << tc::analytic_name(kind)
                << " failed: " << out.status.to_string() << "\n";
      return false;
    }
    return true;
  };

  tc::QueryResult triangles;
  tc::QueryResult truss_query;
  if (!run(tc::Algorithm::kLotus, tc::AnalyticKind::kTriangles, triangles) ||
      !run(tc::Algorithm::kForwardMerge, tc::AnalyticKind::kKTruss,
           truss_query))
    return 1;
  std::cout << "triangles: "
            << lotus::util::with_commas(triangles.result.triangles) << "\n\n";
  const tc::AnalyticsResult& truss = truss_query.result.analytics;

  // Edge histogram by trussness.
  std::map<std::uint32_t, std::uint64_t> histogram;
  for (auto t : truss.edge_trussness) ++histogram[t];

  lotus::util::TablePrinter table("k-truss decomposition");
  table.header({"k", "edges with trussness k", "share"});
  const auto total = static_cast<double>(truss.edge_trussness.size());
  for (const auto& [k, count] : histogram) {
    table.row({std::to_string(k), lotus::util::with_commas(count),
               lotus::util::fixed(100.0 * static_cast<double>(count) / total, 1) + "%"});
  }
  table.print(std::cout);

  std::cout << "\ndensest community core: " << truss.truss.max_k
            << "-truss with "
            << lotus::util::with_commas(truss.truss.edges_in_max_truss)
            << " edges\n"
            << "(every edge there participates in >= " << truss.truss.max_k - 2
            << " triangles inside the core)\n";
  return 0;
}
