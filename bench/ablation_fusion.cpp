// Ablation: split vs fused HNN/NNN loops (the Sec. 4.5 trade-off).
//
// The paper keeps the two loops separate so each pass's random accesses stay
// within one compact structure (HE for HNN, NHE for NNN); fusing enlarges the
// randomly accessed working set. Expected shape: split <= fused on the
// skewed datasets, with the gap growing with graph size.
#include <iostream>

#include "bench/ablations/hnn.hpp"
#include "bench/common.hpp"
#include "lotus/count.hpp"
#include "lotus/lotus_graph.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  lotus::util::Cli cli("Ablation: split vs fused HNN/NNN phases");
  lotus::bench::add_common_options(cli);
  if (!cli.parse(argc, argv)) return 1;
  const auto ctx = lotus::bench::make_context(cli);

  lotus::util::TablePrinter table("Ablation - loop fusion (counting phases 2+3 only, s)");
  table.header({"Dataset", "split(s)", "fused(s)", "split speedup"});

  double speedup_sum = 0.0;
  std::size_t rows = 0;
  for (const auto& dataset : ctx.selection) {
    const auto graph = lotus::bench::load(dataset, ctx.factor);
    const auto& config = ctx.lotus_config;
    const auto lg = lotus::core::LotusGraph::build(graph, config);
    auto& probe = lotus::baselines::null_probe;

    lotus::util::Timer timer;
    const std::uint64_t split =
        lotus::core::count_hnn(lg, probe, config.vectorize) +
        lotus::core::count_nnn(lg, probe, config.vectorize,
                               config.hybrid_degree_threshold);
    const double split_s = timer.elapsed_s();
    timer.reset();
    const std::uint64_t fused = lotus::ablation::count_hnn_nnn_fused(lg);
    const double fused_s = timer.elapsed_s();
    if (split != fused) {
      std::cerr << "count mismatch on " << dataset.name << "\n";
      return 1;
    }
    const double speedup = split_s > 0 ? fused_s / split_s : 1.0;
    speedup_sum += speedup;
    ++rows;
    table.row({dataset.name, lotus::util::fixed(split_s, 3),
               lotus::util::fixed(fused_s, 3),
               lotus::util::fixed(speedup, 2) + "x"});
  }
  if (rows > 0)
    table.row({"Average", "-", "-",
               lotus::util::fixed(speedup_sum / static_cast<double>(rows), 2) + "x"});
  table.print(std::cout);
  return 0;
}
