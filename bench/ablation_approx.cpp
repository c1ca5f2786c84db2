// Ablation: approximate vs exact counting (Sec. 6.2 context) — DOULION
// sparsification sweep and wedge sampling against the exact LOTUS count.
#include <iostream>

#include "bench/ablations/approx.hpp"
#include "bench/common.hpp"
#include "lotus/lotus.hpp"

int main(int argc, char** argv) {
  lotus::util::Cli cli("Ablation: approximate triangle counting accuracy/time");
  lotus::bench::add_common_options(cli, "Twtr-S,SK-S");
  cli.opt("wedge-samples", "100000", "samples for the wedge estimator");
  if (!cli.parse(argc, argv)) return 1;
  const auto ctx = lotus::bench::make_context(cli);
  const auto samples = static_cast<std::uint64_t>(cli.get_int("wedge-samples"));

  lotus::util::TablePrinter table("Ablation - approximate TC");
  table.header({"Dataset", "method", "estimate", "error%", "time(s)",
                "exact time(s)"});

  for (const auto& dataset : ctx.selection) {
    const auto graph = lotus::bench::load(dataset, ctx.factor);
    const auto exact = lotus::core::count_triangles(graph, ctx.lotus_config);
    const auto exact_count = static_cast<double>(exact.triangles);

    auto emit = [&](const std::string& method, const lotus::ablation::ApproxResult& r) {
      const double error =
          exact_count > 0 ? 100.0 * std::abs(r.estimated_triangles - exact_count) / exact_count
                          : 0.0;
      table.row({dataset.name, method,
                 lotus::util::human_count(r.estimated_triangles),
                 lotus::util::fixed(error, 2), lotus::util::fixed(r.elapsed_s, 3),
                 lotus::util::fixed(exact.total_s(), 3)});
    };

    for (double p : {0.1, 0.25, 0.5})
      emit("doulion p=" + lotus::util::fixed(p, 2),
           lotus::ablation::doulion(graph, p, 17));
    emit("wedges n=" + lotus::util::human_count(static_cast<double>(samples)),
         lotus::ablation::wedge_sampling(graph, samples, 17));
  }
  table.print(std::cout);
  return 0;
}
