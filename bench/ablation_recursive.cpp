// Ablation: recursive LOTUS (Sec. 5.5 category 1 / Sec. 7) vs plain LOTUS.
// On graphs with many moderate hubs (low-skew social networks), re-applying
// hub extraction to the NHE residue shifts NNN work into cheaper hub phases.
#include <iostream>

#include "bench/ablations/recursive.hpp"
#include "bench/common.hpp"

int main(int argc, char** argv) {
  lotus::util::Cli cli("Ablation: recursive LOTUS levels");
  lotus::bench::add_common_options(cli, "Frndstr-S,LJGrp-S,MClst-S");
  cli.opt("max-levels", "3", "maximum recursion depth");
  if (!cli.parse(argc, argv)) return 1;
  const auto ctx = lotus::bench::make_context(cli);
  const auto max_levels = static_cast<unsigned>(cli.get_int("max-levels"));

  lotus::util::TablePrinter table("Ablation - recursive LOTUS (end-to-end, s)");
  std::vector<std::string> header = {"Dataset"};
  for (unsigned level = 1; level <= max_levels; ++level)
    header.push_back("levels=" + std::to_string(level));
  header.push_back("triangles");
  table.header(header);

  for (const auto& dataset : ctx.selection) {
    const auto graph = lotus::bench::load(dataset, ctx.factor);
    std::vector<std::string> row = {dataset.name};
    std::uint64_t triangles = 0;
    bool consistent = true;
    for (unsigned level = 1; level <= max_levels; ++level) {
      const auto r = lotus::ablation::count_triangles_recursive(graph, ctx.lotus_config, level);
      row.push_back(lotus::util::fixed(r.preprocess_s + r.count_s, 3) +
                    " (used " + std::to_string(r.levels_used) + ")");
      if (level == 1)
        triangles = r.triangles;
      else
        consistent &= triangles == r.triangles;
    }
    if (!consistent) {
      std::cerr << "count mismatch on " << dataset.name << "\n";
      return 1;
    }
    row.push_back(lotus::util::with_commas(triangles));
    table.row(std::move(row));
  }
  table.print(std::cout);
  return 0;
}
