// Differential matrix driver: every counting path × every corpus graph ×
// every pool thread count must produce the brute-force count.
//
// On a mismatch the offending graph is dumped as a text edge list next to
// the test binary and the failure message carries a one-line
// `lotus_diff_repro` command that replays exactly that cell.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "baselines/tc_baselines.hpp"
#include "diff_harness.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using lotus::testing::DiffGraph;
using lotus::testing::DiffPath;

/// Corpus graphs are generated once per process; the brute-force oracle is
/// computed once per graph (it does not depend on the thread count).
struct PreparedGraph {
  DiffGraph spec;
  lotus::graph::CsrGraph csr;
  std::uint64_t expected = 0;
};

const std::vector<PreparedGraph>& prepared_corpus() {
  static const std::vector<PreparedGraph>* corpus = [] {
    auto* out = new std::vector<PreparedGraph>;
    for (DiffGraph& spec : lotus::testing::differential_corpus()) {
      PreparedGraph p;
      p.csr = lotus::graph::build_undirected(spec.edges);
      p.expected = lotus::baselines::brute_force(p.csr);
      p.spec = std::move(spec);
      out->push_back(std::move(p));
    }
    return out;
  }();
  return *corpus;
}

const std::vector<DiffPath>& paths() {
  static const std::vector<DiffPath>* p =
      new std::vector<DiffPath>(lotus::testing::differential_paths());
  return *p;
}

class DifferentialMatrix : public ::testing::TestWithParam<unsigned> {
 protected:
  void TearDown() override {
    // Leave the process-wide pool the way the other suites expect it.
    lotus::parallel::set_num_threads(0);
  }
};

TEST_P(DifferentialMatrix, EveryPathMatchesBruteForce) {
  const unsigned threads = GetParam();
  lotus::parallel::set_num_threads(threads);

  for (const PreparedGraph& graph : prepared_corpus()) {
    for (const DiffPath& path : paths()) {
      const std::uint64_t actual = path.count(graph.csr, graph.spec.config);
      if (actual == graph.expected) continue;
      // Mismatch: dump the graph and print the single-cell repro command.
      const std::string dump =
          "diff_" + graph.spec.name + "_" + path.name + ".el";
      EXPECT_TRUE(lotus::graph::write_edge_list_text_s(dump, graph.spec.edges).ok());
      ADD_FAILURE() << "triangle count mismatch: graph=" << graph.spec.name
                    << " path=" << path.name << " threads=" << threads
                    << " expected="
                    << graph.expected << " actual=" << actual
                    << "\n  graph dumped to " << dump << "\n  repro: "
                    << lotus::testing::repro_command(dump, graph.spec,
                                                     path.name, threads);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoolThreads, DifferentialMatrix,
    ::testing::ValuesIn(lotus::testing::thread_axis()),
    [](const ::testing::TestParamInfo<unsigned>& cell) {
      return "t" + std::to_string(cell.param);
    });

// The acceptance bar of the harness: the matrix must span at least 200
// (graph × path × threads) combinations. Computed from the
// definitions, so it holds independent of test sharding or ordering.
TEST(DifferentialCoverage, AtLeast200Combinations) {
  const std::size_t graphs = lotus::testing::differential_corpus().size();
  const std::size_t path_count = lotus::testing::differential_paths().size();
  const std::size_t cells = lotus::testing::thread_axis().size();
  const std::size_t combinations = graphs * path_count * cells;
  RecordProperty("combinations", static_cast<int>(combinations));
  EXPECT_GE(combinations, 200u)
      << graphs << " graphs x " << path_count << " paths x " << cells
      << " execution cells";
}

// Every corpus name and path name is unique — duplicated names would make
// repro commands and dump files ambiguous.
TEST(DifferentialCoverage, NamesAreUnique) {
  std::map<std::string, int> seen;
  for (const auto& graph : lotus::testing::differential_corpus())
    EXPECT_EQ(++seen["g:" + graph.name], 1) << graph.name;
  for (const auto& path : paths())
    EXPECT_EQ(++seen["p:" + path.name], 1) << path.name;
}

// The dump/reload cycle used on mismatch is itself lossless for counting:
// a corpus graph written as .el and read back counts the same.
TEST(DifferentialCoverage, DumpRoundTripPreservesCount) {
  const PreparedGraph& graph = prepared_corpus().front().spec.edges.edges.empty()
                                   ? prepared_corpus()[2]
                                   : prepared_corpus().front();
  const std::string dump = "diff_roundtrip_check.el";
  ASSERT_TRUE(lotus::graph::write_edge_list_text_s(dump, graph.spec.edges).ok());
  const auto reloaded = lotus::graph::build_undirected(
      lotus::graph::read_edge_list_text_s(dump).value());
  EXPECT_EQ(lotus::baselines::brute_force(reloaded), graph.expected);
  std::remove(dump.c_str());
}

}  // namespace
