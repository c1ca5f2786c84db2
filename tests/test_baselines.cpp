// Cross-algorithm agreement: every baseline TC algorithm, run through
// tc::query (artifact build + kernel), must produce the brute-force count on
// deterministic families and on randomized graphs from every generator
// (parameterized property sweep).
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "baselines/tc_baselines.hpp"
#include "graph/builder.hpp"
#include "graph/degree_order.hpp"
#include "graph/generators.hpp"
#include "tc/api.hpp"

namespace {

namespace g = lotus::graph;
namespace b = lotus::baselines;
namespace tc = lotus::tc;

using Algorithm = std::function<std::uint64_t(const g::CsrGraph&)>;

struct NamedAlgorithm {
  std::string name;
  Algorithm run;
};

Algorithm via_query(tc::Algorithm algorithm) {
  return [algorithm](const g::CsrGraph& gr) {
    return tc::query(algorithm, gr).value().result.triangles;
  };
}

// Block sizes other than the production 2^14, straight on the kernel.
Algorithm blocked(g::VertexId block_size) {
  return [block_size](const g::CsrGraph& gr) {
    return b::blocked_tc_prepared(g::degree_ordered_oriented(gr), block_size);
  };
}

std::vector<NamedAlgorithm> all_algorithms() {
  return {
      {"forward_merge", via_query(tc::Algorithm::kForwardMerge)},
      {"forward_gallop", via_query(tc::Algorithm::kForwardGallop)},
      {"forward_hashed", via_query(tc::Algorithm::kForwardHashed)},
      {"forward_bitmap", via_query(tc::Algorithm::kForwardBitmap)},
      {"edge_parallel", via_query(tc::Algorithm::kEdgeParallel)},
      {"edge_iterator", via_query(tc::Algorithm::kEdgeIterator)},
      {"node_iterator", via_query(tc::Algorithm::kNodeIterator)},
      {"blocked_64", blocked(64)},
      {"blocked_1", blocked(1)},
  };
}

void expect_all_agree(const g::CsrGraph& graph, const std::string& label) {
  const std::uint64_t expected = b::brute_force(graph);
  for (const auto& alg : all_algorithms())
    EXPECT_EQ(alg.run(graph), expected) << label << " / " << alg.name;
}

TEST(Baselines, CompleteGraphs) {
  for (g::VertexId n : {3u, 4u, 10u, 25u}) {
    const auto graph = g::build_undirected(g::complete(n));
    const std::uint64_t expected = g::complete_triangles(n);
    EXPECT_EQ(b::brute_force(graph), expected);
    expect_all_agree(graph, "K_" + std::to_string(n));
  }
}

TEST(Baselines, TriangleFreeGraphs) {
  expect_all_agree(g::build_undirected(g::star(64)), "star");
  expect_all_agree(g::build_undirected(g::grid(8, 8)), "grid");
  expect_all_agree(g::build_undirected(g::complete_bipartite(10, 12)), "bipartite");
}

TEST(Baselines, EmptyAndTinyGraphs) {
  expect_all_agree(g::build_undirected({0, {}}), "empty");
  expect_all_agree(g::build_undirected({1, {}}), "single-vertex");
  expect_all_agree(g::build_undirected({2, {{0, 1}}}), "single-edge");
  expect_all_agree(g::build_undirected(g::cycle(3)), "triangle");
}

TEST(Baselines, WheelFamilies) {
  for (g::VertexId rim : {4u, 9u, 17u})
    expect_all_agree(g::build_undirected(g::wheel(rim)), "wheel");
}

struct GeneratorCase {
  std::string name;
  std::function<g::EdgeList(std::uint64_t seed)> make;
};

class BaselineProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 public:
  static std::vector<GeneratorCase> generators() {
    return {
        {"rmat", [](std::uint64_t s) {
           return g::rmat({.scale = 9, .edge_factor = 6, .seed = s});
         }},
        {"erdos_renyi", [](std::uint64_t s) { return g::erdos_renyi(600, 10.0, s); }},
        {"holme_kim", [](std::uint64_t s) {
           return g::holme_kim({.num_vertices = 500, .edges_per_vertex = 5,
                                .p_triad = 0.5, .seed = s});
         }},
        {"copy_web", [](std::uint64_t s) {
           return g::copy_web({.num_vertices = 500, .edges_per_vertex = 6,
                               .p_copy = 0.6, .locality_window = 64, .seed = s});
         }},
        {"watts_strogatz", [](std::uint64_t s) {
           return g::watts_strogatz({.num_vertices = 400, .ring_degree = 5,
                                     .rewire_prob = 0.2, .seed = s});
         }},
    };
  }
};

TEST_P(BaselineProperty, AgreesWithBruteForce) {
  const auto [gen_index, seed] = GetParam();
  const GeneratorCase gen = BaselineProperty::generators()[static_cast<std::size_t>(gen_index)];
  const auto graph = g::build_undirected(gen.make(seed));
  expect_all_agree(graph, gen.name + " seed=" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(
    GeneratorsBySeeds, BaselineProperty,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Values(1u, 17u, 99u)),
    [](const auto& info) {
      const auto gens = BaselineProperty::generators();
      return gens[static_cast<std::size_t>(std::get<0>(info.param))].name + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Baselines, PreprocessAndCountTimesAreRecorded) {
  const auto graph = g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 1}));
  const auto r = tc::query(tc::Algorithm::kForwardMerge, graph).value().result;
  EXPECT_GT(r.preprocess_s, 0.0);  // the oriented-CSR build
  EXPECT_GE(r.count_s, 0.0);
  EXPECT_DOUBLE_EQ(r.total_s(), r.preprocess_s + r.count_s);
}

}  // namespace
