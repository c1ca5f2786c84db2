// Edge-stream prefetch coverage. The vectorized HNN loop, the NNN hybrid and
// the Forward hybrid walk each parallel_for chunk's adjacency entries as one
// flat stream and prefetch a clamped distance ahead of use
// (kernels/edge_stream.hpp). Each must equal its scalar reference on
// layouts built to stress that index arithmetic: long lists at the 64-vertex
// chunk boundaries, empty lists interleaved with short ones, and the longest
// list on the very last vertex (the lookahead clamps at the array's end).
// The suite carries the `sanitizer` label, so scripts/check_sanitizers.sh
// runs it under ASan+UBSan and TSan.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/tc_baselines.hpp"
#include "lotus/count.hpp"
#include "lotus/lotus_graph.hpp"
#include "lotus/serialize.hpp"
#include "parallel/thread_pool.hpp"
#include "util/prng.hpp"

namespace {

namespace core = lotus::core;
namespace g = lotus::graph;
namespace par = lotus::parallel;

constexpr g::VertexId kVertices = 200;
constexpr g::VertexId kHubs = 16;

// `count` distinct IDs of [lo, hi), ascending.
std::vector<g::VertexId> sample(lotus::util::Xoshiro256& rng, g::VertexId lo,
                                g::VertexId hi, g::VertexId count) {
  std::vector<g::VertexId> ids(hi - lo);
  std::iota(ids.begin(), ids.end(), lo);
  count = std::min<g::VertexId>(count, hi - lo);
  for (g::VertexId i = 0; i < count; ++i)
    std::swap(ids[i], ids[i + rng.next_below(ids.size() - i)]);
  ids.resize(count);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// A LotusGraph with identity relabeling whose HE(v) / NHE(v) lengths are
// the given functions of v (clamped to the IDs below v). H2H holds the hub
// edges HE implies, so the artifact is a consistent LOTUS graph.
core::LotusGraph make_layout(std::uint64_t seed,
                             const std::function<g::VertexId(g::VertexId)>& he_len,
                             const std::function<g::VertexId(g::VertexId)>& nhe_len) {
  lotus::util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> he_offsets{0}, nhe_offsets{0};
  std::vector<std::uint16_t> he;
  std::vector<g::VertexId> nhe;
  core::TriangularBitArray h2h(kHubs);
  for (g::VertexId v = 0; v < kVertices; ++v) {
    for (const g::VertexId h : sample(rng, 0, std::min(v, kHubs), he_len(v))) {
      he.push_back(static_cast<std::uint16_t>(h));
      if (v < kHubs) h2h.set_atomic(v, h);
    }
    if (v > kHubs)
      for (const g::VertexId u : sample(rng, kHubs, v, nhe_len(v))) nhe.push_back(u);
    he_offsets.push_back(he.size());
    nhe_offsets.push_back(nhe.size());
  }
  std::vector<g::VertexId> identity(kVertices);
  std::iota(identity.begin(), identity.end(), g::VertexId{0});
  return core::LotusGraph::from_parts(
      kHubs, std::move(h2h), g::Csr16(std::move(he_offsets), std::move(he)),
      g::CsrGraph(std::move(nhe_offsets), std::move(nhe)), std::move(identity));
}

struct Layout {
  const char* name;
  core::LotusGraph graph;
};

std::vector<Layout> layouts() {
  std::vector<Layout> out;
  // Long lists on the vertices either side of every 64-vertex chunk
  // boundary, short ones elsewhere: the lookahead of a chunk's last
  // entries must clamp instead of running into the next chunk.
  out.push_back({"chunk-boundaries", make_layout(
      11,
      [](g::VertexId v) { return v % 64 >= 60 || v % 64 <= 3 ? g::VertexId{12} : v % 5; },
      [](g::VertexId v) { return v % 64 >= 60 || v % 64 <= 3 ? g::VertexId{40} : v % 7; })});
  // Empty lists interleaved with short ones, HE and NHE out of phase, so
  // the stream runs through vertices the loops skip.
  out.push_back({"interleaved-empty", make_layout(
      12, [](g::VertexId v) { return v % 2 == 0 ? g::VertexId{0} : v % 9; },
      [](g::VertexId v) { return v % 3 == 0 ? g::VertexId{0} : 1 + v % 4; })});
  // The last vertex holds the longest list (every non-hub below it): its
  // lookahead clamps at the final entry of the whole array.
  out.push_back({"last-longest", make_layout(
      13,
      [](g::VertexId v) { return v == kVertices - 1 ? kHubs : v % 4; },
      [](g::VertexId v) { return v == kVertices - 1 ? kVertices : v % 6; })});
  return out;
}

constexpr std::uint32_t kThresholds[] = {0, 2, 64, ~std::uint32_t{0}};

// Every edge-stream path against its scalar reference at 1, 2 and 4
// threads, with each hybrid threshold where the path takes one.
void expect_streams_match_reference(const core::LotusGraph& lg,
                                    const std::string& name) {
  const std::uint64_t hnn_ref =
      core::count_hnn(lg, lotus::baselines::null_probe, /*vectorize=*/false);
  const std::uint64_t nnn_ref =
      core::count_nnn(lg, lotus::baselines::null_probe, /*vectorize=*/false);
  EXPECT_EQ(lotus::baselines::forward_merge_prepared(lg.nhe(), /*vectorize=*/false),
            nnn_ref)
      << name;
  for (const unsigned threads : {1u, 2u, 4u}) {
    par::set_num_threads(threads);
    EXPECT_EQ(core::count_hnn(lg), hnn_ref) << name << " threads=" << threads;
    for (const std::uint32_t threshold : kThresholds) {
      EXPECT_EQ(core::count_nnn(lg, lotus::baselines::null_probe,
                                /*vectorize=*/true, threshold),
                nnn_ref)
          << name << " threads=" << threads << " threshold=" << threshold;
      EXPECT_EQ(lotus::baselines::forward_hybrid_prepared(lg.nhe(), threshold),
                nnn_ref)
          << name << " threads=" << threads << " threshold=" << threshold;
    }
  }
  par::set_num_threads(0);
}

TEST(EdgeStream, HnnNnnAndForwardHybridMatchScalarReference) {
  for (const Layout& layout : layouts())
    expect_streams_match_reference(layout.graph, layout.name);
}

TEST(EdgeStream, MappedLotusGraphMatchesScalarReference) {
  // Spilled and remapped: the arrays are views into the page cache, so the
  // prefetches run over mmap'ed memory and the final lookahead clamps at
  // the end of a mapped section.
  const Layout layout = std::move(layouts().back());
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("lotus_edge_stream_" + std::to_string(::getpid()) + ".lg2"))
          .string();
  ASSERT_TRUE(core::write_lotus_binary_s(path, layout.graph).ok());
  {
    auto mapped = core::read_lotus_mapped_s(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
    ASSERT_TRUE(mapped.value().nhe().mapped());
    expect_streams_match_reference(mapped.value(), "mapped last-longest");
  }
  std::filesystem::remove(path);
}

}  // namespace
