// Out-of-core graph pipeline: mmap-backed CSX loading and the
// external-memory CSR builders (docs/OUT_OF_CORE.md).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "baselines/tc_baselines.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/oocore.hpp"
#include "tc/api.hpp"
#include "util/checksum.hpp"
#include "util/memory_budget.hpp"
#include "util/status.hpp"
#include "sealed_image.hpp"

namespace {

namespace g = lotus::graph;
namespace oo = lotus::graph::oocore;
namespace fs = std::filesystem;
namespace cks = lotus::util::checksum;
using lotus::util::StatusCode;

/// Node-iterator count through tc::query: it reads the graph directly, so
/// it walks every neighbour list of a mapped graph.
std::uint64_t node_iterator_count(const g::CsrGraph& graph) {
  return lotus::tc::query(lotus::tc::Algorithm::kNodeIterator, graph)
      .value()
      .result.triangles;
}

class OocoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid suffix: concurrent ctest -j processes must not share the dir.
    dir_ = fs::temp_directory_path() /
           ("lotus_oocore_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  [[nodiscard]] static g::CsrGraph test_graph(std::uint64_t seed = 7) {
    return g::build_undirected(
        g::rmat({.scale = 10, .edge_factor = 8, .seed = seed}));
  }

  /// Dump each undirected edge of `graph` once as a text edge list.
  void write_edge_list(const std::string& file, const g::CsrGraph& graph) const {
    g::EdgeList el{graph.num_vertices(), {}};
    for (g::VertexId v = 0; v < graph.num_vertices(); ++v)
      for (g::VertexId u : graph.neighbors(v))
        if (v < u) el.edges.push_back({v, u});
    ASSERT_TRUE(g::write_edge_list_text_s(file, el).ok());
  }

  fs::path dir_;
};

// ---------- mmap-backed CSX loading ----------

TEST_F(OocoreTest, MappedCsxMatchesHeapLoad) {
  const auto graph = test_graph();
  ASSERT_TRUE(g::write_csr_binary_s(path("g.bin"), graph).ok());
  const auto mapped = oo::read_csr_mapped_s(path("g.bin"));
  ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
  EXPECT_EQ(mapped.value(), graph);
  EXPECT_TRUE(mapped.value().mapped());
  EXPECT_EQ(mapped.value().owned_bytes(), 0u);
}

TEST_F(OocoreTest, MappedEmptyGraphRoundTrips) {
  const auto graph = g::build_undirected({0, {}});
  ASSERT_TRUE(g::write_csr_binary_s(path("empty.bin"), graph).ok());
  const auto mapped = oo::read_csr_mapped_s(path("empty.bin"));
  ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
  EXPECT_EQ(mapped.value().num_vertices(), 0u);
  EXPECT_EQ(mapped.value().num_edges(), 0u);
}

TEST_F(OocoreTest, MappedGraphSurvivesFileUnlink) {
  const auto graph = test_graph();
  ASSERT_TRUE(g::write_csr_binary_s(path("gone.bin"), graph).ok());
  const auto mapped = oo::read_csr_mapped_s(path("gone.bin"));
  ASSERT_TRUE(mapped.ok());
  fs::remove(path("gone.bin"));
  // POSIX keeps the mapping alive until the last reference drops.
  EXPECT_EQ(node_iterator_count(mapped.value()),
            lotus::baselines::brute_force(graph));
}

TEST_F(OocoreTest, MappedRejectsCorruptFiles) {
  EXPECT_EQ(oo::read_csr_mapped_s(path("absent.bin")).status().code(),
            StatusCode::kIoError);

  std::ofstream bad(path("bad.bin"), std::ios::binary);
  bad << "NOTLOTUS and then some bytes to get past the header";
  bad.close();
  EXPECT_EQ(oo::read_csr_mapped_s(path("bad.bin")).status().code(),
            StatusCode::kInvalidArgument);

  const auto graph = g::build_undirected(g::complete(20));
  ASSERT_TRUE(g::write_csr_binary_s(path("cut.bin"), graph).ok());
  fs::resize_file(path("cut.bin"), fs::file_size(path("cut.bin")) / 2);
  EXPECT_EQ(oo::read_csr_mapped_s(path("cut.bin")).status().code(),
            StatusCode::kInvalidArgument);

  // A flipped neighbour in a footered file is caught by checksum
  // verification (kIoError) before the structural scan ever runs.
  const auto kFooterSize = static_cast<std::streamoff>(
      cks::footer_bytes(cks::kCsxSections));
  ASSERT_TRUE(g::write_csr_binary_s(path("corrupt.bin"), graph).ok());
  {
    std::fstream f(path("corrupt.bin"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-4 - kFooterSize, std::ios::end);
    const std::uint32_t bogus = 0xdeadbeef;
    f.write(reinterpret_cast<const char*>(&bogus), 4);
  }
  const auto corrupt = oo::read_csr_mapped_s(path("corrupt.bin"));
  EXPECT_EQ(corrupt.status().code(), StatusCode::kIoError);
  EXPECT_NE(corrupt.status().message().find("checksum mismatch"),
            std::string::npos)
      << corrupt.status().to_string();

  // The same neighbour under a re-sealed footer passes the checksums, so
  // the structural scan must catch it.
  std::string image;
  {
    std::ifstream in(path("corrupt.bin"), std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), {});
  }
  image.resize(image.size() - static_cast<std::size_t>(kFooterSize));
  {
    std::ofstream out(path("resealed.bin"), std::ios::binary);
    const std::string sealed = lotus::testing::seal_csx(image);
    out.write(sealed.data(), static_cast<std::streamsize>(sealed.size()));
  }
  const auto resealed = oo::read_csr_mapped_s(path("resealed.bin"));
  EXPECT_EQ(resealed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resealed.status().message().find("neighbour ID out of range"),
            std::string::npos)
      << resealed.status().to_string();
}

// The paper-level acceptance bar of the mmap path: with a memory budget the
// CSX cannot fit, the heap loader fails with out_of_memory while the mapped
// loader — charging ≈0 — still loads, and counting completes on the views.
TEST_F(OocoreTest, CountingCompletesUnderBudgetTheHeapLoadFails) {
  const auto graph = test_graph();
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  ASSERT_TRUE(g::write_csr_binary_s(path("big.bin"), graph).ok());

  lotus::util::MemoryBudget budget(graph.topology_bytes() / 4);
  lotus::util::ScopedMemoryBudget scoped(&budget);

  const auto heap = g::read_csr_binary_s(path("big.bin"));
  ASSERT_FALSE(heap.ok());
  EXPECT_EQ(heap.status().code(), StatusCode::kOutOfMemory);

  const auto mapped = oo::read_csr_mapped_s(path("big.bin"));
  ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
  EXPECT_LE(budget.used(), budget.limit());
  EXPECT_EQ(node_iterator_count(mapped.value()), expected);
}

// ---------- external-memory construction ----------

TEST_F(OocoreTest, ExternalBuildReproducesInMemoryBuilder) {
  const auto graph = test_graph(11);
  write_edge_list(path("g.el"), graph);
  // Compare against the in-memory builder over the same file: the edge list
  // cannot represent the rmat graph's trailing isolated vertices, so both
  // builders size the result to max_id + 1.
  const auto expected =
      g::build_undirected(g::read_edge_list_text_s(path("g.el")).value());
  oo::ExternalBuildOptions options;
  options.sort_budget_bytes = 1;  // clamped to the 1 MiB floor
  const auto rebuilt = oo::build_undirected_external_s(path("g.el"), options);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().to_string();
  EXPECT_EQ(rebuilt.value(), expected);
  // No bucket temp files may survive.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);  // just g.el
}

TEST_F(OocoreTest, ExternalBuildCleansDirtyInput) {
  // Self-loops dropped, duplicates (in both orientations) deduplicated —
  // identical to build_undirected over the same list.
  std::ofstream f(path("dirty.el"));
  f << "# dirty\n0 1\n1 0\n2 2\n0 1\n1 2\n0 2\n3 4\n4 3\n4 4\n";
  f.close();
  const auto expected = g::build_undirected(g::read_edge_list_text_s(path("dirty.el")).value());
  const auto rebuilt = oo::build_undirected_external_s(path("dirty.el"));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().to_string();
  EXPECT_EQ(rebuilt.value(), expected);
}

TEST_F(OocoreTest, ExternalBuildHandlesEmptyInput) {
  std::ofstream f(path("empty.el"));
  f << "# nothing\n";
  f.close();
  const auto rebuilt = oo::build_undirected_external_s(path("empty.el"));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().to_string();
  EXPECT_EQ(rebuilt.value().num_vertices(), 0u);
  EXPECT_EQ(rebuilt.value().num_edges(), 0u);
}

TEST_F(OocoreTest, ExternalBuildRejectsMalformedInput) {
  EXPECT_EQ(oo::build_undirected_external_s(path("absent.el")).status().code(),
            StatusCode::kIoError);
  std::ofstream f(path("bad.el"));
  f << "0 1\nnot an edge\n";
  f.close();
  EXPECT_EQ(oo::build_undirected_external_s(path("bad.el")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(OocoreTest, ExternalBuildHonoursTheSortBudget) {
  const auto graph = test_graph(13);
  write_edge_list(path("b.el"), graph);
  // A budget only the per-bucket arc arrays charge against: generous enough
  // for one bucket at the 1 MiB floor plus the result, tight enough that a
  // single all-arcs bucket (16 bytes per arc) would blow it.
  lotus::util::MemoryBudget budget(graph.num_edges() * 8 + (4u << 20));
  lotus::util::ScopedMemoryBudget scoped(&budget);
  oo::ExternalBuildOptions options;
  options.sort_budget_bytes = 1;  // 1 MiB floor
  const auto rebuilt = oo::build_undirected_external_s(path("b.el"), options);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().to_string();
  EXPECT_EQ(rebuilt.value(),
            g::build_undirected(g::read_edge_list_text_s(path("b.el")).value()));
}

TEST_F(OocoreTest, ExternalBuildSplitsWideIdRangesIntoRealBuckets) {
  // A ring over 300k vertices spans several 2^16-ID histogram slots and
  // symmetrizes to 600k arcs — at the 1 MiB sort-budget floor (128Ki arcs
  // per bucket) that is a genuine multi-bucket external sort, not the
  // single-bucket degenerate case every small graph takes. A few chords
  // plant known triangles.
  constexpr g::VertexId kRing = 300000;
  g::EdgeList el{kRing, {}};
  for (g::VertexId i = 0; i < kRing; ++i)
    el.edges.push_back({i, (i + 1) % kRing});
  for (g::VertexId i = 0; i + 2 < kRing; i += 50000)
    el.edges.push_back({i, i + 2});
  ASSERT_TRUE(g::write_edge_list_text_s(path("ring.el"), el).ok());

  const auto expected = g::build_undirected(el);
  oo::ExternalBuildOptions options;
  options.sort_budget_bytes = 1;  // 1 MiB floor
  const auto rebuilt = oo::build_undirected_external_s(path("ring.el"), options);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().to_string();
  EXPECT_EQ(rebuilt.value(), expected);
  EXPECT_EQ(node_iterator_count(rebuilt.value()), 6u);
}

TEST_F(OocoreTest, ExternalCsxFileBuildsAMappableArtifact) {
  const auto graph = test_graph(17);
  write_edge_list(path("c.el"), graph);
  oo::ExternalBuildOptions options;
  options.sort_budget_bytes = 1;
  options.temp_dir = dir_.string();
  ASSERT_TRUE(
      oo::build_csx_file_external_s(path("c.el"), path("c.bin"), options).ok());
  const auto expected =
      g::build_undirected(g::read_edge_list_text_s(path("c.el")).value());
  const auto mapped = oo::read_csr_mapped_s(path("c.bin"));
  ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
  EXPECT_EQ(mapped.value(), expected);
  // The artifact is byte-identical to what the in-memory writer produces.
  ASSERT_TRUE(g::write_csr_binary_s(path("reference.bin"), expected).ok());
  EXPECT_EQ(fs::file_size(path("c.bin")), fs::file_size(path("reference.bin")));
}

TEST_F(OocoreTest, EndToEndDiskPipelineCountsWithoutHeapTopology) {
  // Text edge list -> external CSX build -> mmap -> count: the full
  // out-of-core journey, with a budget that the in-memory topology could
  // never satisfy once loaded the classic way.
  const auto graph = test_graph(19);
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  write_edge_list(path("e.el"), graph);
  ASSERT_TRUE(oo::build_csx_file_external_s(path("e.el"), path("e.bin")).ok());

  lotus::util::MemoryBudget budget(graph.topology_bytes() / 4);
  lotus::util::ScopedMemoryBudget scoped(&budget);
  const auto mapped = oo::read_csr_mapped_s(path("e.bin"));
  ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
  EXPECT_EQ(node_iterator_count(mapped.value()), expected);
}

}  // namespace
