// Large-file IO: a CSX artifact whose body crosses the 2 GiB line, which is
// exactly where `long`-based ftell/fseek would truncate offsets (the bug
// util::fileio::tell64/seek64 exists to prevent). Expensive in time, RAM
// (~2.5 GiB) and disk (~2.5 GiB), so it only runs when LOTUS_LARGE_TESTS is
// set; the `large` ctest label lets suites select it explicitly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "graph/oocore.hpp"

namespace {

namespace g = lotus::graph;
namespace fs = std::filesystem;

bool large_tests_enabled() {
  const char* flag = std::getenv("LOTUS_LARGE_TESTS");
  return flag != nullptr && *flag != '\0' && std::string(flag) != "0";
}

constexpr g::VertexId kVertices = 600000;
constexpr std::uint32_t kDegree = 1000;  // 600M neighbours = 2.4 GB body

/// Every vertex carries the same synthetic row 0..kDegree-1; checks sample
/// rows instead of holding a second full copy in memory.
void expect_synthetic_graph(const g::CsrGraph& graph) {
  ASSERT_EQ(graph.num_vertices(), kVertices);
  ASSERT_EQ(graph.num_edges(),
            static_cast<std::uint64_t>(kVertices) * kDegree);
  for (g::VertexId v = 0; v < kVertices; v += 50000) {
    const std::span<const g::VertexId> row = graph.neighbors(v);
    ASSERT_EQ(row.size(), kDegree) << "vertex " << v;
    EXPECT_EQ(row.front(), 0u);
    EXPECT_EQ(row[kDegree / 2], kDegree / 2);
    EXPECT_EQ(row.back(), kDegree - 1);
  }
  EXPECT_EQ(graph.offset(kVertices),
            static_cast<std::uint64_t>(kVertices) * kDegree);
}

TEST(LargeIo, CsxRoundTripBeyondTwoGiB) {
  if (!large_tests_enabled())
    GTEST_SKIP() << "set LOTUS_LARGE_TESTS=1 to run the >2GiB round trip";

  const fs::path dir = fs::temp_directory_path() / "lotus_large_io_test";
  fs::create_directories(dir);
  const std::string file = (dir / "huge.bin").string();

  {
    std::vector<std::uint64_t> offsets(kVertices + 1);
    for (std::size_t i = 0; i <= kVertices; ++i)
      offsets[i] = static_cast<std::uint64_t>(i) * kDegree;
    std::vector<g::VertexId> row(kDegree);
    std::iota(row.begin(), row.end(), 0u);
    std::vector<g::VertexId> neighbors;
    neighbors.reserve(static_cast<std::size_t>(kVertices) * kDegree);
    for (g::VertexId v = 0; v < kVertices; ++v)
      neighbors.insert(neighbors.end(), row.begin(), row.end());
    const g::CsrGraph graph(std::move(offsets), std::move(neighbors));
    ASSERT_TRUE(g::write_csr_binary_s(file, graph).ok());
  }  // free the 2.4 GB source before reading anything back

  ASSERT_GT(fs::file_size(file), std::uint64_t{1} << 31);

  {
    // The heap reader exercises the seek64/tell64 file-size probe and the
    // multi-gigabyte read_fully path.
    const auto heap = g::read_csr_binary_s(file);
    ASSERT_TRUE(heap.ok()) << heap.status().to_string();
    expect_synthetic_graph(heap.value());
  }
  {
    // The mapped reader validates the full body through the views without
    // ever allocating it.
    const auto mapped = lotus::graph::oocore::read_csr_mapped_s(file);
    ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
    EXPECT_EQ(mapped.value().owned_bytes(), 0u);
    expect_synthetic_graph(mapped.value());
  }

  fs::remove_all(dir);
}

}  // namespace
