// IO round-trips plus failure injection: truncated files, bad magic,
// malformed text, out-of-range IDs.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/oocore.hpp"
#include "lotus/lotus_graph.hpp"
#include "lotus/serialize.hpp"
#include "util/checksum.hpp"
#include "util/fault.hpp"
#include "util/status.hpp"
#include "sealed_image.hpp"

namespace {

namespace g = lotus::graph;
namespace fs = std::filesystem;
using lotus::util::StatusCode;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid suffix: concurrent ctest -j processes must not share the dir.
    dir_ = fs::temp_directory_path() /
           ("lotus_io_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(IoTest, EdgeListTextRoundTrip) {
  const g::EdgeList original{5, {{0, 1}, {1, 2}, {3, 4}}};
  ASSERT_TRUE(g::write_edge_list_text_s(path("g.txt"), original).ok());
  const g::EdgeList loaded = g::read_edge_list_text_s(path("g.txt")).value();
  EXPECT_EQ(loaded.num_vertices, 5u);
  ASSERT_EQ(loaded.edges.size(), 3u);
  EXPECT_EQ(loaded.edges[0], (g::Edge{0, 1}));
  EXPECT_EQ(loaded.edges[2], (g::Edge{3, 4}));
}

TEST_F(IoTest, EdgeListSkipsComments) {
  std::ofstream f(path("c.txt"));
  f << "# comment\n% other comment\n1 2\n\n3 4\n";
  f.close();
  const g::EdgeList loaded = g::read_edge_list_text_s(path("c.txt")).value();
  EXPECT_EQ(loaded.edges.size(), 2u);
  EXPECT_EQ(loaded.num_vertices, 5u);
}

TEST_F(IoTest, EdgeListRejectsMalformedLine) {
  std::ofstream f(path("bad.txt"));
  f << "1 2\nnot an edge\n";
  f.close();
  EXPECT_EQ(g::read_edge_list_text_s(path("bad.txt")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IoTest, EdgeListRejectsMissingFile) {
  EXPECT_EQ(g::read_edge_list_text_s(path("nope.txt")).status().code(),
            StatusCode::kIoError);
}

TEST_F(IoTest, EdgeListRejectsHugeIds) {
  std::ofstream f(path("huge.txt"));
  f << "1 99999999999\n";
  f.close();
  EXPECT_EQ(g::read_edge_list_text_s(path("huge.txt")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IoTest, BinaryRoundTrip) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 7}));
  ASSERT_TRUE(g::write_csr_binary_s(path("g.bin"), graph).ok());
  const auto loaded = g::read_csr_binary_s(path("g.bin")).value();
  EXPECT_EQ(loaded, graph);
}

TEST_F(IoTest, BinaryRejectsBadMagic) {
  std::ofstream f(path("bad.bin"), std::ios::binary);
  f << "NOTLOTUS and then some bytes to get past the header";
  f.close();
  EXPECT_EQ(g::read_csr_binary_s(path("bad.bin")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IoTest, BinaryRejectsTruncatedBody) {
  const auto graph = g::build_undirected(g::complete(20));
  ASSERT_TRUE(g::write_csr_binary_s(path("t.bin"), graph).ok());
  // Chop the file in half.
  const auto full = fs::file_size(path("t.bin"));
  fs::resize_file(path("t.bin"), full / 2);
  EXPECT_EQ(g::read_csr_binary_s(path("t.bin")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IoTest, BinaryRejectsCorruptNeighbor) {
  const auto graph = g::build_undirected(g::complete(4));
  ASSERT_TRUE(g::write_csr_binary_s(path("c.bin"), graph).ok());
  std::string image;
  {
    std::ifstream in(path("c.bin"), std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Overwrite the last neighbour with an out-of-range ID and re-seal the
  // footer, so the checksums pass and the range check has to catch it.
  image.resize(image.size() - lotus::util::checksum::footer_bytes(
                                  lotus::util::checksum::kCsxSections));
  const std::uint32_t bogus = 0xdeadbeef;
  image.replace(image.size() - 4, 4, reinterpret_cast<const char*>(&bogus), 4);
  image = lotus::testing::seal_csx(image);
  {
    std::ofstream out(path("c.bin"), std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
  }
  const auto loaded = g::read_csr_binary_s(path("c.bin"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("neighbour ID out of range"),
            std::string::npos)
      << loaded.status().to_string();
}

TEST_F(IoTest, EmptyEdgeListFileYieldsEmptyGraph) {
  std::ofstream f(path("empty.txt"));
  f << "# nothing here\n";
  f.close();
  const g::EdgeList loaded = g::read_edge_list_text_s(path("empty.txt")).value();
  EXPECT_EQ(loaded.num_vertices, 0u);
  EXPECT_TRUE(loaded.edges.empty());
}

// ---------- text parsing edge cases ----------

TEST_F(IoTest, EdgeListIgnoresTrailingTokens) {
  // Weighted/timestamped dumps carry extra columns; only the first two
  // tokens of a line are the edge.
  std::ofstream f(path("weighted.txt"));
  f << "0 1 0.75\n1 2 1588000000 some-label\n";
  f.close();
  const g::EdgeList loaded = g::read_edge_list_text_s(path("weighted.txt")).value();
  ASSERT_EQ(loaded.edges.size(), 2u);
  EXPECT_EQ(loaded.edges[0], (g::Edge{0, 1}));
  EXPECT_EQ(loaded.edges[1], (g::Edge{1, 2}));
}

TEST_F(IoTest, EdgeListSkipsWhitespaceOnlyLines) {
  std::ofstream f(path("ws.txt"));
  f << "0 1\n   \n\t\n1 2\n \t \r\n";
  f.close();
  const g::EdgeList loaded = g::read_edge_list_text_s(path("ws.txt")).value();
  EXPECT_EQ(loaded.edges.size(), 2u);
}

TEST_F(IoTest, EdgeListAcceptsLargestUsableId) {
  std::ofstream f(path("max32.txt"));
  f << "0 4294967294\n";  // 2^32 - 2: num_vertices = 2^32 - 1 still fits
  f.close();
  const g::EdgeList loaded = g::read_edge_list_text_s(path("max32.txt")).value();
  ASSERT_EQ(loaded.edges.size(), 1u);
  EXPECT_EQ(loaded.edges[0].v, 4294967294u);
  EXPECT_EQ(loaded.num_vertices, 4294967295u);
}

TEST_F(IoTest, EdgeListRejectsIdsWhoseUniverseOverflows32Bits) {
  // 2^32 - 1 is representable as a VertexId but max ID + 1 would wrap
  // num_vertices to 0 — rejected, like anything larger.
  for (const char* id : {"4294967295", "4294967296", "99999999999"}) {
    std::ofstream f(path("over32.txt"));
    f << "0 " << id << "\n";
    f.close();
    EXPECT_EQ(g::read_edge_list_text_s(path("over32.txt")).status().code(),
              StatusCode::kInvalidArgument)
        << id;
  }
}

TEST_F(IoTest, EdgeListRejectsNegativeIds) {
  // "-1" wraps to 2^64-1 under unsigned extraction; the 32-bit range check
  // must reject it either way.
  std::ofstream f(path("neg.txt"));
  f << "-1 2\n";
  f.close();
  EXPECT_EQ(g::read_edge_list_text_s(path("neg.txt")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IoTest, EdgeListKeepsSelfLoopsForBuilderToDrop) {
  std::ofstream f(path("loops.txt"));
  f << "0 0\n0 1\n1 1\n";
  f.close();
  const g::EdgeList loaded = g::read_edge_list_text_s(path("loops.txt")).value();
  EXPECT_EQ(loaded.edges.size(), 3u);  // parser preserves, builder cleans
  const auto csr = g::build_undirected(loaded);
  EXPECT_EQ(csr.num_edges(), 2u);  // only 0-1 survives, both directions
}

TEST_F(IoTest, EdgeListRejectsLoneToken) {
  std::ofstream f(path("lone.txt"));
  f << "0 1\n7\n";
  f.close();
  EXPECT_EQ(g::read_edge_list_text_s(path("lone.txt")).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------- malformed binary corpus ----------
//
// Hostile images fed to every reader of their format. Each entry must get
// one StatusCode from all of them: each format has one decoder (the mapped
// one), and its heap reader is that decode plus a copy. Headers whose sizes
// disagree with the file must be rejected BEFORE the heap readers allocate
// — a hostile header must not demand gigabytes (the ASan suite would flag
// the allocation blowup).

class BinaryCorpusTest : public IoTest {
 protected:
  static void append_u64(std::string& bytes, std::uint64_t value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof value);
  }

  [[nodiscard]] std::string header(std::uint64_t v, std::uint64_t e) const {
    std::string bytes = "LOTUSGR1";
    append_u64(bytes, v);
    append_u64(bytes, e);
    return bytes;
  }

  void write_raw(const std::string& name, const std::string& bytes) const {
    std::ofstream f(path(name), std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Both statuses carry `expected`, and `message` when it is non-empty.
  static void expect_both(const std::string& name, const lotus::util::Status& heap,
                          const lotus::util::Status& mapped, StatusCode expected,
                          const std::string& message) {
    for (const auto* status : {&heap, &mapped}) {
      EXPECT_EQ(status->code(), expected) << name << ": " << status->to_string();
      EXPECT_NE(status->message().find(message), std::string::npos)
          << name << ": " << status->to_string();
    }
  }

  /// Load `name` through the heap and the mapped LOTUSGR1 reader.
  void expect_csx_status(const std::string& name, StatusCode expected,
                         const std::string& message = "") const {
    expect_both(name, g::read_csr_binary_s(path(name)).status(),
                g::oocore::read_csr_mapped_s(path(name)).status(), expected,
                message);
  }

  /// Load `bytes` through the heap and the mapped LOTUSLG2 reader.
  void expect_lg2_status(const std::string& name, const std::string& bytes,
                         StatusCode expected,
                         const std::string& message = "") const {
    write_raw(name, bytes);
    expect_both(name, lotus::core::read_lotus_binary_s(path(name)).status(),
                lotus::core::read_lotus_mapped_s(path(name)).status(), expected,
                message);
  }
};

TEST_F(BinaryCorpusTest, RejectsHugeVertexCountAgainstTinyFile) {
  // Declares 2^32-1 vertices (a 32 GB offsets array) with an empty body.
  write_raw("huge_v.bin", header(0xffffffffULL, 0));
  expect_csx_status("huge_v.bin", StatusCode::kInvalidArgument);
}

TEST_F(BinaryCorpusTest, RejectsHugeEdgeCountAgainstTinyFile) {
  // 2^61 edges: e * sizeof(VertexId) would overflow a naive size check.
  std::string bytes = header(2, 1ULL << 61);
  for (int i = 0; i < 3 * 8; ++i) bytes.push_back('\0');
  write_raw("huge_e.bin", bytes);
  expect_csx_status("huge_e.bin", StatusCode::kInvalidArgument);
}

TEST_F(BinaryCorpusTest, RejectsVertexCountOver32Bits) {
  write_raw("v33.bin", header(1ULL << 33, 0));
  expect_csx_status("v33.bin", StatusCode::kInvalidArgument);
}

TEST_F(BinaryCorpusTest, RejectsTrailingGarbage) {
  const auto graph = g::build_undirected(g::complete(5));
  ASSERT_TRUE(g::write_csr_binary_s(path("trail.bin"), graph).ok());
  std::ofstream f(path("trail.bin"), std::ios::binary | std::ios::app);
  f << 'x';
  f.close();
  expect_csx_status("trail.bin", StatusCode::kInvalidArgument);
}

TEST_F(BinaryCorpusTest, RejectsHeaderOnlyFile) {
  write_raw("magic_only.bin", "LOTUSGR1");
  expect_csx_status("magic_only.bin", StatusCode::kIoError);
  write_raw("half_header.bin", "LOTUSGR1\x01\x00\x00\x00");
  expect_csx_status("half_header.bin", StatusCode::kIoError);
}

TEST_F(BinaryCorpusTest, RejectsEmptyFile) {
  write_raw("zero.bin", "");
  expect_csx_status("zero.bin", StatusCode::kIoError);
}

TEST_F(BinaryCorpusTest, RejectsNonMonotonicOffsets) {
  std::string bytes = header(2, 2);
  append_u64(bytes, 0);  // offsets[0]
  append_u64(bytes, 2);  // offsets[1]
  append_u64(bytes, 2);  // offsets[2] == e, but offsets[1] > ... craft below
  bytes.append(8, '\0');  // two 32-bit neighbours (0, 0)
  // Rewrite offsets to {0, 3, 2}: back() == 2 == e but non-monotonic.
  std::string bad = bytes;
  std::uint64_t three = 3;
  bad.replace(8 + 16 + 8, 8, reinterpret_cast<const char*>(&three), 8);
  // Sealed, so the size and checksum checks pass and the scan runs.
  write_raw("nonmono.bin", lotus::testing::seal_csx(bad));
  expect_csx_status("nonmono.bin", StatusCode::kInvalidArgument,
                    "corrupt offsets");
}

TEST_F(BinaryCorpusTest, RejectsNonZeroFirstOffset) {
  std::string bytes = header(1, 1);
  append_u64(bytes, 1);  // offsets[0] != 0
  append_u64(bytes, 1);  // offsets[1] == e
  bytes.append(4, '\0');
  write_raw("first.bin", lotus::testing::seal_csx(bytes));
  expect_csx_status("first.bin", StatusCode::kInvalidArgument,
                    "corrupt offsets");
}

TEST_F(BinaryCorpusTest, ValidEmptyGraphRoundTrips) {
  const auto graph = g::build_undirected({0, {}});
  ASSERT_TRUE(g::write_csr_binary_s(path("empty.bin"), graph).ok());
  expect_csx_status("empty.bin", StatusCode::kOk);
  const auto loaded = g::read_csr_binary_s(path("empty.bin")).value();
  EXPECT_EQ(loaded.num_vertices(), 0u);
  EXPECT_EQ(loaded.num_edges(), 0u);
}

TEST_F(BinaryCorpusTest, Lg2CorpusGetsOneStatusFromEveryReader) {
  const auto lg = lotus::core::LotusGraph::build(
      g::build_undirected(g::rmat({.scale = 7, .edge_factor = 6, .seed = 2})));
  ASSERT_TRUE(lotus::core::write_lotus_binary_s(path("master.lg2"), lg).ok());
  std::string master;
  {
    std::ifstream in(path("master.lg2"), std::ios::binary);
    master.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(master.size(), 64u);
  const auto with_field = [&](std::size_t offset, std::uint64_t value) {
    std::string bytes = master;
    bytes.replace(offset, 8, reinterpret_cast<const char*>(&value), 8);
    return bytes;
  };
  std::uint64_t h2h_words = 0;
  std::memcpy(&h2h_words, master.data() + 24, 8);

  expect_lg2_status("lg2_master.lg2", master, StatusCode::kOk);
  // Cut inside the 64-byte header: a truncation, whichever reader sees it.
  expect_lg2_status("lg2_empty.lg2", "", StatusCode::kIoError);
  expect_lg2_status("lg2_magic.lg2", "LOTUSLG2", StatusCode::kIoError);
  expect_lg2_status("lg2_40.lg2", master.substr(0, 40), StatusCode::kIoError);
  // A whole header whose sizes disagree with the file or are impossible.
  expect_lg2_status("lg2_header.lg2", master.substr(0, 64),
                    StatusCode::kInvalidArgument);
  expect_lg2_status("lg2_cut.lg2", master.substr(0, master.size() - 1),
                    StatusCode::kInvalidArgument);
  expect_lg2_status("lg2_trail.lg2", master + 'x', StatusCode::kInvalidArgument);
  expect_lg2_status("lg2_hubs.lg2", with_field(16, (1ull << 16) + 1),
                    StatusCode::kInvalidArgument);
  expect_lg2_status("lg2_words.lg2", with_field(24, h2h_words + 1),
                    StatusCode::kInvalidArgument);
  expect_lg2_status("lg2_he.lg2", with_field(32, (1ull << 48) + 1),
                    StatusCode::kInvalidArgument);
  // A sealed body with non-monotone HE offsets ({0, he + 1, ...}, ending at
  // he): it passes the size and checksum checks, so the structural scan
  // must reject it.
  const std::uint64_t n = lotus::testing::header_field(master, 8);
  const std::uint64_t he_edges = lotus::testing::header_field(master, 32);
  ASSERT_GE(n, 2u);
  const std::size_t he_offsets_at =
      64 + ((n * 4 + 7) & ~std::uint64_t{7}) + h2h_words * 8;
  std::string nonmono = with_field(he_offsets_at + 8, he_edges + 1);
  nonmono.resize(nonmono.size() - lotus::util::checksum::footer_bytes(
                                      lotus::util::checksum::kLotusSections));
  expect_lg2_status("lg2_nonmono.lg2", lotus::testing::seal_lg2(nonmono),
                    StatusCode::kInvalidArgument, "corrupt offsets");
}

// ---------- status-layer API and mid-read failure injection ----------

namespace fault = lotus::util::fault;

TEST_F(IoTest, StatusApiMapsErrorClasses) {
  // Unreadable file -> io_error; structural corruption -> invalid_argument.
  EXPECT_EQ(g::read_edge_list_text_s(path("nope.txt")).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(g::read_csr_binary_s(path("nope.bin")).status().code(),
            StatusCode::kIoError);

  std::ofstream bad(path("bad_magic.bin"), std::ios::binary);
  bad << "NOTLOTUS and then some bytes to get past the header";
  bad.close();
  EXPECT_EQ(g::read_csr_binary_s(path("bad_magic.bin")).status().code(),
            StatusCode::kInvalidArgument);

  std::ofstream text(path("bad_line.txt"));
  text << "1 2\nnot an edge\n";
  text.close();
  EXPECT_EQ(g::read_edge_list_text_s(path("bad_line.txt")).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(g::write_csr_binary_s(path("no/such/dir/out.bin"),
                                  g::build_undirected(g::complete(3)))
                .code(),
            StatusCode::kIoError);
}

TEST_F(IoTest, TruncationAtEveryRegionFailsCleanly) {
  // Cut the file mid-magic, mid-header, mid-offsets, and mid-neighbours:
  // every truncation point must surface as a clean status (no throw, no
  // partial graph). Cuts inside the magic/header are io_error (the header
  // itself is incomplete); body cuts are invalid_argument, because the
  // size-vs-header check rejects them before anything is allocated.
  const auto graph = g::build_undirected(g::complete(20));
  ASSERT_TRUE(g::write_csr_binary_s(path("full.bin"), graph).ok());
  const auto full = static_cast<std::uint64_t>(fs::file_size(path("full.bin")));
  constexpr std::uint64_t kHeader = 8 + 16;
  const std::uint64_t offsets_end = kHeader + (20 + 1) * 8;
  const std::pair<std::uint64_t, StatusCode> cuts[] = {
      {4, StatusCode::kIoError},                        // mid-magic
      {kHeader - 3, StatusCode::kIoError},              // mid-header
      {kHeader + 40, StatusCode::kInvalidArgument},     // mid-offsets
      {offsets_end + 6, StatusCode::kInvalidArgument},  // mid-neighbours
      {full - 1, StatusCode::kInvalidArgument},         // one byte short
  };
  for (const auto& [cut, expected] : cuts) {
    fs::copy_file(path("full.bin"), path("cut.bin"),
                  fs::copy_options::overwrite_existing);
    fs::resize_file(path("cut.bin"), cut);
    const auto loaded = g::read_csr_binary_s(path("cut.bin"));
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
    EXPECT_EQ(loaded.status().code(), expected) << "cut at " << cut;
  }
}

// The heap loaders decode a mapping, so the streamed reads left are the
// external builder's bucket reads (util::fileio::read_fully).
TEST_F(IoTest, ShortReadsAreRetriedToCompletion) {
  ASSERT_TRUE(g::write_edge_list_text_s(
                  path("short.el"),
                  g::rmat({.scale = 8, .edge_factor = 6, .seed = 3}))
                  .ok());
  const auto expected =
      g::build_undirected(g::read_edge_list_text_s(path("short.el")).value());
  fault::ScopedFaultPlan plan(
      fault::single_site_plan(fault::Site::kReadShort, 1.0));
  const auto loaded = g::oocore::build_undirected_external_s(path("short.el"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), expected);
  EXPECT_GT(fault::injected_count(fault::Site::kReadShort), 0u);
}

TEST_F(IoTest, InjectedReadFailureIsIoError) {
  ASSERT_TRUE(g::write_edge_list_text_s(path("fail.el"), g::complete(10)).ok());
  fault::ScopedFaultPlan plan(
      fault::single_site_plan(fault::Site::kReadFail, 1.0));
  const auto loaded = g::oocore::build_undirected_external_s(path("fail.el"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("injected"), std::string::npos);
  EXPECT_GT(fault::injected_count(fault::Site::kReadFail), 0u);
}

TEST_F(IoTest, ShortWritesAreRetriedToCompletion) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 8, .edge_factor = 6, .seed = 5}));
  {
    fault::ScopedFaultPlan plan(
        fault::single_site_plan(fault::Site::kWriteShort, 1.0));
    ASSERT_TRUE(g::write_csr_binary_s(path("wshort.bin"), graph).ok());
    EXPECT_GT(fault::injected_count(fault::Site::kWriteShort), 0u);
  }
  const auto loaded = g::read_csr_binary_s(path("wshort.bin"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), graph);
}

TEST_F(IoTest, InjectedWriteFailureIsIoErrorAndLeavesNoTornFile) {
  const auto graph = g::build_undirected(g::complete(10));
  {
    fault::ScopedFaultPlan plan(
        fault::single_site_plan(fault::Site::kWriteFail, 1.0));
    const auto status = g::write_csr_binary_s(path("wfail.bin"), graph);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kIoError);
    EXPECT_NE(status.message().find("injected"), std::string::npos);
  }
  // Atomic-rename contract: a failed write must leave neither a torn file at
  // the final path nor a stranded temp file next to it.
  EXPECT_FALSE(fs::exists(path("wfail.bin")));
  EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(IoTest, WriteFaultMatrixNeverTearsTheFinalPath) {
  // Sweep injection probabilities over both write sites: every outcome is
  // either a fully valid artifact at the final path or no file at all, and
  // never a stray temp alongside.
  const auto graph =
      g::build_undirected(g::rmat({.scale = 7, .edge_factor = 5, .seed = 11}));
  const fault::Site sites[] = {fault::Site::kWriteShort,
                               fault::Site::kWriteFail};
  const double probabilities[] = {0.05, 0.25, 1.0};
  int seed = 0;
  for (const fault::Site site : sites) {
    for (const double probability : probabilities) {
      auto plan = fault::single_site_plan(site, probability);
      plan.seed = static_cast<std::uint64_t>(++seed);
      const std::string out = path("matrix.bin");
      lotus::util::Status status;
      {
        fault::ScopedFaultPlan scoped(plan);
        status = g::write_csr_binary_s(out, graph);
      }
      if (status.ok()) {
        const auto loaded = g::read_csr_binary_s(out);
        ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
        EXPECT_EQ(loaded.value(), graph);
        fs::remove(out);
      } else {
        EXPECT_EQ(status.code(), StatusCode::kIoError);
        EXPECT_FALSE(fs::exists(out));
      }
      EXPECT_TRUE(fs::is_empty(dir_))
          << "stranded temp file after site=" << fault::site_name(site)
          << " p=" << probability;
    }
  }
}

}  // namespace
