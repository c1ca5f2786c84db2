// Decoder mutation suite (label `integrity`): small LOTUSGR1, LOTUSLG2 and
// LOTUSPA1 images are cut at every length and have every byte flipped, and
// each mutant goes through every reader of its format. A small edge-list
// text file gets the same treatment through both text pipelines, which must
// agree with each other. A mutant must load as
// the original graph or fail with a typed Status (io_error or
// invalid_argument): never a crash, a hang, or a different graph. Each
// format has one decoder (the mapped one; the heap readers copy what it
// returns) and every reader requires the checksum footer, so an image whose
// footer was cut off cannot smuggle in a rewritten ID either.
// scripts/check_chaos.sh runs this suite under ASan and with
// LOTUS_MAPGUARD=0.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/oocore.hpp"
#include "lotus/lotus_graph.hpp"
#include "lotus/serialize.hpp"
#include "tc/prepared.hpp"
#include "util/checksum.hpp"
#include "util/status.hpp"

namespace {

namespace g = lotus::graph;
namespace core = lotus::core;
namespace tc = lotus::tc;
namespace cks = lotus::util::checksum;
namespace fs = std::filesystem;
using lotus::util::Status;
using lotus::util::StatusCode;

/// Checks one image file through every reader of its format.
using Readers = std::function<::testing::AssertionResult(const std::string&)>;

/// A failed load must carry one of the two codes a damaged file maps to.
template <typename T>
::testing::AssertionResult original_or_typed_error(
    const lotus::util::Expected<T>& loaded, const char* reader,
    const std::function<bool(const T&)>& is_original) {
  if (loaded.ok()) {
    if (is_original(loaded.value())) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << reader << " loaded a different graph";
  }
  const StatusCode code = loaded.status().code();
  if (code == StatusCode::kIoError || code == StatusCode::kInvalidArgument)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << reader << " failed untyped: " << loaded.status().to_string();
}

bool same_lotus(const core::LotusGraph& a, const core::LotusGraph& b) {
  return a.hub_count() == b.hub_count() && a.relabeling() == b.relabeling() &&
         a.h2h().words() == b.h2h().words() && a.he() == b.he() &&
         a.nhe() == b.nhe();
}

bool same_prepared(const tc::PreparedGraph& a, const tc::PreparedGraph& b) {
  const bool oriented = a.oriented() == nullptr
                            ? b.oriented() == nullptr
                            : b.oriented() != nullptr &&
                                  *a.oriented() == *b.oriented();
  const bool lotus = a.lotus() == nullptr
                         ? b.lotus() == nullptr
                         : b.lotus() != nullptr &&
                               same_lotus(*a.lotus(), *b.lotus());
  return a.kind() == b.kind() && a.build_s() == b.build_s() && oriented &&
         lotus;
}

class DecoderMutation : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("lotus_decoder_mutation_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  [[nodiscard]] static std::string slurp(const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
  }

  void spit(const std::string& file, const std::string& bytes) const {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// The 12-clique of the footerless case, and the graph the LOTUSLG2 and
  /// spill images are built from.
  [[nodiscard]] static g::CsrGraph clique() {
    return g::build_undirected(g::complete(12));
  }
  [[nodiscard]] static g::CsrGraph small_graph() {
    return g::build_undirected(g::rmat({.scale = 5, .edge_factor = 4, .seed = 9}));
  }
  /// Four hubs, so every LOTUSLG2 section of the small graph is non-empty.
  [[nodiscard]] static core::LotusConfig four_hubs() {
    core::LotusConfig config;
    config.hub_count = 4;
    return config;
  }

  [[nodiscard]] static Readers csx_readers(const g::CsrGraph& original) {
    return [original](const std::string& file) {
      const std::function<bool(const g::CsrGraph&)> same =
          [&](const g::CsrGraph& graph) { return graph == original; };
      auto result = original_or_typed_error(g::read_csr_binary_s(file),
                                            "read_csr_binary_s", same);
      if (!result) return result;
      return original_or_typed_error(g::oocore::read_csr_mapped_s(file),
                                     "read_csr_mapped_s", same);
    };
  }

  [[nodiscard]] static Readers lg2_readers(const core::LotusGraph& original) {
    return [original](const std::string& file) {
      const std::function<bool(const core::LotusGraph&)> same =
          [&](const core::LotusGraph& lg) { return same_lotus(lg, original); };
      auto result = original_or_typed_error(core::read_lotus_binary_s(file),
                                            "read_lotus_binary_s", same);
      if (!result) return result;
      return original_or_typed_error(core::read_lotus_mapped_s(file),
                                     "read_lotus_mapped_s", same);
    };
  }

  [[nodiscard]] static Readers spill_readers(const tc::PreparedGraph& original) {
    return [original](const std::string& file) {
      const std::function<bool(const tc::PreparedGraph&)> same =
          [&](const tc::PreparedGraph& p) { return same_prepared(p, original); };
      return original_or_typed_error(tc::PreparedGraph::load_mapped_s(file),
                                     "PreparedGraph::load_mapped_s", same);
    };
  }

  /// Every prefix and every single-byte flip of `image` through `readers`.
  void mutate_everywhere(const std::string& name, const std::string& image,
                         const Readers& readers) const {
    const std::string file = path(name);
    spit(file, image);
    ASSERT_TRUE(readers(file)) << name << ": the unmutated image";
    for (std::size_t keep = 0; keep < image.size(); ++keep) {
      spit(file, image.substr(0, keep));
      ASSERT_TRUE(readers(file)) << name << " cut to " << keep << " bytes";
    }
    for (std::size_t at = 0; at < image.size(); ++at) {
      std::string mutant = image;
      mutant[at] = static_cast<char>(mutant[at] ^ 0xff);
      spit(file, mutant);
      ASSERT_TRUE(readers(file)) << name << " with byte " << at << " flipped";
    }
  }

  fs::path dir_;
};

/// Overwrite the u32 at byte `at` of `bytes`.
void put_u32(std::string& bytes, std::size_t at, std::uint32_t value) {
  std::memcpy(bytes.data() + at, &value, sizeof value);
}

[[nodiscard]] std::uint64_t get_u64(const std::string& bytes, std::size_t at) {
  std::uint64_t value = 0;
  std::memcpy(&value, bytes.data() + at, sizeof value);
  return value;
}

[[nodiscard]] constexpr std::uint64_t pad8(std::uint64_t bytes) {
  return (bytes + 7) & ~std::uint64_t{7};
}

TEST_F(DecoderMutation, CsxCutsAndFlipsLoadTheOriginalOrFailTyped) {
  const g::CsrGraph graph = clique();
  ASSERT_TRUE(g::write_csr_binary_s(path("master.bin"), graph).ok());
  mutate_everywhere("csx.bin", slurp(path("master.bin")), csx_readers(graph));
}

TEST_F(DecoderMutation, Lg2CutsAndFlipsLoadTheOriginalOrFailTyped) {
  const auto lg = core::LotusGraph::build(small_graph(), four_hubs());
  ASSERT_GT(lg.h2h().words().size(), 0u);
  ASSERT_GT(lg.he().num_edges(), 0u);
  ASSERT_TRUE(core::write_lotus_binary_s(path("master.lg2"), lg).ok());
  mutate_everywhere("lg2.lg2", slurp(path("master.lg2")), lg2_readers(lg));
}

TEST_F(DecoderMutation, SpillCutsAndFlipsLoadTheOriginalOrFailTyped) {
  for (const auto kind : {tc::ArtifactKind::kOriented, tc::ArtifactKind::kLotus}) {
    const auto prepared =
        tc::PreparedGraph::build(kind, small_graph(), four_hubs());
    const std::string name = tc::artifact_kind_name(kind);
    ASSERT_TRUE(prepared.save_s(path(name + ".master.lpa")).ok());
    mutate_everywhere(name + ".lpa", slurp(path(name + ".master.lpa")),
                      spill_readers(prepared));
  }
}

// The text pipelines: read_edge_list_text_s + build_undirected in memory,
// and oocore::build_undirected_external_s through bucket files. Every cut
// and every byte replaced by a digit, a comment or sign character, a line
// break, a space or its bitwise complement must give both pipelines the same
// graph or the same typed status code. IDs stay at two digits, so a mutant's
// largest ID (digits merged across a replaced space) stays small.
TEST_F(DecoderMutation, TextCutsAndReplacementsAgreeAcrossBothBuilders) {
  const std::string text =
      "# five-cycle with chords\n0 1\n1 2\n2 3 7\n3 4\n%x\n4 0\n\n0 2\n13 4\n";
  const std::string file = path("edges.txt");
  const auto agree = [&](const std::string& what) {
    spit(file, what);
    lotus::util::Expected<g::EdgeList> edges = g::read_edge_list_text_s(file);
    const lotus::util::Expected<g::CsrGraph> external =
        g::oocore::build_undirected_external_s(file, {.temp_dir = dir_.string()});
    if (edges.ok() != external.ok())
      return ::testing::AssertionFailure()
             << "one builder failed: "
             << (edges.ok() ? external.status() : edges.status()).to_string();
    if (!edges.ok()) {
      const StatusCode code = edges.status().code();
      if (code != external.status().code())
        return ::testing::AssertionFailure()
               << edges.status().to_string() << " vs "
               << external.status().to_string();
      if (code != StatusCode::kIoError && code != StatusCode::kInvalidArgument)
        return ::testing::AssertionFailure()
               << "untyped: " << edges.status().to_string();
      return ::testing::AssertionSuccess();
    }
    if (!(g::build_undirected(edges.value()) == external.value()))
      return ::testing::AssertionFailure() << "the builders disagree";
    return ::testing::AssertionSuccess();
  };
  ASSERT_TRUE(agree(text)) << "the unmutated file";
  for (std::size_t keep = 0; keep < text.size(); ++keep)
    ASSERT_TRUE(agree(text.substr(0, keep))) << "cut to " << keep << " bytes";
  for (std::size_t at = 0; at < text.size(); ++at) {
    for (const char replacement :
         {'9', '0', '#', '%', '-', '+', '\n', ' ', '\t',
          static_cast<char>(text[at] ^ 0xff)}) {
      std::string mutant = text;
      mutant[at] = replacement;
      ASSERT_TRUE(agree(mutant))
          << "byte " << at << " replaced by " << static_cast<int>(replacement);
    }
  }
}

// An image whose footer was cut off and one of whose IDs was rewritten to
// another in-range ID: nothing structural is wrong with it, so only the
// required footer stands between it and a wrong count.

TEST_F(DecoderMutation, FooterlessCsxWithARewrittenIdIsRejected) {
  const g::CsrGraph graph = clique();
  ASSERT_TRUE(g::write_csr_binary_s(path("master.bin"), graph).ok());
  std::string image = slurp(path("master.bin"));
  image.resize(image.size() - cks::footer_bytes(cks::kCsxSections));
  // Vertex 0's first neighbour, 1, becomes 2 (still below 12).
  const std::size_t neighbors_at = 24 + (graph.num_vertices() + 1) * 8;
  put_u32(image, neighbors_at, 2);
  spit(path("footerless.bin"), image);
  for (const auto& loaded : {g::read_csr_binary_s(path("footerless.bin")),
                             g::oocore::read_csr_mapped_s(path("footerless.bin")),
                             g::oocore::read_csr_mapped_s(
                                 path("footerless.bin"), g::oocore::MapVerify::kOff)}) {
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().to_string();
  }
}

TEST_F(DecoderMutation, FooterlessLg2WithARewrittenIdIsRejected) {
  const auto lg = core::LotusGraph::build(small_graph(), four_hubs());
  ASSERT_TRUE(core::write_lotus_binary_s(path("master.lg2"), lg).ok());
  std::string image = slurp(path("master.lg2"));
  image.resize(image.size() - cks::footer_bytes(cks::kLotusSections));
  // Rewrite one NHE entry u of vertex v to another ID in [hubs, v): the
  // structural scan accepts it.
  const std::uint64_t n = get_u64(image, 8);
  const std::uint64_t hubs = get_u64(image, 16);
  const std::uint64_t nhe_at = 64 + pad8(n * 4) + pad8(get_u64(image, 24) * 8) +
                               pad8((n + 1) * 8) + pad8(get_u64(image, 32) * 2) +
                               pad8((n + 1) * 8);
  bool rewritten = false;
  for (g::VertexId v = 0; v < lg.num_vertices() && !rewritten; ++v) {
    if (lg.nhe().degree(v) == 0 || v < hubs + 2) continue;
    const g::VertexId u = lg.nhe().neighbors(v)[0];
    put_u32(image, nhe_at + lg.nhe().offset(v) * 4,
            u == hubs ? static_cast<g::VertexId>(hubs + 1)
                      : static_cast<g::VertexId>(hubs));
    rewritten = true;
  }
  ASSERT_TRUE(rewritten);
  spit(path("footerless.lg2"), image);
  for (const auto& loaded :
       {core::read_lotus_binary_s(path("footerless.lg2")),
        core::read_lotus_mapped_s(path("footerless.lg2")),
        core::read_lotus_mapped_s(path("footerless.lg2"), /*validate=*/true,
                                  g::oocore::MapVerify::kOff)}) {
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().to_string();
  }
}

TEST_F(DecoderMutation, FooterlessSpillWithARewrittenIdIsRejected) {
  // Both footers go: the spill's own and the embedded LOTUSGR1 image's,
  // whose length in the spill's section table shrinks to match.
  const auto prepared =
      tc::PreparedGraph::build(tc::ArtifactKind::kOriented, small_graph());
  ASSERT_TRUE(prepared.save_s(path("master.lpa")).ok());
  const std::string master = slurp(path("master.lpa"));
  const std::uint64_t csx_len =
      get_u64(master, 32) - cks::footer_bytes(cks::kCsxSections);
  std::string image = master.substr(0, 64 + csx_len);
  image.resize(64 + pad8(csx_len), '\0');
  std::memcpy(image.data() + 32, &csx_len, sizeof csx_len);
  // The last oriented neighbour swaps between vertex 0 and vertex 1.
  const std::uint64_t v = get_u64(image, 64 + 8);
  const std::uint64_t e = get_u64(image, 64 + 16);
  ASSERT_GT(e, 0u);
  const std::size_t last_at = 64 + 24 + (v + 1) * 8 + (e - 1) * 4;
  put_u32(image, last_at,
          prepared.oriented()->neighbor_array()[e - 1] == 0 ? 1u : 0u);
  spit(path("footerless.lpa"), image);
  for (const auto verify : {g::oocore::MapVerify::kEager, g::oocore::MapVerify::kOff}) {
    const auto loaded = tc::PreparedGraph::load_mapped_s(path("footerless.lpa"), verify);
    ASSERT_FALSE(loaded.ok());
    const StatusCode code = loaded.status().code();
    EXPECT_TRUE(code == StatusCode::kIoError || code == StatusCode::kInvalidArgument)
        << loaded.status().to_string();
  }
}

}  // namespace
