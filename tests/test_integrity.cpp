// Artifact-integrity suite (label `integrity`): the checksum layer shared by
// every on-disk format, the corruption matrix (bit-flip / truncate each
// section of LOTUSGR1, LOTUSLG2 and LOTUSPA1 and demand detection), the
// SIGBUS-scoping mapped-fault guard with its disabled-guard death control,
// AtomicFileWriter crash safety, and the tc::Engine self-healing spill tier
// (docs/ROBUSTNESS.md, docs/OUT_OF_CORE.md).
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "baselines/tc_baselines.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/oocore.hpp"
#include "kernels/dispatch.hpp"
#include "lotus/lotus_graph.hpp"
#include "lotus/serialize.hpp"
#include "tc/engine.hpp"
#include "tc/prepared.hpp"
#include "util/checksum.hpp"
#include "util/fault.hpp"
#include "util/file_io.hpp"
#include "util/mapguard.hpp"
#include "util/mmap_file.hpp"
#include "util/status.hpp"

namespace {

namespace g = lotus::graph;
namespace oo = lotus::graph::oocore;
namespace core = lotus::core;
namespace tc = lotus::tc;
namespace cks = lotus::util::checksum;
namespace fault = lotus::util::fault;
namespace fileio = lotus::util::fileio;
namespace kernels = lotus::kernels;
namespace fs = std::filesystem;
using lotus::util::MappedFile;
using lotus::util::Status;
using lotus::util::StatusCode;

class IntegrityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Suffix with the pid: ctest -j runs each case as its own process, and
    // a shared directory would be torn down under a sibling mid-write.
    dir_ = fs::temp_directory_path() /
           ("lotus_integrity_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  [[nodiscard]] static g::CsrGraph test_graph(std::uint64_t seed = 11) {
    return g::build_undirected(
        g::rmat({.scale = 10, .edge_factor = 8, .seed = seed}));
  }

  fs::path dir_;
};

/// XOR one bit of the byte at `offset`.
void flip_byte(const std::string& file, std::uint64_t offset) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << file;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  ASSERT_TRUE(f.good());
  f.seekp(static_cast<std::streamoff>(offset));
  byte = static_cast<char>(byte ^ 0x10);
  f.write(&byte, 1);
  ASSERT_TRUE(f.good());
}

[[nodiscard]] std::uint64_t read_u64_at(const std::string& file,
                                        std::uint64_t offset) {
  std::ifstream f(file, std::ios::binary);
  f.seekg(static_cast<std::streamoff>(offset));
  std::uint64_t value = 0;
  f.read(reinterpret_cast<char*>(&value), 8);
  return value;
}

[[nodiscard]] constexpr std::uint64_t pad8(std::uint64_t bytes) {
  return (bytes + 7) & ~std::uint64_t{7};
}

// ---------- checksum primitives ----------

TEST(ChecksumTest, DigestIsChunkingIndependent) {
  std::vector<unsigned char> data(10013);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<unsigned char>((i * 131) ^ (i >> 3));

  const std::uint64_t whole = cks::block_checksum(data.data(), data.size());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{113},
                                  std::size_t{4096}}) {
    cks::Checksummer c;
    for (std::size_t off = 0; off < data.size(); off += chunk)
      c.update(data.data() + off, std::min(chunk, data.size() - off));
    EXPECT_EQ(c.digest(), whole) << "chunk=" << chunk;
  }

  EXPECT_NE(cks::block_checksum(data.data(), data.size(), /*seed=*/1), whole);
  // Length is part of the digest: a prefix must not collide with the whole.
  EXPECT_NE(cks::block_checksum(data.data(), data.size() - 1), whole);
}

TEST(ChecksumTest, EveryBitFlipChangesTheDigest) {
  std::vector<unsigned char> data(257);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<unsigned char>(i * 37);
  const std::uint64_t want = cks::block_checksum(data.data(), data.size());
  for (const std::size_t at : {std::size_t{0}, std::size_t{63},
                               std::size_t{64}, std::size_t{200},
                               data.size() - 1}) {
    for (int bit = 0; bit < 8; ++bit) {
      data[at] = static_cast<unsigned char>(data[at] ^ (1u << bit));
      EXPECT_NE(cks::block_checksum(data.data(), data.size()), want)
          << "byte " << at << " bit " << bit;
      data[at] = static_cast<unsigned char>(data[at] ^ (1u << bit));
    }
  }
}

TEST(ChecksumTest, SimdTiersAreLaneExactWithScalar) {
  std::vector<unsigned char> data(64 * 33);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<unsigned char>((i * 193) ^ (i >> 5));

  const auto run = [&](const kernels::KernelTable& table) {
    std::array<std::uint64_t, 8> acc{};
    for (std::size_t j = 0; j < 8; ++j)
      acc[j] = 0x0123456789abcdefULL * (j + 1) ^ kernels::kChecksumSecret[j];
    table.checksum_stripes(acc.data(), data.data(), 33);
    return acc;
  };

  const auto want = run(kernels::detail::scalar_kernel_table());
  for (const kernels::KernelTable* table :
       {kernels::detail::avx2_kernel_table(),
        kernels::detail::avx512_kernel_table(),
        kernels::detail::neon_kernel_table()}) {
    if (table == nullptr) continue;
    EXPECT_EQ(run(*table), want);
  }
  EXPECT_EQ(run(kernels::kernel_table()), want);  // the dispatched tier
}

TEST(ChecksumTest, FooterRoundTripsAndRejectsEveryCorruption) {
  const std::uint64_t sums[3] = {0x1111, 0x2222, 0x3333};
  std::vector<unsigned char> footer(cks::footer_bytes(3));
  cks::write_footer(sums, 3, footer.data());

  std::uint64_t out[3] = {};
  ASSERT_TRUE(cks::read_footer(footer.data(), 3, "t", out).ok());
  EXPECT_EQ(out[0], sums[0]);
  EXPECT_EQ(out[2], sums[2]);

  auto corrupted = [&](std::size_t offset, unsigned char x) {
    std::vector<unsigned char> bad = footer;
    bad[offset] ^= x;
    return cks::read_footer(bad.data(), 3, "t", out);
  };
  // Magic (last 8 bytes).
  Status s = corrupted(footer.size() - 3, 0xff);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("bad checksum footer magic"), std::string::npos);
  // Version (first trailer word).
  s = corrupted(8 * 3, 0x08);
  EXPECT_NE(s.message().find("unsupported checksum footer version"),
            std::string::npos);
  // Section count.
  s = corrupted(8 * 3 + 4, 0x01);
  EXPECT_NE(s.message().find("sections, format has 3"), std::string::npos);
  // A stored sum: caught by the footer's own sums_checksum.
  s = corrupted(0, 0x40);
  EXPECT_NE(s.message().find("itself corrupt"), std::string::npos);
}

// ---------- the corruption matrix ----------
//
// Bit-flip (at least) one byte of every section of every format and demand
// the load fails — payload flips with kIoError naming the section, header
// geometry flips with whichever structural check fires first. Zero crashes.

TEST_F(IntegrityTest, CsxMatrixEverySectionDetected) {
  const auto graph = test_graph();
  const std::uint64_t v = graph.num_vertices();
  constexpr std::uint64_t kHeader = 24;  // magic + u64 v + u64 e
  const std::uint64_t offsets_at = kHeader;
  const std::uint64_t neighbors_at = kHeader + (v + 1) * 8;

  const struct {
    const char* section;
    std::uint64_t offset;
    bool named;  // payload sections fail as kIoError naming the section
  } matrix[] = {
      {"header", 10, false},  // low byte of the vertex count
      {"offsets", offsets_at + 16, true},
      {"neighbors", neighbors_at + 4, true},
  };

  for (const auto& m : matrix) {
    const std::string file = path(std::string("csx_") + m.section + ".bin");
    ASSERT_TRUE(g::write_csr_binary_s(file, graph).ok());
    flip_byte(file, m.offset);

    const auto mapped = oo::read_csr_mapped_s(file);
    const auto streamed = g::read_csr_binary_s(file);
    ASSERT_FALSE(mapped.ok()) << m.section;
    ASSERT_FALSE(streamed.ok()) << m.section;
    if (m.named) {
      const std::string want =
          std::string("checksum mismatch in section '") + m.section + "'";
      EXPECT_EQ(mapped.status().code(), StatusCode::kIoError);
      EXPECT_NE(mapped.status().message().find(want), std::string::npos)
          << mapped.status().to_string();
      EXPECT_EQ(streamed.status().code(), StatusCode::kIoError);
      EXPECT_NE(streamed.status().message().find(want), std::string::npos)
          << streamed.status().to_string();
    }
  }
}

TEST_F(IntegrityTest, LotusMatrixEverySectionDetected) {
  const auto lg = core::LotusGraph::build(test_graph());
  const std::string master = path("lotus.lg2");
  ASSERT_TRUE(core::write_lotus_binary_s(master, lg).ok());

  // Reconstruct the documented LOTUSLG2 layout from the header fields.
  const std::uint64_t n = read_u64_at(master, 8);
  const std::uint64_t h2h_words = read_u64_at(master, 24);
  const std::uint64_t he_edges = read_u64_at(master, 32);
  const std::uint64_t nhe_edges = read_u64_at(master, 40);
  struct SectionExtent {
    const char* name;
    std::uint64_t offset, bytes;
  };
  std::vector<SectionExtent> sections;
  std::uint64_t pos = 64;
  const auto add = [&](const char* name, std::uint64_t bytes) {
    sections.push_back({name, pos, bytes});
    pos += pad8(bytes);
  };
  add("new_id", n * 4);
  add("h2h", h2h_words * 8);
  add("he_offsets", (n + 1) * 8);
  add("he_neighbors", he_edges * 2);
  add("nhe_offsets", (n + 1) * 8);
  add("nhe_neighbors", nhe_edges * 4);
  ASSERT_EQ(pos + cks::footer_bytes(cks::kLotusSections), fs::file_size(master))
      << "layout drifted from the writer — update this test and the docs";

  for (const auto& section : sections) {
    if (section.bytes == 0) continue;  // e.g. an H2H-free graph
    const std::string file = path(std::string("lg2_") + section.name + ".lg2");
    fs::copy_file(master, file);
    flip_byte(file, section.offset);  // first byte: always real data

    const std::string want =
        std::string("checksum mismatch in section '") + section.name + "'";
    const auto mapped = core::read_lotus_mapped_s(file);
    ASSERT_FALSE(mapped.ok()) << section.name;
    EXPECT_EQ(mapped.status().code(), StatusCode::kIoError) << section.name;
    EXPECT_NE(mapped.status().message().find(want), std::string::npos)
        << mapped.status().to_string();
    const auto streamed = core::read_lotus_binary_s(file);
    ASSERT_FALSE(streamed.ok()) << section.name;
    EXPECT_EQ(streamed.status().code(), StatusCode::kIoError) << section.name;
    EXPECT_NE(streamed.status().message().find(want), std::string::npos)
        << streamed.status().to_string();
  }

  // The 16 reserved header bytes feed no structural check at all — only the
  // header checksum can catch rot there. Both readers hash the 64 bytes
  // they actually read, not a header re-encoded from the parsed fields.
  const std::string reserved = path("lg2_reserved.lg2");
  fs::copy_file(master, reserved);
  flip_byte(reserved, 56);
  const auto mapped = core::read_lotus_mapped_s(reserved);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIoError);
  EXPECT_NE(mapped.status().message().find("section 'header'"),
            std::string::npos)
      << mapped.status().to_string();
  const auto streamed = core::read_lotus_binary_s(reserved);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), StatusCode::kIoError);
  EXPECT_NE(streamed.status().message().find("section 'header'"),
            std::string::npos)
      << streamed.status().to_string();
}

TEST_F(IntegrityTest, SpillMatrixHeaderAndEmbeddedImagesDetected) {
  const auto graph = test_graph();
  const auto prepared =
      tc::PreparedGraph::build(tc::ArtifactKind::kLotus, graph);
  const std::string master = path("artifact.lpa");
  ASSERT_TRUE(prepared.save_s(master).ok());

  // Any flip inside the 64-byte spill header — including metadata like
  // build_s that no structural check ever looks at — is caught by the
  // spill's own footer.
  for (const std::uint64_t offset : {std::uint64_t{17}, std::uint64_t{30},
                                     std::uint64_t{60}}) {
    const std::string file = path("spill_h" + std::to_string(offset) + ".lpa");
    fs::copy_file(master, file);
    flip_byte(file, offset);
    const auto loaded = tc::PreparedGraph::load_mapped_s(file);
    ASSERT_FALSE(loaded.ok()) << "offset " << offset;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
    EXPECT_NE(loaded.status().message().find("section 'header'"),
              std::string::npos)
        << loaded.status().to_string();
  }

  // A flip inside an embedded image is caught by that image's footer: byte
  // 64 + 62 sits in the reserved region of the embedded LOTUSLG2 header.
  const std::string embedded = path("spill_embedded.lpa");
  fs::copy_file(master, embedded);
  flip_byte(embedded, 64 + 62);
  const auto loaded = tc::PreparedGraph::load_mapped_s(embedded);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("checksum mismatch in section"),
            std::string::npos)
      << loaded.status().to_string();
}

TEST_F(IntegrityTest, TruncationIsDetectedNotCrashed) {
  const auto graph = test_graph();
  const auto lg = core::LotusGraph::build(graph);

  ASSERT_TRUE(g::write_csr_binary_s(path("t.bin"), graph).ok());
  ASSERT_TRUE(core::write_lotus_binary_s(path("t.lg2"), lg).ok());
  const auto prepared =
      tc::PreparedGraph::build(tc::ArtifactKind::kLotus, graph);
  ASSERT_TRUE(prepared.save_s(path("t.lpa")).ok());

  for (const char* name : {"t.bin", "t.lg2", "t.lpa"}) {
    const std::uint64_t size = fs::file_size(path(name));
    // Every format knows its exact size from its header, footer included,
    // so even a shave of the footer trailer or of one byte is rejected.
    for (const std::uint64_t keep :
         {size / 4, size / 2, size - cks::kFooterTrailerBytes, size - 1}) {
      const std::string cut = path(std::string("cut_") + name);
      fs::copy_file(path(name), cut, fs::copy_options::overwrite_existing);
      fs::resize_file(cut, keep);
      if (std::string(name) == "t.bin")
        EXPECT_FALSE(oo::read_csr_mapped_s(cut).ok()) << name << " " << keep;
      else if (std::string(name) == "t.lg2")
        EXPECT_FALSE(core::read_lotus_mapped_s(cut).ok()) << name << " " << keep;
      else
        EXPECT_FALSE(tc::PreparedGraph::load_mapped_s(cut).ok())
            << name << " " << keep;
    }
  }

  // A spill cut to its embedded images fails the size check even when
  // nothing verifies the checksums.
  const std::string shaved = path("shaved.lpa");
  fs::copy_file(path("t.lpa"), shaved);
  fs::resize_file(shaved, fs::file_size(shaved) -
                              cks::footer_bytes(cks::kSpillSections));
  const auto loaded = tc::PreparedGraph::load_mapped_s(shaved, oo::MapVerify::kOff);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().to_string();
}

TEST_F(IntegrityTest, MapVerifyOffSkipsChecksumsEagerCatchesThem) {
  const auto prepared =
      tc::PreparedGraph::build(tc::ArtifactKind::kLotus, test_graph());
  const std::string file = path("knob.lpa");
  ASSERT_TRUE(prepared.save_s(file).ok());
  flip_byte(file, 17);  // build_s metadata: structurally invisible

  EXPECT_FALSE(tc::PreparedGraph::load_mapped_s(file).ok());  // kEager default
  const auto off =
      tc::PreparedGraph::load_mapped_s(file, oo::MapVerify::kOff);
  ASSERT_TRUE(off.ok()) << off.status().to_string();
  EXPECT_NE(off.value().lotus(), nullptr);
}

// ---------- the mapped-fault guard ----------

#if !defined(_WIN32)

TEST_F(IntegrityTest, MapGuardTurnsSigbusIntoIoError) {
  // Programmatic enable wins over the LOTUS_MAPGUARD env var: this test's
  // expectations hold even under the chaos script's LOTUS_MAPGUARD=0 sweep
  // (the disabled-guard behavior has its own death test below).
  lotus::util::set_mapped_fault_guard_enabled(true);
  const std::string file = path("guard.bin");
  {
    std::ofstream f(file, std::ios::binary);
    const std::string page(4096, 'x');
    for (int i = 0; i < 3; ++i) f << page;
  }
  auto mapped = MappedFile::map(file);
  ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
  const auto* base =
      reinterpret_cast<const unsigned char*>(mapped.value()->data());

  // Truncating under the live mapping poisons pages 1 and 2.
  fs::resize_file(file, 1);
  const Status s = lotus::util::with_mapped_fault_guard("guard.bin", [&] {
    volatile unsigned char sink = base[2 * 4096 + 16];
    (void)sink;
    return Status::Ok();
  });
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("lost mapping during read"), std::string::npos)
      << s.to_string();

  // The guard unwound cleanly: page 0 is still readable, further guarded
  // reads still work, and unguarded execution continues normally.
  const Status ok = lotus::util::with_mapped_fault_guard("guard.bin", [&] {
    volatile unsigned char sink = base[0];
    (void)sink;
    return Status::Ok();
  });
  EXPECT_TRUE(ok.ok());
}

TEST_F(IntegrityTest, Lg2StructuralScanRunsUnderMapGuard) {
  // With checksums off, the LOTUSLG2 structural scan is the first read of
  // the body pages. A file cut to one page under the live mapping must give
  // kIoError from that scan too, not kill the process.
  lotus::util::set_mapped_fault_guard_enabled(true);
  const std::string file = path("scan.lg2");
  const auto lg =
      core::LotusGraph::build(g::build_undirected(g::complete(120)), {});
  ASSERT_TRUE(core::write_lotus_binary_s(file, lg).ok());
  auto mapped = MappedFile::map(file);
  ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
  const std::uint64_t size = mapped.value()->size();
  ASSERT_GT(size, 4u * 4096);

  fs::resize_file(file, 4096);
  const auto loaded = core::read_lotus_v2_mapped_at_s(
      mapped.value(), 0, size, /*validate=*/true, oo::MapVerify::kOff);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
      << loaded.status().to_string();
}

// The LOTUS_MAPGUARD=0 control: the exact read the guard absorbs above kills
// the process when the guard is disabled — demonstrating the crash the
// guard prevents (run as a death test so the crash is contained).
TEST(MapGuardDeathTest, DisabledGuardCrashesOnTruncatedMapping) {
  // Earlier tests may have started pool threads; re-exec instead of forking.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const fs::path dir = fs::temp_directory_path() /
                       ("lotus_mapguard_death_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string file = (dir / "crash.bin").string();
  {
    std::ofstream f(file, std::ios::binary);
    const std::string page(4096, 'x');
    for (int i = 0; i < 3; ++i) f << page;
  }
  auto mapped = MappedFile::map(file);
  ASSERT_TRUE(mapped.ok());
  const auto* base =
      reinterpret_cast<const unsigned char*>(mapped.value()->data());
  fs::resize_file(file, 1);

  EXPECT_DEATH(
      {
        lotus::util::set_mapped_fault_guard_enabled(false);
        const Status ignored =
            lotus::util::with_mapped_fault_guard("crash.bin", [&] {
              volatile unsigned char sink = base[2 * 4096 + 16];
              (void)sink;
              return Status::Ok();
            });
        (void)ignored;
      },
      "");
  fs::remove_all(dir);
}

#endif  // !defined(_WIN32)

// ---------- AtomicFileWriter crash safety ----------

TEST_F(IntegrityTest, FailedRenameNeverTearsTheDestination) {
  const std::string file = path("durable.bin");
  const auto v1 = test_graph(1);
  ASSERT_TRUE(g::write_csr_binary_s(file, v1).ok());
  const std::uint64_t v1_size = fs::file_size(file);

  {
    fault::ScopedFaultPlan plan(
        fault::single_site_plan(fault::Site::kRenameFail, 1.0));
    const auto v2 = test_graph(2);
    const Status s = g::write_csr_binary_s(file, v2);
    EXPECT_EQ(s.code(), StatusCode::kIoError);
    EXPECT_NE(s.message().find("rename failed"), std::string::npos);
    EXPECT_EQ(fault::injected_count(fault::Site::kRenameFail), 1u);
  }

  // The old artifact is untouched and intact; the temp was cleaned up.
  EXPECT_EQ(fs::file_size(file), v1_size);
  const auto reread = g::read_csr_binary_s(file);
  ASSERT_TRUE(reread.ok()) << reread.status().to_string();
  EXPECT_EQ(reread.value(), v1);
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // just durable.bin — no .tmp debris
}

#if !defined(_WIN32)
TEST_F(IntegrityTest, StaleTempsOfDeadWritersAreSwept) {
  const std::string file = path("swept.bin");

  // A real, dead, reaped pid — the strongest "writer crashed" signal.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);

  const std::string stale =
      file + ".tmp." + std::to_string(static_cast<long>(child)) + ".0";
  const std::string live =
      file + ".tmp." + std::to_string(static_cast<long>(getpid())) + ".999999";
  std::ofstream(stale, std::ios::binary) << "torn half-write";
  std::ofstream(live, std::ios::binary) << "still being written";

  const std::uint64_t before = fileio::stale_temps_swept();
  fileio::AtomicFileWriter writer(file);
  ASSERT_TRUE(writer.ok());
  EXPECT_FALSE(fs::exists(stale));  // dead writer's debris: swept
  EXPECT_TRUE(fs::exists(live));    // live writer's temp: untouched
  EXPECT_EQ(fileio::stale_temps_swept(), before + 1);

  const char payload[] = "fresh contents";
  ASSERT_TRUE(
      fileio::write_fully(writer.file(), payload, sizeof payload, file).ok());
  ASSERT_TRUE(writer.commit().ok());
  EXPECT_TRUE(fs::exists(file));
  fs::remove(live);
}
#endif  // !defined(_WIN32)

TEST_F(IntegrityTest, BitflipFaultSitePublishesDetectableCorruption) {
  const auto graph = test_graph();
  const std::string file = path("flipped.bin");
  {
    fault::ScopedFaultPlan plan(
        fault::single_site_plan(fault::Site::kBitflip, 1.0, /*seed=*/3));
    ASSERT_TRUE(g::write_csr_binary_s(file, graph).ok());  // commit succeeds, artifact is tampered
    EXPECT_EQ(fault::injected_count(fault::Site::kBitflip), 1u);
  }
  // The committed artifact is corrupt — the checksum layer must notice, on
  // both read paths, whatever byte the deterministic draw picked.
  EXPECT_FALSE(oo::read_csr_mapped_s(file).ok());
  EXPECT_FALSE(g::read_csr_binary_s(file).ok());
}

TEST_F(IntegrityTest, TruncateFaultSitePublishesDetectableCorruption) {
  const auto graph = test_graph();
  const std::string file = path("cut.bin");
  const std::string intact = path("intact.bin");
  ASSERT_TRUE(g::write_csr_binary_s(intact, graph).ok());
  {
    fault::ScopedFaultPlan plan(
        fault::single_site_plan(fault::Site::kTruncate, 1.0, /*seed=*/4));
    ASSERT_TRUE(g::write_csr_binary_s(file, graph).ok());
    EXPECT_EQ(fault::injected_count(fault::Site::kTruncate), 1u);
  }
  EXPECT_LT(fs::file_size(file), fs::file_size(intact));
  EXPECT_FALSE(oo::read_csr_mapped_s(file).ok());
  EXPECT_FALSE(g::read_csr_binary_s(file).ok());
}

// ---------- the self-healing engine spill tier ----------

/// Fresh, self-cleaning spill directory for one test.
class SpillDir {
 public:
  explicit SpillDir(const std::string& name)
      : dir_(fs::temp_directory_path() /
             (name + "_" + std::to_string(::getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~SpillDir() { fs::remove_all(dir_); }
  [[nodiscard]] std::string str() const { return dir_.string(); }
  [[nodiscard]] std::vector<fs::path> files() const {
    std::vector<fs::path> out;
    for (const auto& entry : fs::directory_iterator(dir_))
      out.push_back(entry.path());
    return out;
  }
  [[nodiscard]] std::size_t count_with_extension(const std::string& ext) const {
    std::size_t n = 0;
    for (const auto& f : files())
      if (f.extension() == ext) ++n;
    return n;
  }

 private:
  fs::path dir_;
};

g::CsrGraph engine_graph(std::uint64_t seed = 21) {
  return g::build_undirected(
      g::rmat({.scale = 9, .edge_factor = 8, .seed = seed}));
}

tc::QueryResult engine_ok(
    std::future<lotus::util::Expected<tc::QueryResult>> f) {
  auto outcome = f.get();
  EXPECT_TRUE(outcome.ok()) << outcome.status().to_string();
  tc::QueryResult result = outcome.take();
  EXPECT_TRUE(result.ok()) << result.status.to_string();
  return result;
}

/// Options sized so the second artifact evicts (and spills) the first.
tc::EngineOptions tight_spill_options(const g::CsrGraph& graph,
                                      const std::string& spill_dir) {
  const std::uint64_t oriented =
      tc::PreparedGraph::build(tc::ArtifactKind::kOriented, graph).bytes();
  const std::uint64_t lotus =
      tc::PreparedGraph::build(tc::ArtifactKind::kLotus, graph).bytes();
  tc::EngineOptions options;
  options.num_drivers = 1;
  options.cache_budget_bytes =
      std::max(oriented, lotus) + std::min(oriented, lotus) / 2;
  options.spill_dir = spill_dir;
  return options;
}

TEST(EngineIntegrity, HealsCorruptSpillFileAndStillAnswersCorrectly) {
  const auto graph = engine_graph();
  const auto expected = lotus::baselines::brute_force(graph);
  SpillDir spill_dir("lotus_engine_heal_test");
  {
    tc::Engine engine(tight_spill_options(graph, spill_dir.str()));
    (void)engine_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
    (void)engine_ok(
        engine.submit({tc::Algorithm::kForwardMerge, "g", &graph, {}}));
    ASSERT_EQ(engine.stats().cache_spilled_entries, 1u);
    const auto spilled = spill_dir.files();
    ASSERT_EQ(spilled.size(), 1u);

    // Rot a header byte. The remap's eager verification must catch it,
    // quarantine the file, and transparently rebuild — the query is correct.
    flip_byte(spilled[0].string(), 17);
    const auto healed =
        engine_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
    EXPECT_EQ(healed.result.triangles, expected);
    EXPECT_FALSE(healed.cache_hit);

    const auto stats = engine.stats();
    EXPECT_EQ(stats.spill_verify_failures, 1u);
    EXPECT_EQ(stats.cache_quarantines, 1u);
    EXPECT_EQ(stats.cache_remaps, 0u);
    EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.cache_lookups);
    EXPECT_EQ(spill_dir.count_with_extension(".corrupt"), 1u);

    // The heal is visible as its own telemetry outcome series.
    bool saw_heal = false;
    for (const auto& series : engine.telemetry_snapshot().series)
      saw_heal = saw_heal ||
                 (series.dimension == lotus::obs::Dimension::kOutcome &&
                  series.label == "heal");
    EXPECT_TRUE(saw_heal);

    const std::string json = engine.metrics().to_json_string();
    EXPECT_NE(json.find("\"spill_verify_failures\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"cache_quarantines\": 1"), std::string::npos);
    const std::string prom = engine.prometheus_text();
    EXPECT_NE(prom.find("lotus_engine_cache_quarantines_total 1"),
              std::string::npos);
    EXPECT_NE(prom.find("lotus_engine_spill_verify_failures_total 1"),
              std::string::npos);
  }
  // Shutdown removes live spill files but preserves quarantined evidence.
  EXPECT_EQ(spill_dir.count_with_extension(".corrupt"), 1u);
  EXPECT_EQ(spill_dir.count_with_extension(".lpa"), 0u);
}

TEST(EngineIntegrity, SpillRemapIsRecordedAsRemapOutcome) {
  const auto graph = engine_graph();
  SpillDir spill_dir("lotus_engine_remap_test");
  const std::string log_path =
      (fs::temp_directory_path() /
       ("lotus_engine_remap_log_" + std::to_string(::getpid()) + ".jsonl"))
          .string();
  fs::remove(log_path);
  {
    auto options = tight_spill_options(graph, spill_dir.str());
    options.telemetry.query_log_path = log_path;
    tc::Engine engine(options);
    (void)engine_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
    (void)engine_ok(
        engine.submit({tc::Algorithm::kForwardMerge, "g", &graph, {}}));
    ASSERT_EQ(engine.stats().cache_spilled_entries, 1u);

    // The evicted lotus artifact comes back by remapping its spill file.
    const auto remapped =
        engine_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
    EXPECT_TRUE(remapped.cache_hit);
    EXPECT_EQ(engine.stats().cache_remaps, 1u);

    std::uint64_t remap_totals = 0;
    for (const auto& series : engine.telemetry_snapshot().series)
      if (series.dimension == lotus::obs::Dimension::kOutcome &&
          series.label == "remap" &&
          series.stage == lotus::obs::QueryStage::kTotal)
        remap_totals += series.hist.count();
    EXPECT_EQ(remap_totals, 1u);
  }
  // The engine is gone, so its query log is flushed and closed.
  std::ifstream log(log_path);
  std::string line;
  std::vector<std::string> outcomes;
  while (std::getline(log, line)) {
    const auto at = line.find("\"cache_outcome\":\"");
    if (at == std::string::npos) continue;
    const auto begin = at + std::strlen("\"cache_outcome\":\"");
    outcomes.push_back(line.substr(begin, line.find('"', begin) - begin));
  }
  EXPECT_EQ(outcomes, (std::vector<std::string>{"miss", "miss", "remap"}));
  fs::remove(log_path);
}

TEST(EngineIntegrity, BackgroundVerifyQuarantinesOffTheQueryPath) {
  const auto graph = engine_graph();
  const auto expected = lotus::baselines::brute_force(graph);
  SpillDir spill_dir("lotus_engine_bgverify_test");
  auto options = tight_spill_options(graph, spill_dir.str());
  options.background_spill_verify = true;
  tc::Engine engine(options);
  (void)engine_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  (void)engine_ok(
      engine.submit({tc::Algorithm::kForwardMerge, "g", &graph, {}}));
  const auto spilled = spill_dir.files();
  ASSERT_EQ(spilled.size(), 1u);

  // Corrupt structurally-invisible metadata: the kOff remap serves the query
  // (topology is intact), then the background verifier flags the file.
  flip_byte(spilled[0].string(), 17);
  const auto remapped =
      engine_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  EXPECT_EQ(remapped.result.triangles, expected);
  EXPECT_EQ(engine.stats().cache_remaps, 1u);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine.stats().cache_quarantines == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

  const auto stats = engine.stats();
  EXPECT_EQ(stats.cache_quarantines, 1u);
  EXPECT_EQ(stats.spill_verify_failures, 1u);
  EXPECT_EQ(spill_dir.count_with_extension(".corrupt"), 1u);

  // The resident artifact was dropped with the quarantine: the next query
  // rebuilds from the live graph instead of trusting the suspect mapping.
  const auto rebuilt =
      engine_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  EXPECT_EQ(rebuilt.result.triangles, expected);
  EXPECT_FALSE(rebuilt.cache_hit);
}

TEST(EngineIntegrity, SpillNameCollisionIsSkippedNeverOverwritten) {
  const auto graph = engine_graph();
  SpillDir spill_dir("lotus_engine_collision_test");
  tc::Engine engine(tight_spill_options(graph, spill_dir.str()));
  (void)engine_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  (void)engine_ok(
      engine.submit({tc::Algorithm::kForwardMerge, "g", &graph, {}}));
  const auto spilled = spill_dir.files();
  ASSERT_EQ(spilled.size(), 1u);

  // Plant a file at the engine's *next* spill name (same pid+token, seq+1).
  std::string next = spilled[0].string();
  const auto dash = next.rfind("-0.lpa");
  ASSERT_NE(dash, std::string::npos) << next;
  next.replace(dash, std::string::npos, "-1.lpa");
  std::ofstream(next, std::ios::binary) << "planted";

  // Force another eviction+spill: it must skip, not overwrite.
  (void)engine_ok(
      engine.submit({tc::Algorithm::kForwardMerge, "g2", &graph, {}}));
  const auto stats = engine.stats();
  EXPECT_EQ(stats.spill_collisions, 1u);
  EXPECT_EQ(stats.cache_spills, 1u);          // the skipped one never counted
  EXPECT_EQ(stats.cache_spilled_entries, 1u);
  std::ifstream planted(next, std::ios::binary);
  std::string contents;
  std::getline(planted, contents);
  EXPECT_EQ(contents, "planted");  // byte-for-byte untouched
  fs::remove(next);
}

TEST(EngineIntegrity, SpillCleanupFailuresAreCounted) {
  const auto graph = engine_graph();
  SpillDir spill_dir("lotus_engine_cleanupfail_test");
  tc::Engine engine(tight_spill_options(graph, spill_dir.str()));
  (void)engine_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  (void)engine_ok(
      engine.submit({tc::Algorithm::kForwardMerge, "g", &graph, {}}));
  const auto spilled = spill_dir.files();
  ASSERT_EQ(spilled.size(), 1u);

  // Replace the spill file with a non-empty directory of the same name:
  // unlink now fails for root and non-root alike.
  fs::remove(spilled[0]);
  fs::create_directory(spilled[0]);
  std::ofstream((spilled[0] / "x").string()) << "y";

  engine.invalidate("g");
  const auto stats = engine.stats();
  EXPECT_EQ(stats.spill_cleanup_failures, 1u);
  EXPECT_EQ(stats.cache_spilled_entries, 0u);  // the key is forgotten anyway
}

}  // namespace
