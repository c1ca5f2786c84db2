#include "tc/prepared.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "baselines/intersect.hpp"
#include "baselines/tc_baselines.hpp"
#include "graph/degree_order.hpp"
#include "graph/io.hpp"
#include "graph/oocore.hpp"
#include "lotus/lotus.hpp"
#include "lotus/serialize.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "util/checksum.hpp"
#include "util/file_io.hpp"
#include "util/mapguard.hpp"
#include "util/mmap_file.hpp"
#include "util/timer.hpp"

namespace lotus::tc {

ArtifactKind artifact_kind(Algorithm algorithm, AnalyticKind analytic) {
  const ArtifactKind base = artifact_kind(algorithm);
  switch (analytic) {
    case AnalyticKind::kTriangles:
    case AnalyticKind::kLocalCounts:
    case AnalyticKind::kClustering:
      // Per-vertex analytics run on the LOTUS substrate when the algorithm
      // asks for it, otherwise on the shared oriented CSR.
      return base;
    case AnalyticKind::kKClique:
    case AnalyticKind::kKTruss:
      // Clique census and truss peel are defined over the oriented DAG only —
      // but kLotus algorithms still admit them by borrowing the same
      // ArtifactKind the Forward family caches, so cross-analytic queries on
      // one graph share one artifact.
      if (base == ArtifactKind::kNone) return ArtifactKind::kNone;
      return ArtifactKind::kOriented;
  }
  return ArtifactKind::kNone;
}

const char* artifact_kind_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kOriented: return "oriented";
    case ArtifactKind::kLotus: return "lotus";
    case ArtifactKind::kNone: return "none";
  }
  return "unknown";
}

PreparedGraph PreparedGraph::build(ArtifactKind kind,
                                   const graph::CsrGraph& graph,
                                   const core::LotusConfig& config,
                                   obs::PhaseTracer* tracer) {
  PreparedGraph out;
  out.kind_ = kind;
  util::Timer timer;
  {
    obs::ScopedSpan span(tracer, "preprocess");
    switch (kind) {
      case ArtifactKind::kOriented:
        out.oriented_ = std::make_shared<const graph::OrientedCsr>(
            graph::degree_ordered_oriented(graph));
        out.bytes_ = out.oriented_->topology_bytes();
        break;
      case ArtifactKind::kLotus:
        out.lotus_ = std::make_shared<const core::LotusGraph>(
            core::LotusGraph::build(graph, config, tracer));
        out.bytes_ = out.lotus_->topology_bytes();
        break;
      case ArtifactKind::kNone:
        break;
    }
  }
  out.build_s_ = timer.elapsed_s();
  return out;
}

namespace {

namespace cks = util::checksum;

// "LOTUSPA1" spill artifact: 64-byte header, then the embedded "LOTUSGR1"
// oriented-CSR image or "LOTUSLG2" LotusGraph image, starting on an
// 8-byte boundary so the mapped reader can serve aligned views. The
// embedded image carries its own checksum footer; a spill-level footer
// covering the 64-byte header closes the file.
//
//   bytes 0..7   magic "LOTUSPA1"
//   bytes 8..11  u32 kind (ArtifactKind enumerator value)
//   bytes 12..15 reserved (written as zero, ignored on load)
//   bytes 16..23 f64 build_s of the original build
//   bytes 24..39 u64 oriented_off, oriented_len (0,0 when absent)
//   bytes 40..55 u64 lotus_off, lotus_len (0,0 when absent)
//   bytes 56..63 reserved (zero)
constexpr std::array<char, 8> kSpillMagic = {'L', 'O', 'T', 'U', 'S', 'P', 'A', '1'};
constexpr std::uint64_t kSpillHeaderBytes = 64;

constexpr std::uint64_t pad8(std::uint64_t bytes) noexcept {
  return (bytes + 7) & ~std::uint64_t{7};
}

util::Status spill_error(const std::string& path, const std::string& what) {
  return {util::StatusCode::kInvalidArgument, path + ": " + what};
}

}  // namespace

util::Status PreparedGraph::save_s(const std::string& path) const {
  if (kind_ == ArtifactKind::kNone)
    return spill_error(path, "a kNone artifact has nothing to spill");

  std::uint64_t oriented_off = 0, oriented_len = 0, lotus_off = 0, lotus_len = 0;
  std::uint64_t pos = kSpillHeaderBytes;
  if (oriented_ != nullptr) {
    oriented_off = pos;
    oriented_len = graph::csx_image_bytes(*oriented_);
    pos += pad8(oriented_len);
  }
  if (lotus_ != nullptr) {
    lotus_off = pos;
    lotus_len = core::lotus_image_bytes(*lotus_);
    pos += pad8(lotus_len);
  }

  util::fileio::AtomicFileWriter writer(path);
  if (!writer.ok()) return writer.open_status();
  std::FILE* out = writer.file();
  const std::string& tmp = writer.temp_path();

  std::array<unsigned char, kSpillHeaderBytes> header{};
  std::memcpy(header.data(), kSpillMagic.data(), kSpillMagic.size());
  const std::uint32_t kind32 = static_cast<std::uint32_t>(kind_);
  std::memcpy(header.data() + 8, &kind32, sizeof kind32);
  std::memcpy(header.data() + 16, &build_s_, sizeof build_s_);
  std::memcpy(header.data() + 24, &oriented_off, 8);
  std::memcpy(header.data() + 32, &oriented_len, 8);
  std::memcpy(header.data() + 40, &lotus_off, 8);
  std::memcpy(header.data() + 48, &lotus_len, 8);
  util::Status status =
      util::fileio::write_fully(out, header.data(), header.size(), tmp);

  const auto pad_to_8 = [&](std::uint64_t image_len) {
    const std::uint64_t padding = pad8(image_len) - image_len;
    if (status.ok() && padding > 0) {
      const std::array<unsigned char, 8> zeros{};
      status = util::fileio::write_fully(out, zeros.data(), padding, tmp);
    }
  };
  if (status.ok() && oriented_ != nullptr) {
    status = graph::write_csx_stream_s(out, tmp, *oriented_);
    pad_to_8(oriented_len);
  }
  if (status.ok() && lotus_ != nullptr) {
    status = core::write_lotus_v2_stream_s(out, tmp, *lotus_);
    pad_to_8(lotus_len);
  }
  if (status.ok()) {
    // Spill-level footer: one sum covering the 64-byte header (the embedded
    // images already carry their own footers).
    const std::uint64_t sums[cks::kSpillSections] = {
        cks::block_checksum(header.data(), header.size()),
    };
    unsigned char footer[cks::footer_bytes(cks::kSpillSections)];
    cks::write_footer(sums, cks::kSpillSections, footer);
    status = util::fileio::write_fully(out, footer, sizeof footer, tmp);
  }
  if (!status.ok()) return status;  // destructor unlinks the temp file
  return writer.commit();
}

util::Expected<PreparedGraph> PreparedGraph::load_mapped_s(
    const std::string& path, graph::oocore::MapVerify verify) {
  util::Expected<std::shared_ptr<util::MappedFile>> mapped =
      util::MappedFile::map(path);
  if (!mapped.ok()) return mapped.status();
  const std::shared_ptr<util::MappedFile> file = mapped.take();
  if (file->size() < kSpillHeaderBytes)
    return spill_error(path, "truncated spill header");
  if (std::memcmp(file->data(), kSpillMagic.data(), kSpillMagic.size()) != 0)
    return spill_error(path, "not a lotus spill artifact (bad magic)");

  // The spill footer ends the file and covers the header bytes, including
  // the embedded-image section table, so it is checked before that table
  // is trusted.
  constexpr std::uint64_t kSpillFooterBytes =
      cks::footer_bytes(cks::kSpillSections);
  if (file->size() < kSpillHeaderBytes + kSpillFooterBytes)
    return spill_error(path, "file size does not match header");
  if (verify == graph::oocore::MapVerify::kEager) {
    const util::Status vs = util::with_mapped_fault_guard(path, [&] {
      std::uint64_t sums[cks::kSpillSections] = {};
      return cks::read_footer_check_header(
          file->data() + file->size() - kSpillFooterBytes, cks::kSpillSections,
          file->data(), kSpillHeaderBytes, path, sums);
    });
    if (!vs.ok()) return vs;
  }

  std::uint32_t kind32 = 0;
  double build_s = 0.0;
  std::uint64_t oriented_off = 0, oriented_len = 0, lotus_off = 0, lotus_len = 0;
  std::memcpy(&kind32, file->data() + 8, sizeof kind32);
  std::memcpy(&build_s, file->data() + 16, sizeof build_s);
  std::memcpy(&oriented_off, file->data() + 24, 8);
  std::memcpy(&oriented_len, file->data() + 32, 8);
  std::memcpy(&lotus_off, file->data() + 40, 8);
  std::memcpy(&lotus_len, file->data() + 48, 8);
  if (kind32 > static_cast<std::uint32_t>(ArtifactKind::kNone) ||
      static_cast<ArtifactKind>(kind32) == ArtifactKind::kNone)
    return spill_error(path, "corrupt spill header (kind)");
  // Exact size accounting, as in the embedded formats: the images follow
  // the header in writer order, each padded to 8 bytes, and the footer
  // ends the file, so a spill without its footer is a size mismatch.
  std::uint64_t end = kSpillHeaderBytes;
  for (const auto& [off, len] : {std::pair{oriented_off, oriented_len},
                                 std::pair{lotus_off, lotus_len}}) {
    if (len == 0) continue;
    if (off != end || len > file->size())
      return spill_error(path, "file size does not match header");
    end += pad8(len);
  }
  if (end + kSpillFooterBytes != file->size())
    return spill_error(path, "file size does not match header");

  PreparedGraph out;
  out.kind_ = static_cast<ArtifactKind>(kind32);
  out.build_s_ = build_s;
  out.bytes_ = 0;
  if (oriented_len != 0) {
    util::Expected<graph::OrientedCsr> csr = graph::oocore::read_csr_mapped_at_s(
        file, oriented_off, oriented_len, /*validate=*/false, verify);
    if (!csr.ok()) return csr.status();
    out.oriented_ = std::make_shared<const graph::OrientedCsr>(csr.take());
    out.bytes_ += out.oriented_->owned_bytes();
  }
  if (lotus_len != 0) {
    util::Expected<core::LotusGraph> lg = core::read_lotus_v2_mapped_at_s(
        file, lotus_off, lotus_len, /*validate=*/false, verify);
    if (!lg.ok()) return lg.status();
    out.lotus_ = std::make_shared<const core::LotusGraph>(lg.take());
    out.bytes_ += out.lotus_->owned_bytes();
  }
  if (out.kind_ == ArtifactKind::kLotus && out.lotus_ == nullptr)
    return spill_error(path, "lotus artifact lacks its LotusGraph section");
  if (out.kind_ == ArtifactKind::kOriented && out.oriented_ == nullptr)
    return spill_error(path, "oriented artifact lacks its CSR section");
  return out;
}

namespace detail {

RunResult run_prepared_kernel(Algorithm algorithm,
                              const PreparedGraph& prepared,
                              const graph::CsrGraph& graph,
                              const core::LotusConfig& config,
                              obs::PhaseTracer* trace) {
  using graph::VertexId;
  const auto oriented = [&]() -> const graph::OrientedCsr& {
    if (prepared.oriented() == nullptr)
      throw std::invalid_argument(
          "prepared artifact lacks the oriented CSR required by " +
          name(algorithm));
    return *prepared.oriented();
  };
  const auto timed_count = [&](auto&& kernel) -> RunResult {
    util::Timer timer;
    RunResult out;
    out.triangles = kernel();
    out.count_s = timer.elapsed_s();
    if (trace != nullptr) trace->leaf("count", out.count_s);
    return out;
  };

  switch (algorithm) {
    case Algorithm::kLotus: {
      if (prepared.lotus() == nullptr)
        throw std::invalid_argument(
            "prepared artifact lacks the LotusGraph required by " +
            name(algorithm));
      const core::LotusResult r =
          core::count_triangles_prepared(*prepared.lotus(), config, trace);
      RunResult out;
      out.triangles = r.triangles;
      out.count_s = r.count_s();
      return out;
    }
    case Algorithm::kAdaptive:
      throw std::invalid_argument(
          "adaptive must be resolved (detail::resolve_adaptive) before it runs");
    case Algorithm::kForwardMerge:
      return timed_count([&] {
        return baselines::forward_merge_prepared(oriented(), config.vectorize);
      });
    case Algorithm::kForwardGallop:
      return timed_count(
          [&] { return baselines::forward_gallop_prepared(oriented()); });
    case Algorithm::kForwardHashed:
      return timed_count(
          [&] { return baselines::forward_hashed_prepared(oriented()); });
    case Algorithm::kForwardBitmap:
      return timed_count(
          [&] { return baselines::forward_bitmap_prepared(oriented()); });
    case Algorithm::kForwardHybrid:
      return timed_count(
          [&] { return baselines::forward_hybrid_prepared(oriented()); });
    case Algorithm::kEdgeParallel:
      return timed_count(
          [&] { return baselines::edge_parallel_forward_prepared(oriented()); });
    case Algorithm::kBlocked:
      return timed_count([&] {
        return baselines::blocked_tc_prepared(oriented(), VertexId{1} << 14);
      });
    case Algorithm::kEdgeIterator:
      // GraphGrind-style: intersect the full neighbour lists of both
      // endpoints of every undirected edge (u < v); each triangle is found
      // once per edge, i.e. 3 times.
      return timed_count([&] {
        return parallel::parallel_reduce_add<std::uint64_t>(
                   0, graph.num_vertices(), 64,
                   [&](std::uint64_t vi) {
                     const auto v = static_cast<VertexId>(vi);
                     const auto nv = graph.neighbors(v);
                     std::uint64_t local = 0;
                     for (const VertexId u : nv) {
                       if (u >= v) break;
                       local += baselines::intersect_merge<VertexId>(
                           nv, graph.neighbors(u));
                     }
                     return local;
                   }) /
               3;
      });
    case Algorithm::kNodeIterator:
      // Classical: test each pair of neighbours for adjacency (binary
      // search); every triangle is seen from each corner, i.e. 3 times.
      return timed_count([&] {
        return parallel::parallel_reduce_add<std::uint64_t>(
                   0, graph.num_vertices(), 16,
                   [&](std::uint64_t vi) {
                     const auto nv = graph.neighbors(static_cast<VertexId>(vi));
                     std::uint64_t local = 0;
                     for (std::size_t i = 0; i < nv.size(); ++i) {
                       const auto nu = graph.neighbors(nv[i]);
                       for (std::size_t j = i + 1; j < nv.size(); ++j)
                         local += std::binary_search(nu.begin(), nu.end(), nv[j])
                                      ? 1u
                                      : 0u;
                     }
                     return local;
                   }) /
               3;
      });
  }
  throw std::invalid_argument("unknown algorithm");
}

}  // namespace detail

util::Expected<QueryResult> query_prepared(Algorithm algorithm,
                                           const graph::CsrGraph& graph,
                                           const PreparedGraph& prepared,
                                           const QueryOptions& options) {
  if (util::Status admission = validate(algorithm, options);
      !admission.ok())
    return admission;
  return detail::execute_query(algorithm,
                               detail::resolve_adaptive(algorithm, graph),
                               graph, options, &prepared);
}

}  // namespace lotus::tc
