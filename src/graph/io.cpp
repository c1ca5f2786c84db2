#include "graph/io.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>

#include "graph/oocore.hpp"
#include "util/checksum.hpp"
#include "util/file_io.hpp"
#include "util/mmap_file.hpp"

namespace lotus::graph {

namespace {

using util::Expected;
using util::Status;
using util::StatusCode;

constexpr std::array<char, 8> kMagic = {'L', 'O', 'T', 'U', 'S', 'G', 'R', '1'};

Status error(StatusCode code, const std::string& path, const std::string& what) {
  return {code, path + ": " + what};
}

Status io_error(const std::string& path, const std::string& what) {
  return error(StatusCode::kIoError, path, what);
}

Status bad_data(const std::string& path, const std::string& what) {
  return error(StatusCode::kInvalidArgument, path, what);
}

// Exact-length writes with EINTR/short retry and fault injection live in
// util/file_io.hpp, shared with the LotusGraph and spill serializers.
using util::fileio::write_fully;

namespace cks = util::checksum;

std::array<unsigned char, kCsxHeaderBytes> encode_header(const CsxLayout& layout) {
  std::array<unsigned char, kCsxHeaderBytes> header{};
  std::memcpy(header.data(), kMagic.data(), kMagic.size());
  std::memcpy(header.data() + 8, &layout.num_vertices, 8);
  std::memcpy(header.data() + 16, &layout.num_edges, 8);
  return header;
}

/// Append the footer: one sum per section, in kCsxSectionNames order. The
/// neighbours' sum comes from the caller, because the external builder
/// streams that section and never holds it.
Status write_footer(std::FILE* out, const std::string& path,
                    const std::array<unsigned char, kCsxHeaderBytes>& header,
                    const std::uint64_t* offsets, const CsxLayout& layout,
                    std::uint64_t neighbors_sum) {
  const std::uint64_t sums[cks::kCsxSections] = {
      cks::block_checksum(header.data(), header.size()),
      cks::block_checksum(offsets, layout.offsets_bytes()),
      neighbors_sum,
  };
  unsigned char footer[cks::footer_bytes(cks::kCsxSections)];
  cks::write_footer(sums, cks::kCsxSections, footer);
  return write_fully(out, footer, sizeof footer, path);
}

}  // namespace

Status for_each_text_edge_s(
    const std::string& path,
    const std::function<Status(VertexId, VertexId)>& fn) {
  std::ifstream in(path);
  if (!in) return io_error(path, "cannot open for reading");
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::istringstream ls(line);
    std::uint64_t u = 0, v = 0;
    if (!(ls >> u >> v))
      return bad_data(path, "malformed edge at line " + std::to_string(line_no));
    // IDs must stay strictly below 2^32 - 1: num_vertices = max ID + 1 must
    // itself fit in the 32-bit VertexId, so the all-ones ID is unusable too.
    if (u >= 0xffffffffULL || v >= 0xffffffffULL)
      return bad_data(path,
                      "vertex ID exceeds 32 bits at line " + std::to_string(line_no));
    Status status = fn(static_cast<VertexId>(u), static_cast<VertexId>(v));
    if (!status.ok()) return status;
  }
  if (in.bad()) return io_error(path, "read failed");
  return Status::Ok();
}

Expected<EdgeList> read_edge_list_text_s(const std::string& path) {
  EdgeList out;
  VertexId max_id = 0;
  bool any = false;
  const Status status = for_each_text_edge_s(path, [&](VertexId u, VertexId v) {
    out.edges.push_back({u, v});
    max_id = std::max({max_id, u, v});
    any = true;
    return Status::Ok();
  });
  if (!status.ok()) return status;
  out.num_vertices = any ? max_id + 1 : 0;
  return out;
}

util::Status write_edge_list_text_s(const std::string& path,
                                    const EdgeList& edges) {
  std::ofstream outf(path);
  if (!outf) return io_error(path, "cannot open for writing");
  outf << "# lotus edge list: " << edges.num_vertices << " vertices, "
       << edges.edges.size() << " edges\n";
  for (const Edge& e : edges.edges) outf << e.u << ' ' << e.v << '\n';
  outf.close();
  if (!outf) return io_error(path, "write error");
  return Status::Ok();
}

// ---------- the LOTUSGR1 codec ----------

std::uint64_t CsxLayout::image_bytes() const noexcept {
  return footer_at() + cks::footer_bytes(cks::kCsxSections);
}

Expected<CsxLayout> parse_csx_header(const void* header, std::uint64_t image_size,
                                     const std::string& path) {
  if (image_size < kCsxHeaderBytes) return io_error(path, "truncated header");
  if (std::memcmp(header, kMagic.data(), kMagic.size()) != 0)
    return bad_data(path, "not a lotus binary graph (bad magic)");
  CsxLayout layout;
  std::memcpy(&layout.num_vertices, static_cast<const char*>(header) + 8, 8);
  std::memcpy(&layout.num_edges, static_cast<const char*>(header) + 16, 8);
  const std::uint64_t v = layout.num_vertices;
  const std::uint64_t e = layout.num_edges;
  if (v > 0xffffffffULL) return bad_data(path, "vertex count exceeds 32 bits");
  // Exact size accounting, in an order that cannot overflow: v <= 2^32, so
  // (v + 1) * 8 fits, and e is bounded by a division before e * 4 is formed.
  const std::uint64_t body_bytes = image_size - kCsxHeaderBytes;
  if (layout.offsets_bytes() > body_bytes)
    return bad_data(path, "vertex count inconsistent with file size");
  if (e > (body_bytes - layout.offsets_bytes()) / sizeof(VertexId))
    return bad_data(path, "edge count inconsistent with file size");
  // Exactly one checksum footer follows the payload; an image without it
  // is a size mismatch like any other.
  if (image_size != layout.image_bytes())
    return bad_data(path, "file size does not match header");
  return layout;
}

Status verify_csx_sections(const CsxLayout& layout, const void* offsets,
                           const void* neighbors, const std::uint64_t* sums,
                           const std::string& path) {
  const cks::Section sections[] = {
      {cks::kCsxSectionNames[1], offsets, layout.offsets_bytes()},
      {cks::kCsxSectionNames[2], neighbors, layout.neighbors_bytes()},
  };
  return cks::verify_sections(sections, 2, sums + 1, path);
}

Status check_csx_body(const std::string& path,
                      const util::ConstArray<std::uint64_t>& offsets,
                      const util::ConstArray<VertexId>& neighbors) {
  const std::uint64_t v = offsets.size() - 1;
  if (offsets.front() != 0 || offsets.back() != neighbors.size())
    return bad_data(path, "corrupt offsets");
  for (std::size_t i = 1; i < offsets.size(); ++i)
    if (offsets[i] < offsets[i - 1]) return bad_data(path, "corrupt offsets");
  for (VertexId u : neighbors)
    if (u >= v) return bad_data(path, "neighbour ID out of range");
  return Status::Ok();
}

std::uint64_t csx_image_bytes(const CsrGraph& graph) noexcept {
  return CsxLayout{graph.num_vertices(), graph.num_edges()}.image_bytes();
}

Status write_csx_stream_s(std::FILE* out, const std::string& path,
                          const CsrGraph& graph) {
  const CsxLayout layout{graph.num_vertices(), graph.num_edges()};
  const auto header = encode_header(layout);
  const std::uint64_t* offsets = graph.offsets().data();
  const VertexId* neighbors = graph.neighbor_array().data();
  Status status = write_fully(out, header.data(), header.size(), path);
  if (status.ok())
    status = write_fully(out, offsets, layout.offsets_bytes(), path);
  if (status.ok())
    status = write_fully(out, neighbors, layout.neighbors_bytes(), path);
  if (!status.ok()) return status;
  return write_footer(out, path, header, offsets, layout,
                      cks::block_checksum(neighbors, layout.neighbors_bytes()));
}

Status finish_csx_file_s(std::FILE* out, const std::string& path,
                         const std::vector<std::uint64_t>& offsets,
                         std::uint64_t neighbors_sum) {
  const CsxLayout layout{offsets.size() - 1, offsets.back()};
  const auto header = encode_header(layout);
  // The position sits at the end of the neighbours stream, exactly where
  // the footer belongs; the header and offsets are back-filled after it.
  Status status = write_footer(out, path, header, offsets.data(), layout,
                               neighbors_sum);
  if (!status.ok()) return status;
  if (util::fileio::seek64(out, 0, SEEK_SET) != 0)
    return io_error(path, "seek failed");
  status = write_fully(out, header.data(), header.size(), path);
  if (!status.ok()) return status;
  return write_fully(out, offsets.data(), layout.offsets_bytes(), path);
}

util::Status write_csr_binary_s(const std::string& path, const CsrGraph& graph) {
  // Written to "<path>.tmp.<pid>.<seq>" and renamed into place after fsync,
  // so a crash or injected write failure can never leave a torn file at
  // `path`.
  util::fileio::AtomicFileWriter writer(path);
  if (!writer.ok()) return writer.open_status();
  const Status status = write_csx_stream_s(writer.file(), writer.temp_path(), graph);
  if (!status.ok()) return status;  // writer's destructor unlinks the temp file
  return writer.commit();
}

Expected<CsrGraph> read_csr_binary_s(const std::string& path) {
  Expected<std::shared_ptr<util::MappedFile>> mapped = util::MappedFile::map(path);
  if (!mapped.ok()) return mapped.status();
  const std::shared_ptr<util::MappedFile> file = mapped.take();
  // Checksums are verified on the mapping; the structural scan runs on the
  // heap copy, so bytes rewritten in place after the checksum pass are
  // still checked, and a file cut during the copy is an io_error. The
  // mapped pages are dropped after the checksum pass and again chunk by
  // chunk as copy_to_heap_s copies them, so the load peaks near the
  // artifact's size rather than twice it.
  Expected<CsrGraph> views = oocore::read_csr_mapped_at_s(
      file, 0, file->size(), /*validate=*/false, oocore::MapVerify::kEager);
  if (!views.ok()) return views.status();
  file->advise(util::MappedFile::Advice::kDontNeed);
  util::ConstArray<std::uint64_t> offsets = views.value().offsets();
  util::ConstArray<VertexId> neighbors = views.value().neighbor_array();
  Status status = util::copy_to_heap_s(*file, offsets, neighbors);
  if (status.ok()) status = check_csx_body(path, offsets, neighbors);
  if (!status.ok()) return status;
  return CsrGraph(std::move(offsets), std::move(neighbors));
}

}  // namespace lotus::graph
