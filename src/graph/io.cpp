#include "graph/io.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "util/checksum.hpp"
#include "util/file_io.hpp"
#include "util/memory_budget.hpp"

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

/// RAII FILE handle. close() reports the fclose return value (a failed
/// close after buffered writes means data loss and must not be ignored);
/// the destructor closes best-effort for early-error paths.
class File {
 public:
  File(const std::string& path, const char* mode)
      : file_(std::fopen(path.c_str(), mode)) {}
  ~File() {
    if (file_ != nullptr) std::fclose(file_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  [[nodiscard]] bool open() const noexcept { return file_ != nullptr; }
  [[nodiscard]] std::FILE* get() const noexcept { return file_; }

  [[nodiscard]] bool close() noexcept {
    if (file_ == nullptr) return true;
    const int rc = std::fclose(file_);
    file_ = nullptr;
    return rc == 0;
  }

 private:
  std::FILE* file_ = nullptr;
};

// Exact-length transfers with EINTR/short retry and fault injection live in
// util/file_io.hpp, shared with the LotusGraph and spill serializers.
using util::fileio::read_fully;
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
  return footer_at() +
         (has_footer ? cks::footer_bytes(cks::kCsxSections) : 0);
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
  // The payload ends the image (pre-footer files, unverified) or is
  // followed by exactly one checksum footer (current writers).
  layout.has_footer = image_size != layout.footer_at();
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
  File file(path, "rb");
  if (!file.open())
    return io_error(path, std::string("cannot open for reading: ") +
                              std::strerror(errno));
  std::FILE* in = file.get();

  unsigned char header[kCsxHeaderBytes];
  Status status = read_fully(in, header, sizeof header, path);
  if (!status.ok()) return status;
  // tell64/seek64, not ftell/fseek: `long` is 32 bits on LLP64 and ILP32
  // platforms, so a >2 GiB graph file would otherwise report a negative or
  // wrapped size here and be rejected (or worse, mis-validated).
  if (util::fileio::seek64(in, 0, SEEK_END) != 0)
    return io_error(path, "cannot determine file size");
  const std::int64_t end_pos = util::fileio::tell64(in);
  if (end_pos < 0) return io_error(path, "cannot determine file size");
  Expected<CsxLayout> parsed =
      parse_csx_header(header, static_cast<std::uint64_t>(end_pos), path);
  if (!parsed.ok()) return parsed.status();
  const CsxLayout layout = parsed.value();

  std::uint64_t sums[cks::kCsxSections] = {};
  if (layout.has_footer) {
    unsigned char footer[cks::footer_bytes(cks::kCsxSections)];
    if (util::fileio::seek64(in, static_cast<std::int64_t>(layout.footer_at()),
                             SEEK_SET) != 0)
      return io_error(path, "seek failed");
    status = read_fully(in, footer, sizeof footer, path);
    if (status.ok())
      status = cks::read_footer_check_header(footer, cks::kCsxSections, header,
                                             kCsxHeaderBytes, path, sums);
    if (!status.ok()) return status;
  }
  if (util::fileio::seek64(in, static_cast<std::int64_t>(kCsxHeaderBytes),
                           SEEK_SET) != 0)
    return io_error(path, "seek failed");

  // The heap-resident load is charged to the installed memory budget (the
  // mmap path in graph/oocore.hpp pins ~no heap and is the fallback when
  // this charge is refused).
  std::vector<std::uint64_t> offsets;
  std::vector<VertexId> neighbors;
  try {
    util::charge_current(layout.offsets_bytes() + layout.neighbors_bytes(),
                         "graph-load");
    offsets.resize(layout.num_vertices + 1);
    neighbors.resize(layout.num_edges);
  } catch (...) {
    return util::status_from_current_exception(StatusCode::kOutOfMemory);
  }
  status = read_fully(in, offsets.data(), layout.offsets_bytes(), path);
  if (status.ok())
    status = read_fully(in, neighbors.data(), layout.neighbors_bytes(), path);
  // Streamed loads always verify eagerly: the bytes are already in the
  // heap, so hashing them costs one extra pass, no extra IO.
  if (status.ok() && layout.has_footer)
    status = verify_csx_sections(layout, offsets.data(), neighbors.data(),
                                 sums, path);
  if (!status.ok()) return status;
  util::ConstArray<std::uint64_t> offset_array(std::move(offsets));
  util::ConstArray<VertexId> neighbor_array(std::move(neighbors));
  status = check_csx_body(path, offset_array, neighbor_array);
  if (!status.ok()) return status;
  return CsrGraph(std::move(offset_array), std::move(neighbor_array));
}

namespace {
[[noreturn]] void rethrow(const Status& status) {
  throw std::runtime_error(status.message().empty() ? status.to_string()
                                                    : status.message());
}
}  // namespace

EdgeList read_edge_list_text(const std::string& path) {
  Expected<EdgeList> result = read_edge_list_text_s(path);
  if (!result.ok()) rethrow(result.status());
  return result.take();
}

void write_edge_list_text(const std::string& path, const EdgeList& edges) {
  const Status status = write_edge_list_text_s(path, edges);
  if (!status.ok()) rethrow(status);
}

void write_csr_binary(const std::string& path, const CsrGraph& graph) {
  const Status status = write_csr_binary_s(path, graph);
  if (!status.ok()) rethrow(status);
}

CsrGraph read_csr_binary(const std::string& path) {
  Expected<CsrGraph> result = read_csr_binary_s(path);
  if (!result.ok()) rethrow(result.status());
  return result.take();
}

}  // namespace lotus::graph
