#include "lotus/serialize.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <vector>

#include "util/checksum.hpp"
#include "util/file_io.hpp"
#include "util/mapguard.hpp"
#include "util/mmap_file.hpp"

namespace lotus::core {

namespace {

namespace cks = util::checksum;

using util::Expected;
using util::Status;
using util::StatusCode;

constexpr std::array<char, 8> kMagic = {'L', 'O', 'T', 'U', 'S', 'L', 'G', '2'};

/// magic + five u64 lengths + two reserved u64 = 64 bytes, so the first
/// section starts 8-aligned without any padding games.
constexpr std::uint64_t kHeaderBytes = 64;

/// The payload sections in file order; the footer names section i
/// kLotusSectionNames[i + 1] (entry 0 is the header).
enum Section : std::size_t {
  kNewId,
  kH2h,
  kHeOffsets,
  kHeNeighbors,
  kNheOffsets,
  kNheNeighbors,
  kSections,
};
static_assert(kSections + 1 == cks::kLotusSections);

Status io_error(const std::string& path, const std::string& what) {
  return {StatusCode::kIoError, path + ": " + what};
}

Status bad_data(const std::string& path, const std::string& what) {
  return {StatusCode::kInvalidArgument, path + ": " + what};
}

struct HeaderV2 {
  std::uint64_t n = 0;
  std::uint64_t hubs = 0;
  std::uint64_t h2h_words = 0;
  std::uint64_t he_edges = 0;
  std::uint64_t nhe_edges = 0;
};

constexpr std::uint64_t pad8(std::uint64_t bytes) noexcept {
  return (bytes + 7) & ~std::uint64_t{7};
}

/// Checksum of a section over its pad8-padded on-disk extent: the footer
/// sums cover the zero padding too, so a flipped pad byte is also caught.
/// The writer's in-memory arrays lack the padding; feed it as zeros.
std::uint64_t padded_checksum(const void* data, std::uint64_t bytes) {
  cks::Checksummer c;
  c.update(data, bytes);
  const std::uint64_t padding = pad8(bytes) - bytes;
  if (padding > 0) {
    const std::array<unsigned char, 8> zeros{};
    c.update(zeros.data(), padding);
  }
  return c.digest();
}

std::array<unsigned char, kHeaderBytes> encode_header(const HeaderV2& h) {
  std::array<unsigned char, kHeaderBytes> header{};
  std::memcpy(header.data(), kMagic.data(), kMagic.size());
  const std::array<std::uint64_t, 5> fields = {h.n, h.hubs, h.h2h_words,
                                               h.he_edges, h.nhe_edges};
  std::memcpy(header.data() + 8, fields.data(), sizeof fields);
  return header;
}

HeaderV2 header_of(const LotusGraph& lg) {
  return {lg.num_vertices(), lg.hub_count(), lg.h2h().words().size(),
          lg.he().num_edges(), lg.nhe().num_edges()};
}

/// Where each section lies. Every section starts on an 8-byte boundary
/// (u16/u32 sections are zero-padded up to one), so a mapped view of any
/// array is naturally aligned.
struct LayoutV2 {
  HeaderV2 h;
  std::array<std::uint64_t, kSections> at{};     // byte offset of section i
  std::array<std::uint64_t, kSections> bytes{};  // unpadded length
  std::uint64_t total = 0;  // end of the last padded section = footer offset

  [[nodiscard]] std::uint64_t image_bytes() const noexcept {
    return total + cks::footer_bytes(cks::kLotusSections);
  }
};

LayoutV2 layout_for(const HeaderV2& h) noexcept {
  LayoutV2 l;
  l.h = h;
  l.bytes = {h.n * sizeof(graph::VertexId),
             h.h2h_words * sizeof(std::uint64_t),
             (h.n + 1) * sizeof(std::uint64_t),
             h.he_edges * sizeof(std::uint16_t),
             (h.n + 1) * sizeof(std::uint64_t),
             h.nhe_edges * sizeof(graph::VertexId)};
  std::uint64_t pos = kHeaderBytes;
  for (std::size_t i = 0; i < kSections; ++i) {
    l.at[i] = pos;
    pos += pad8(l.bytes[i]);
  }
  l.total = pos;
  return l;
}

/// Parse the header of an image `image_size` bytes long and check that its
/// sizes are possible and account for the image exactly, before any
/// arithmetic that could overflow or any allocation a hostile file could
/// inflate. `header` must hold kHeaderBytes unless image_size is smaller.
Expected<LayoutV2> parse_header(const void* header, std::uint64_t image_size,
                                const std::string& path) {
  if (image_size < kHeaderBytes) return io_error(path, "truncated header");
  if (std::memcmp(header, kMagic.data(), kMagic.size()) != 0)
    return bad_data(path, "not a lotus graph file (bad magic)");
  std::array<std::uint64_t, 5> fields{};
  std::memcpy(fields.data(), static_cast<const char*>(header) + 8, sizeof fields);
  const HeaderV2 h = {fields[0], fields[1], fields[2], fields[3], fields[4]};
  if (h.n > 0xffffffffULL) return bad_data(path, "vertex count exceeds 32 bits");
  if (h.hubs > (1ull << 16)) return bad_data(path, "corrupt header (hub count)");
  const std::uint64_t bits = h.hubs * (h.hubs - (h.hubs > 0 ? 1 : 0)) / 2;
  if (h.h2h_words != (bits + 63) / 64)
    return bad_data(path, "H2H word count does not match hub count");
  if (h.he_edges > (1ull << 48) || h.nhe_edges > (1ull << 48))
    return bad_data(path, "implausible edge count");
  const LayoutV2 layout = layout_for(h);
  // Exactly one checksum footer follows the payload; an image without it
  // is a size mismatch like any other.
  if (image_size != layout.image_bytes())
    return bad_data(path, "file size does not match header");
  return layout;
}

/// Check the six payload sections of the image at `image` against the
/// footer sums. Each section is hashed with its zero padding as stored, so
/// rot in the padding is caught too.
Status verify_payload(const LayoutV2& l, const std::byte* image,
                      const std::uint64_t* sums, const std::string& path) {
  for (std::size_t i = 0; i < kSections; ++i) {
    if (cks::block_checksum(image + l.at[i], pad8(l.bytes[i])) != sums[i + 1])
      return io_error(path, "checksum mismatch in section '" +
                                std::string(cks::kLotusSectionNames[i + 1]) + "'");
  }
  return Status::Ok();
}

Status check_offsets(const std::string& path,
                     const util::ConstArray<std::uint64_t>& offsets,
                     std::uint64_t edges) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != edges)
    return bad_data(path, "corrupt offsets");
  for (std::size_t i = 1; i < offsets.size(); ++i)
    if (offsets[i] < offsets[i - 1]) return bad_data(path, "corrupt offsets");
  return Status::Ok();
}

/// Assemble the parts; converts from_parts' invalid_argument into a Status.
Expected<LotusGraph> assemble(const std::string& path, std::uint64_t hubs,
                              util::ConstArray<std::uint64_t> h2h_words,
                              util::ConstArray<std::uint64_t> he_offsets,
                              util::ConstArray<std::uint16_t> he_neighbors,
                              util::ConstArray<std::uint64_t> nhe_offsets,
                              util::ConstArray<graph::VertexId> nhe_neighbors,
                              util::ConstArray<graph::VertexId> new_id) {
  try {
    TriangularBitArray h2h(static_cast<graph::VertexId>(hubs),
                           std::move(h2h_words));
    graph::Csr16 he(std::move(he_offsets), std::move(he_neighbors));
    graph::CsrGraph nhe(std::move(nhe_offsets), std::move(nhe_neighbors));
    return LotusGraph::from_parts(static_cast<graph::VertexId>(hubs),
                                  std::move(h2h), std::move(he), std::move(nhe),
                                  std::move(new_id));
  } catch (...) {
    Status status = util::status_from_current_exception(StatusCode::kInvalidArgument);
    return Status{status.code(), path + ": " + status.message()};
  }
}

}  // namespace

std::uint64_t lotus_image_bytes(const LotusGraph& lotus_graph) noexcept {
  return layout_for(header_of(lotus_graph)).image_bytes();
}

util::Status check_lotus_body(const std::string& path, std::uint64_t hubs,
                              const util::ConstArray<graph::VertexId>& new_id,
                              const util::ConstArray<std::uint64_t>& he_offsets,
                              const util::ConstArray<std::uint16_t>& he_neighbors,
                              const util::ConstArray<std::uint64_t>& nhe_offsets,
                              const util::ConstArray<graph::VertexId>& nhe_neighbors) {
  const std::uint64_t n = new_id.size();
  if (he_offsets.size() != n + 1 || nhe_offsets.size() != n + 1)
    return bad_data(path, "section sizes disagree on vertex count");
  std::vector<std::uint64_t> seen;  // one bit per vertex
  try {
    seen.resize((n + 63) / 64);
  } catch (...) {
    return util::status_from_current_exception(StatusCode::kOutOfMemory);
  }
  // The scan reads every body page, so a file cut under a mapping must end
  // it with kIoError; the guarded body owns nothing that must unwind.
  return util::with_mapped_fault_guard(path, [&]() -> Status {
    Status status = check_offsets(path, he_offsets, he_neighbors.size());
    if (status.ok()) status = check_offsets(path, nhe_offsets, nhe_neighbors.size());
    if (!status.ok()) return status;
    for (const graph::VertexId id : new_id) {
      const std::uint64_t bit = std::uint64_t{1} << (id & 63);
      if (id >= n || (seen[id >> 6] & bit) != 0)
        return bad_data(path, "relabeling array is not a permutation");
      seen[id >> 6] |= bit;
    }
    for (std::uint64_t v = 0; v < n; ++v)
      for (std::uint64_t i = he_offsets[v]; i < he_offsets[v + 1]; ++i)
        if (he_neighbors[i] >= hubs || he_neighbors[i] >= v)
          return bad_data(path, "HE entry out of range");
    for (std::uint64_t v = 0; v < n; ++v)
      for (std::uint64_t i = nhe_offsets[v]; i < nhe_offsets[v + 1]; ++i)
        if (nhe_neighbors[i] < hubs || nhe_neighbors[i] >= v)
          return bad_data(path, "NHE entry out of range");
    return Status::Ok();
  });
}

util::Status write_lotus_v2_stream_s(std::FILE* out, const std::string& tmp,
                                     const LotusGraph& lg) {
  const LayoutV2 l = layout_for(header_of(lg));
  const auto header = encode_header(l.h);
  Status status =
      util::fileio::write_fully(out, header.data(), header.size(), tmp);

  // One checksum per section, over its padded on-disk extent; the footer
  // follows the last section so readers can verify each array on load.
  std::uint64_t sums[cks::kLotusSections] = {};
  sums[0] = cks::block_checksum(header.data(), header.size());
  const std::array<const void*, kSections> data = {
      lg.relabeling().data(),     lg.h2h().words().data(),
      lg.he().offsets().data(),   lg.he().neighbor_array().data(),
      lg.nhe().offsets().data(),  lg.nhe().neighbor_array().data()};
  for (std::size_t i = 0; i < kSections && status.ok(); ++i) {
    status = util::fileio::write_fully(out, data[i], l.bytes[i], tmp);
    const std::uint64_t padding = pad8(l.bytes[i]) - l.bytes[i];
    if (status.ok() && padding > 0) {
      const std::array<unsigned char, 8> zeros{};
      status = util::fileio::write_fully(out, zeros.data(), padding, tmp);
    }
    sums[i + 1] = padded_checksum(data[i], l.bytes[i]);
  }
  if (status.ok()) {
    unsigned char footer[cks::footer_bytes(cks::kLotusSections)];
    cks::write_footer(sums, cks::kLotusSections, footer);
    status = util::fileio::write_fully(out, footer, sizeof footer, tmp);
  }
  return status;
}

util::Status write_lotus_binary_s(const std::string& path,
                                  const LotusGraph& lg) {
  util::fileio::AtomicFileWriter writer(path);
  if (!writer.ok()) return writer.open_status();
  const Status status =
      write_lotus_v2_stream_s(writer.file(), writer.temp_path(), lg);
  if (!status.ok()) return status;  // destructor unlinks the temp file
  return writer.commit();
}

util::Expected<LotusGraph> read_lotus_v2_mapped_at_s(
    const std::shared_ptr<util::MappedFile>& file, std::uint64_t base,
    std::uint64_t size, bool validate, graph::oocore::MapVerify verify) {
  const std::string& path = file->path();
  if (base % 8 != 0) return bad_data(path, "image offset is not 8-aligned");
  if (base > file->size() || size > file->size() - base)
    return bad_data(path, "image extends past end of file");
  const std::byte* image = file->data() + base;
  Expected<LayoutV2> parsed = parse_header(image, size, path);
  if (!parsed.ok()) return parsed.status();
  const LayoutV2 l = parsed.value();
  const HeaderV2& h = l.h;
  if (verify == graph::oocore::MapVerify::kEager) {
    // One sequential pass over the mapping (doubling as readahead), under
    // the SIGBUS guard: truncation or bit rot surfaces as kIoError, not a
    // crash.
    const Status status = util::with_mapped_fault_guard(path, [&]() -> Status {
      std::uint64_t sums[cks::kLotusSections] = {};
      Status s = cks::read_footer_check_header(image + l.total,
                                               cks::kLotusSections, image,
                                               kHeaderBytes, path, sums);
      if (!s.ok()) return s;
      return verify_payload(l, image, sums, path);
    });
    if (!status.ok()) return status;
  }

  // Hints keyed to the counting kernels' access order (see header comment):
  // offset/neighbour sections are walked in ascending relabeled-vertex order
  // — the squared edge tiling's visit order — so sequential readahead wins;
  // the H2H words are probed randomly and should just be resident.
  using Advice = util::MappedFile::Advice;
  const auto at = [&](Section s) { return base + l.at[s]; };
  file->advise(Advice::kSequential, at(kHeOffsets),
               l.at[kNheOffsets] - l.at[kHeOffsets]);
  file->advise(Advice::kSequential, at(kNheOffsets), l.total - l.at[kNheOffsets]);
  file->advise(Advice::kSequential, at(kNewId), l.at[kH2h] - l.at[kNewId]);
  file->advise(Advice::kWillNeed, at(kH2h), l.at[kHeOffsets] - l.at[kH2h]);

  auto new_id = util::mapped_view<graph::VertexId>(file, at(kNewId), h.n);
  auto he_offsets = util::mapped_view<std::uint64_t>(file, at(kHeOffsets), h.n + 1);
  auto he_neighbors = util::mapped_view<std::uint16_t>(file, at(kHeNeighbors), h.he_edges);
  auto nhe_offsets = util::mapped_view<std::uint64_t>(file, at(kNheOffsets), h.n + 1);
  auto nhe_neighbors =
      util::mapped_view<graph::VertexId>(file, at(kNheNeighbors), h.nhe_edges);
  if (validate) {
    const Status status = check_lotus_body(path, h.hubs, new_id, he_offsets,
                                           he_neighbors, nhe_offsets, nhe_neighbors);
    if (!status.ok()) return status;
  }
  return assemble(
      path, h.hubs, util::mapped_view<std::uint64_t>(file, at(kH2h), h.h2h_words),
      std::move(he_offsets), std::move(he_neighbors), std::move(nhe_offsets),
      std::move(nhe_neighbors), std::move(new_id));
}

util::Expected<LotusGraph> read_lotus_mapped_s(const std::string& path,
                                               bool validate,
                                               graph::oocore::MapVerify verify) {
  Expected<std::shared_ptr<util::MappedFile>> mapped = util::MappedFile::map(path);
  if (!mapped.ok()) return mapped.status();
  const std::shared_ptr<util::MappedFile> file = mapped.take();
  return read_lotus_v2_mapped_at_s(file, 0, file->size(), validate, verify);
}

util::Expected<LotusGraph> read_lotus_binary_s(const std::string& path) {
  Expected<std::shared_ptr<util::MappedFile>> mapped = util::MappedFile::map(path);
  if (!mapped.ok()) return mapped.status();
  const std::shared_ptr<util::MappedFile> file = mapped.take();
  // Checksums are verified on the mapping, the structural scan on the heap
  // copies (see graph::read_csr_binary_s). The mapped pages are dropped
  // after the checksum pass and again chunk by chunk as copy_to_heap_s
  // copies them, so the load peaks near the artifact's size, not twice it.
  Expected<LotusGraph> views = read_lotus_v2_mapped_at_s(
      file, 0, file->size(), /*validate=*/false, graph::oocore::MapVerify::kEager);
  if (!views.ok()) return views.status();
  file->advise(util::MappedFile::Advice::kDontNeed);
  const LotusGraph& lg = views.value();
  util::ConstArray<graph::VertexId> new_id = lg.relabeling();
  util::ConstArray<std::uint64_t> h2h_words = lg.h2h().words();
  util::ConstArray<std::uint64_t> he_offsets = lg.he().offsets();
  util::ConstArray<std::uint16_t> he_neighbors = lg.he().neighbor_array();
  util::ConstArray<std::uint64_t> nhe_offsets = lg.nhe().offsets();
  util::ConstArray<graph::VertexId> nhe_neighbors = lg.nhe().neighbor_array();
  Status status =
      util::copy_to_heap_s(*file, new_id, h2h_words, he_offsets, he_neighbors,
                           nhe_offsets, nhe_neighbors);
  if (status.ok())
    status = check_lotus_body(path, lg.hub_count(), new_id, he_offsets,
                              he_neighbors, nhe_offsets, nhe_neighbors);
  if (!status.ok()) return status;
  return assemble(path, lg.hub_count(), std::move(h2h_words),
                  std::move(he_offsets), std::move(he_neighbors),
                  std::move(nhe_offsets), std::move(nhe_neighbors),
                  std::move(new_id));
}

}  // namespace lotus::core
