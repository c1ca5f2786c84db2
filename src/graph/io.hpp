// Graph serialization: whitespace-separated text edge lists (the common
// interchange format of SNAP/KONECT dumps) and a fast binary CSR format.
//
// Every function returns util::Status/Expected and never throws. Binary
// writes go through a bounded EINTR/short-write retry loop and check every
// fwrite/fclose return value (fault sites write_short / write_fail).
//
// This file is also the one codec of the "LOTUSGR1" binary CSX format: its
// magic, header check, layout, checksum-footer sections and body check are
// defined here and nowhere else. The one decoder is the mapped reader
// (graph/oocore.hpp); read_csr_binary_s below is that decoder plus a heap
// copy, and the external builder and the engine spill format
// (tc/prepared.cpp) write through this codec too.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "util/status.hpp"

namespace lotus::graph {

/// Read "u v" pairs, one per line; lines starting with '#' or '%' and
/// whitespace-only lines are skipped, tokens after the first two on a line
/// are ignored (tolerates weighted/timestamped dumps). Self-loops are kept
/// (builders drop them). num_vertices = max endpoint + 1. Errors:
/// io_error for unreadable files, invalid_argument for malformed lines or
/// endpoint IDs that do not fit in 32 bits.
util::Expected<EdgeList> read_edge_list_text_s(const std::string& path);

/// The streaming form of read_edge_list_text_s (same grammar, same errors):
/// calls fn(u, v) for each edge in file order without holding the list. A
/// non-OK status from fn stops the scan and is returned.
util::Status for_each_text_edge_s(
    const std::string& path,
    const std::function<util::Status(VertexId, VertexId)>& fn);

util::Status write_edge_list_text_s(const std::string& path,
                                    const EdgeList& edges);

/// Binary CSX: magic "LOTUSGR1", u64 num_vertices, u64 num_edges, offsets,
/// 32-bit neighbours, checksum footer.
util::Status write_csr_binary_s(const std::string& path, const CsrGraph& graph);

/// Read the binary CSX format into heap-owned arrays: the mapped decode
/// (oocore::read_csr_mapped_at_s with MapVerify::kEager) followed by a copy
/// charged as "graph-load" to the current memory budget, and check_csx_body
/// over the copy. The declared (v, e) header is checked against the file
/// size before anything is allocated, the footer sums are verified on the
/// mapping, and the copy's offsets and neighbour IDs are range-checked. Errors: io_error on unreadable files, truncated
/// headers and checksum mismatches; invalid_argument on structural
/// corruption (bad magic, sizes that disagree with the file — a missing
/// footer included —, non-monotone offsets, out-of-range IDs);
/// out_of_memory when the budget refuses the copy.
util::Expected<CsrGraph> read_csr_binary_s(const std::string& path);

// ---------------------------------------------------------------------------
// The LOTUSGR1 codec (docs/OUT_OF_CORE.md has the byte layout).
// ---------------------------------------------------------------------------

/// magic + u64 num_vertices + u64 num_edges. 24 bytes keep the offsets
/// 8-aligned and the neighbours 4-aligned, so an image can be mapped as is.
inline constexpr std::uint64_t kCsxHeaderBytes = 24;

/// Where each section of a LOTUSGR1 image lies, from its header.
struct CsxLayout {
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;

  [[nodiscard]] std::uint64_t offsets_bytes() const noexcept {
    return (num_vertices + 1) * sizeof(std::uint64_t);
  }
  [[nodiscard]] std::uint64_t neighbors_at() const noexcept {
    return kCsxHeaderBytes + offsets_bytes();
  }
  [[nodiscard]] std::uint64_t neighbors_bytes() const noexcept {
    return num_edges * sizeof(VertexId);
  }
  [[nodiscard]] std::uint64_t footer_at() const noexcept {
    return neighbors_at() + neighbors_bytes();
  }
  /// Length of the whole image, footer included.
  [[nodiscard]] std::uint64_t image_bytes() const noexcept;
};

/// Parse the header of a LOTUSGR1 image that is `image_size` bytes long and
/// check that the declared sizes and one checksum footer account for it
/// exactly — before any caller allocates what the header asks for. `header`
/// must hold kCsxHeaderBytes readable bytes unless image_size is smaller.
/// Errors: io_error when the image is shorter than its header;
/// invalid_argument for a bad magic, a vertex count over 32 bits, or sizes
/// that disagree with image_size.
[[nodiscard]] util::Expected<CsxLayout> parse_csx_header(
    const void* header, std::uint64_t image_size, const std::string& path);

/// Check the offsets and neighbours sections against the footer sums, which
/// util::checksum::read_footer_check_header parsed from the footer at
/// footer_at(). Error: io_error naming the damaged section.
[[nodiscard]] util::Status verify_csx_sections(const CsxLayout& layout,
                                               const void* offsets,
                                               const void* neighbors,
                                               const std::uint64_t* sums,
                                               const std::string& path);

/// Structural scan: offsets start at 0, end at the edge count and never
/// decrease; every neighbour ID is below the vertex count. Error:
/// invalid_argument.
[[nodiscard]] util::Status check_csx_body(
    const std::string& path, const util::ConstArray<std::uint64_t>& offsets,
    const util::ConstArray<VertexId>& neighbors);

/// Append a complete LOTUSGR1 image for `graph` to `out` at its current
/// position; it is exactly csx_image_bytes(graph) long. The image must start
/// on an 8-byte file offset for the mapped reader to work (the engine spill
/// format embeds images this way). `path` is for error messages only.
[[nodiscard]] util::Status write_csx_stream_s(std::FILE* out,
                                              const std::string& path,
                                              const CsrGraph& graph);

/// Byte length of the image write_csx_stream_s writes for `graph`.
[[nodiscard]] std::uint64_t csx_image_bytes(const CsrGraph& graph) noexcept;

/// Complete a LOTUSGR1 file at the start of `out` whose neighbour section
/// was already streamed to [neighbors_at(), footer_at()) and hashed into
/// `neighbors_sum` (util::checksum::Checksummer): writes the header and
/// `offsets` (v + 1 prefix sums) in front of it and the footer after it.
[[nodiscard]] util::Status finish_csx_file_s(
    std::FILE* out, const std::string& path,
    const std::vector<std::uint64_t>& offsets, std::uint64_t neighbors_sum);

}  // namespace lotus::graph
