// LotusGraph serialization.
//
// Preprocessing is ~19% of end-to-end time (Fig. 6); applications that count
// repeatedly (streaming snapshots, parameter sweeps, local counts after the
// global count) can persist the built structure and skip Alg. 2 on reload.
//
// The on-disk format is "LOTUSLG2": a fixed 64-byte header carrying all
// array lengths, followed by the six sections each padded to an 8-byte
// boundary, then a checksum footer (docs/OUT_OF_CORE.md has the byte-level
// layout). Every array is naturally aligned at a header-derivable offset, so
// the mapped reader serves the arrays as zero-copy views. serialize.cpp is
// the format's one codec: the header check, the section layout and the
// footer section table are defined there and nowhere else, and the mapped
// decode is its one decoder (the heap reader copies what it returns).
//
// Writes go through a temp file + fsync + atomic rename (util/file_io.hpp):
// a crash mid-write never leaves a torn artifact at the target path.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "graph/oocore.hpp"
#include "lotus/lotus_graph.hpp"
#include "util/mmap_file.hpp"
#include "util/status.hpp"

namespace lotus::core {

/// Write `lotus_graph` as a "LOTUSLG2" artifact, durably (temp file, fsync,
/// atomic rename). Never throws.
[[nodiscard]] util::Status write_lotus_binary_s(const std::string& path,
                                                const LotusGraph& lotus_graph);

/// Read an artifact into heap-owned arrays: read_lotus_v2_mapped_at_s
/// (checksums verified) followed by a copy charged as "graph-load" to the
/// current memory budget, then the full structural validation of the
/// copies. Never throws.
[[nodiscard]] util::Expected<LotusGraph> read_lotus_binary_s(
    const std::string& path);

/// Map an artifact and build a LotusGraph whose arrays are zero-copy views
/// into the page cache (owned_bytes() ≈ 0). Access-pattern hints follow the
/// counting kernels' iteration order: HE/NHE sections get MADV_SEQUENTIAL
/// (ascending relabeled-vertex order — the order the squared edge tiling
/// visits), the H2H words get MADV_WILLNEED (small, randomly probed).
///
/// `validate` controls the O(V+E) structural scan (check_lotus_body, run
/// under the SIGBUS guard); pass false only for artifacts this process wrote
/// itself (engine spill files), where skipping it keeps the cold load from
/// faulting in every page. Header consistency
/// (sizes, offsets monotonicity bounds) is always checked. `verify` controls
/// checksum-footer verification of the mapped sections (kEager runs it under
/// the SIGBUS guard). The footer itself is required either way: an image
/// without one fails the size check with invalid_argument. Never throws.
[[nodiscard]] util::Expected<LotusGraph> read_lotus_mapped_s(
    const std::string& path, bool validate = true,
    graph::oocore::MapVerify verify = graph::oocore::MapVerify::kEager);

/// Append a complete image to `out` at its current position (the engine
/// spill format embeds LotusGraph sections this way; tc/prepared.cpp); it is
/// exactly lotus_image_bytes(lotus_graph) long. The image must start on an
/// 8-byte file offset for the mapped reader to work. `path` is for error
/// messages only.
[[nodiscard]] util::Status write_lotus_v2_stream_s(std::FILE* out,
                                                   const std::string& path,
                                                   const LotusGraph& lotus_graph);

/// Byte length of the image write_lotus_v2_stream_s writes for `lotus_graph`.
[[nodiscard]] std::uint64_t lotus_image_bytes(
    const LotusGraph& lotus_graph) noexcept;

/// Structural scan of an artifact's sections: each offsets array has n + 1
/// entries, starts at 0, never decreases and ends at its edge count; the
/// relabeling (n entries) is a permutation; every HE entry is a hub below its
/// vertex and every NHE entry a non-hub below its vertex. The scan runs under
/// util::with_mapped_fault_guard (its scratch is allocated first), so over a
/// mapping whose file was cut it returns io_error instead of crashing.
/// Errors: invalid_argument naming `path`; out_of_memory for the scratch.
[[nodiscard]] util::Status check_lotus_body(
    const std::string& path, std::uint64_t hubs,
    const util::ConstArray<graph::VertexId>& new_id,
    const util::ConstArray<std::uint64_t>& he_offsets,
    const util::ConstArray<std::uint16_t>& he_neighbors,
    const util::ConstArray<std::uint64_t>& nhe_offsets,
    const util::ConstArray<graph::VertexId>& nhe_neighbors);

/// Zero-copy LotusGraph over an image spanning [base, base + size) inside
/// an existing mapping; `base` must be 8-aligned. read_lotus_mapped_s is
/// this with base = 0, size = whole file. `verify` as above.
[[nodiscard]] util::Expected<LotusGraph> read_lotus_v2_mapped_at_s(
    const std::shared_ptr<util::MappedFile>& file, std::uint64_t base,
    std::uint64_t size, bool validate,
    graph::oocore::MapVerify verify = graph::oocore::MapVerify::kEager);

}  // namespace lotus::core
