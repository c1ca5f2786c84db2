// Out-of-core graph pipeline: mmap-backed CSX loading and external-memory
// CSR construction (docs/OUT_OF_CORE.md).
//
// Two ways to get a graph that does not fit comfortably in heap memory:
//   * read_csr_mapped_s — mmap a "LOTUSGR1" CSX file and serve the offset
//     and neighbour arrays as zero-copy views into the page cache. The
//     returned graph pins ~no heap (Csr::owned_bytes() ≈ 0), so it passes
//     memory budgets that the heap-resident reader (graph::read_csr_binary_s,
//     which is this decode plus a copy) fails. The header, layout and
//     footer checks are the LOTUSGR1 codec in graph/io.hpp.
//   * build_undirected_external_s / build_csx_file_external_s — build a CSR
//     from a text edge list whose symmetrized arc set exceeds memory:
//     arcs are bucketed to temp files by source range, each bucket is
//     sorted and deduplicated within the sort budget, and buckets are
//     emitted in vertex order (the file variant streams straight into a
//     durable "LOTUSGR1" CSX artifact that read_csr_mapped_s can map).
//
// All functions follow the *_s contract: they never throw, and report
// failures (IO, corrupt input, budget refusal) as Status codes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "graph/csr.hpp"
#include "util/mmap_file.hpp"
#include "util/status.hpp"

namespace lotus::graph::oocore {

// LOTUS-KNOB-INVENTORY-BEGIN
// Every knob below must be documented in docs/OUT_OF_CORE.md
// (scripts/check_docs.sh cross-checks the names).

/// Knobs for the external-memory builders.
struct ExternalBuildOptions {
  /// sort_budget_bytes: ceiling on one bucket's in-memory arc array; buckets
  /// are sized so sorting never holds more than this (floor 1 MiB).
  std::uint64_t sort_budget_bytes = 256ull << 20;
  /// temp_dir: directory for bucket spill files; "" = alongside the input.
  std::string temp_dir;
};

/// Checksum policy for the mapped (zero-copy) readers. Heap loads always
/// decode with kEager.
enum class MapVerify {
  /// map_verify: kEager (default) checksum-verifies every section at map
  /// time under the SIGBUS guard — one sequential pass that doubles as
  /// readahead; kOff maps without touching the payload, preserving pure
  /// zero-copy cold starts (the engine's background-verify knob re-checks
  /// such mappings off the query path). Every image must end in its
  /// checksum footer either way; the size check rejects one without.
  kEager,
  kOff,
};
// LOTUS-KNOB-INVENTORY-END

/// Map a "LOTUSGR1" CSX file; offsets/neighbours are zero-copy views pinned
/// by the mapping (freed when the graph is destroyed). The file is fully
/// validated (header vs size, offset monotonicity, neighbour range) and its
/// checksum footer is verified per `verify`. This is the format's one
/// decoder: graph::read_csr_binary_s runs it with kEager and copies.
[[nodiscard]] util::Expected<CsrGraph> read_csr_mapped_s(
    const std::string& path, MapVerify verify = MapVerify::kEager);

/// Zero-copy CSX views over a "LOTUSGR1" image spanning [base, base + size)
/// inside an existing mapping; `base` must be 8-aligned. `validate` skips
/// the O(V+E) body scan for self-written (trusted) artifacts; `verify`
/// controls checksum-footer verification independently (a trusted layout
/// can still be checked for bit rot).
[[nodiscard]] util::Expected<CsrGraph> read_csr_mapped_at_s(
    const std::shared_ptr<util::MappedFile>& file, std::uint64_t base,
    std::uint64_t size, bool validate, MapVerify verify = MapVerify::kEager);

/// External-memory equivalent of read_edge_list_text_s + build_undirected:
/// symmetrize, drop self-loops, dedup, sort — without ever materializing the
/// full arc set in memory (peak heap ≈ sort_budget_bytes + the result).
[[nodiscard]] util::Expected<CsrGraph> build_undirected_external_s(
    const std::string& edge_list_path, const ExternalBuildOptions& options = {});

/// Same pipeline, but the CSR is streamed straight into a durable "LOTUSGR1"
/// CSX file at `out_path` (temp + fsync + atomic rename) instead of being
/// returned; peak heap ≈ sort_budget_bytes + the (v+1)-entry offset array.
/// Load the artifact with read_csr_mapped_s to count without ever holding
/// the neighbour set in heap memory.
[[nodiscard]] util::Status build_csx_file_external_s(
    const std::string& edge_list_path, const std::string& out_path,
    const ExternalBuildOptions& options = {});

}  // namespace lotus::graph::oocore
