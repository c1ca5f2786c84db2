// The LOTUS graph structure (Sec. 4.2) and its preprocessing (Alg. 2).
//
// A LotusGraph holds:
//   * H2H — triangular bit array of hub-to-hub edges (randomly accessed,
//     cache-resident working set of phase 1);
//   * HE  — CSX of each vertex's lower-ID hub neighbours, 16-bit IDs;
//   * NHE — CSX of each vertex's lower-ID non-hub neighbours, 32-bit IDs;
//   * the relabeling array mapping original to LOTUS IDs.
// Hub-to-hub edges appear both in H2H and in HE (the paper stores them
// twice; Fig. 3a).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "lotus/config.hpp"
#include "lotus/h2h_bitarray.hpp"
#include "obs/trace.hpp"

namespace lotus::core {

class LotusGraph {
 public:
  /// Alg. 2: relabel, split every lower-ID neighbour list into hub (HE) and
  /// non-hub (NHE) parts, and populate the H2H bit array. Runs in parallel
  /// over vertices, in two passes over the input:
  ///   * "partition" counts each vertex's HE and NHE degrees without a
  ///     branch, then prefix-sums them into the offsets;
  ///   * "serialize" fills the HE/NHE slots, sorts long HE lists through a
  ///     per-thread hub bitmap, sorts only the reordered head of each NHE
  ///     list (the plain tail keeps its input order), and sets each hub's
  ///     H2H row a word at a time.
  /// The arrays are byte-identical to a plain classify-and-std::sort build,
  /// whatever order or repeats the input lists hold. A non-null `tracer`
  /// receives the "relabel", "partition" and "serialize" sub-spans of the
  /// preprocessing breakdown. An interrupted build returns a partial graph
  /// that the caller must discard.
  static LotusGraph build(const graph::CsrGraph& graph, const LotusConfig& config = {},
                          obs::PhaseTracer* tracer = nullptr);

  /// Reassemble from previously built parts (deserialization); throws
  /// std::invalid_argument when the parts disagree on the vertex or hub
  /// count. It reads no section body: the O(V+E) structural scan is
  /// core::check_lotus_body (lotus/serialize.hpp), which the readers run
  /// before assembling. Parts may be owned or mmap-backed.
  static LotusGraph from_parts(graph::VertexId hub_count, TriangularBitArray h2h,
                               graph::Csr16 he, graph::CsrGraph nhe,
                               util::ConstArray<graph::VertexId> new_id);

  [[nodiscard]] graph::VertexId num_vertices() const noexcept { return num_vertices_; }
  [[nodiscard]] graph::VertexId hub_count() const noexcept { return hub_count_; }
  [[nodiscard]] bool is_hub(graph::VertexId v) const noexcept { return v < hub_count_; }

  [[nodiscard]] const TriangularBitArray& h2h() const noexcept { return h2h_; }
  [[nodiscard]] const graph::Csr16& he() const noexcept { return he_; }
  [[nodiscard]] const graph::CsrGraph& nhe() const noexcept { return nhe_; }

  /// new_id[old_id]; needed to translate external queries into LOTUS IDs.
  [[nodiscard]] const util::ConstArray<graph::VertexId>& relabeling() const noexcept {
    return new_id_;
  }

  /// Total topology bytes: HE + NHE (index arrays + neighbour IDs) + H2H
  /// (Table 7 accounting).
  [[nodiscard]] std::uint64_t topology_bytes() const noexcept {
    return he_.topology_bytes() + nhe_.topology_bytes() + h2h_.size_bytes();
  }

  /// Heap bytes pinned (≈0 for a fully mmap-backed LotusGraph) — what the
  /// engine cache charges for a remapped artifact.
  [[nodiscard]] std::uint64_t owned_bytes() const noexcept {
    return he_.owned_bytes() + nhe_.owned_bytes() + h2h_.owned_bytes() +
           new_id_.owned_bytes();
  }

 private:
  graph::VertexId num_vertices_ = 0;
  graph::VertexId hub_count_ = 0;
  TriangularBitArray h2h_;
  graph::Csr16 he_;
  graph::CsrGraph nhe_;
  util::ConstArray<graph::VertexId> new_id_;
};

}  // namespace lotus::core
