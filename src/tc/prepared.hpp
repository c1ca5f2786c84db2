// PreparedGraph: the reusable preprocessing products behind tc::Engine's
// prepared-graph cache.
//
// Triangle-counting cost splits into a per-graph preprocessing step (degree
// ordering + orientation for the Forward family; relabeling + H2H bit array
// + HE/NHE CSX construction for LOTUS, Alg. 2) and the counting kernels
// proper. A PreparedGraph freezes the preprocessing products of one
// (graph, artifact kind, config) triple into immutable, shareable state so
// repeated queries — and *concurrent* queries — pay the preprocessing once.
// Every Forward-family baseline shares one kOriented artifact; lotus has the
// kLotus artifact, and adaptive shares whichever of the two its skewness
// test picks. tc::query builds the artifact and counts against it, exactly
// like an Engine miss, so both time the same code.
//
// Thread-safety: a built PreparedGraph is immutable; any number of queries
// may count against it concurrently (the kernels only read). Members are
// held through shared_ptr so an Engine cache eviction never pulls an
// artifact out from under an in-flight query.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "graph/csr.hpp"
#include "graph/oocore.hpp"
#include "lotus/config.hpp"
#include "lotus/lotus_graph.hpp"
#include "tc/api.hpp"
#include "util/status.hpp"

namespace lotus::tc {

/// Which preprocessing artifact an algorithm consumes — one cache-key
/// dimension of tc::Engine.
enum class ArtifactKind {
  kOriented,  // degree-descending order + oriented N^< CSR (Forward family)
  kLotus,     // LotusGraph: relabeling + H2H bits + HE/NHE CSX
  kNone,      // nothing to build (the kernel reads the graph directly)
};

/// The artifact `algorithm` counts against (its row of the algorithm table in
/// api.cpp). kNone for the baselines that read the graph directly
/// (edge/node iterator). kAdaptive names kLotus, its skewed choice; the
/// execution paths resolve it first (detail::resolve_adaptive).
[[nodiscard]] ArtifactKind artifact_kind(Algorithm algorithm);

/// The artifact an (algorithm, analytic) pair consumes. The key property is
/// analytic-independence wherever possible: every Forward-family algorithm
/// maps to the same kOriented artifact for ALL analytics (so a k-clique
/// query after a TC query is an Engine cache hit), and kLotus algorithms
/// keep their kLotus artifact for the per-vertex analytics that can run on
/// the LOTUS substrate (kLocalCounts, kClustering) while borrowing kOriented
/// for the DAG-only ones (kKClique, kKTruss). Algorithms with no reusable
/// artifact stay kNone — validate() rejects non-triangle analytics there.
[[nodiscard]] ArtifactKind artifact_kind(Algorithm algorithm,
                                         AnalyticKind analytic);

/// Stable schema name of a kind ("oriented", "lotus", "none").
[[nodiscard]] const char* artifact_kind_name(ArtifactKind kind);

class PreparedGraph {
 public:
  /// Build the artifact of `kind` for `graph`: the degree-ordered oriented
  /// CSR, or the LotusGraph (Alg. 2). A non-null `tracer` receives the build
  /// as a "preprocess" span (for kLotus with LotusGraph::build's
  /// relabel/partition/serialize children). Allocation failures (including
  /// budget vetoes) propagate as bad_alloc.
  static PreparedGraph build(ArtifactKind kind, const graph::CsrGraph& graph,
                             const core::LotusConfig& config = {},
                             obs::PhaseTracer* tracer = nullptr);

  [[nodiscard]] ArtifactKind kind() const noexcept { return kind_; }
  /// Non-null iff kind is kOriented.
  [[nodiscard]] const graph::OrientedCsr* oriented() const noexcept {
    return oriented_.get();
  }
  /// Non-null iff kind is kLotus.
  [[nodiscard]] const core::LotusGraph* lotus() const noexcept {
    return lotus_.get();
  }
  /// Preprocessing wall time the cache amortizes on every hit.
  [[nodiscard]] double build_s() const noexcept { return build_s_; }
  /// Artifact footprint, charged against the engine's cache budget. For a
  /// heap-built artifact this is the topology size; for one remapped from a
  /// spill file it is only the pinned heap bytes (≈0 — the topology lives in
  /// the page cache).
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

  /// Persist as a "LOTUSPA1" spill artifact (64-byte header: kind,
  /// build_s, section table; then the embedded "LOTUSGR1" or "LOTUSLG2"
  /// image at an 8-aligned offset, carrying its own checksum footer;
  /// finally the spill's own header footer), durably (temp + fsync +
  /// rename). kNone artifacts have nothing to save → kInvalidArgument.
  [[nodiscard]] util::Status save_s(const std::string& path) const;

  /// Reload a spill artifact as zero-copy views into the mapped file (bytes()
  /// ≈ 0). The file is trusted — this process wrote it — so the O(V+E)
  /// structural scans are skipped; headers, section bounds and the exact
  /// file size (footers included) are still checked, and `verify` controls
  /// checksum verification of the spill
  /// header and both embedded images (kEager runs it under the SIGBUS guard;
  /// the engine's background-verify knob re-checks kOff mappings off the
  /// query path). The mapping is pinned by the contained graphs, so the
  /// PreparedGraph stays valid even if the file is later unlinked.
  [[nodiscard]] static util::Expected<PreparedGraph> load_mapped_s(
      const std::string& path,
      graph::oocore::MapVerify verify = graph::oocore::MapVerify::kEager);

 private:
  ArtifactKind kind_ = ArtifactKind::kNone;
  std::shared_ptr<const graph::OrientedCsr> oriented_;
  std::shared_ptr<const core::LotusGraph> lotus_;
  double build_s_ = 0.0;
  std::uint64_t bytes_ = 0;
};

/// query() against prebuilt artifacts: same semantics and status model as
/// tc::query, but preprocessing is served from `prepared` (preprocess_s ≈ 0
/// in the result). The artifact must match artifact_kind of the algorithm
/// (for kAdaptive: of its resolution) — a mismatch yields kInvalidArgument. tc::Engine is the primary caller;
/// exposed for benches that manage artifacts by hand.
util::Expected<QueryResult> query_prepared(Algorithm algorithm,
                                           const graph::CsrGraph& graph,
                                           const PreparedGraph& prepared,
                                           const QueryOptions& options = {});

}  // namespace lotus::tc
