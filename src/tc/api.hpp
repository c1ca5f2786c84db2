// Unified graph-analytics query API.
//
// One entry point — tc::query() — over LOTUS and every baseline, so benches,
// tests, examples and the serving layer sweep algorithms uniformly. The enum
// names note which framework of the paper's evaluation (Sec. 5.1.4) each
// kernel stands in for.
//
// Queries are typed by AnalyticKind: the same call answers scalar triangle
// counts (the default — source-compatible with the original TC-only API),
// k-clique censuses, k-truss decompositions, per-vertex local triangle
// counts, and clustering coefficients. The Algorithm enum picks the
// *substrate* the analytic runs on (LOTUS phases vs. the degree-ordered
// oriented CSR of the Forward family); all non-triangle analytics consume
// the same prepared artifacts as TC, so a tc::Engine serves a mixed
// analytic workload off one cached artifact per (graph, artifact kind)
// (tc/prepared.hpp, mining/vertex_miner.hpp).
//
// Thread-safety — the Engine contract: query() keeps every piece of mutable
// state it touches query-scoped. The cancellation context and memory budget
// are installed thread-locally on the driving thread
// (parallel/exec_context.hpp, util/memory_budget.hpp), profiled counters
// accumulate into a per-query obs::CounterDomain, and the scheduler timeline
// is captured through a pool-scoped sink. Two queries may therefore run
// concurrently provided each driving thread routes through its own thread
// pool — install a parallel::ScopedPool per driver, or use tc::Engine
// (tc/engine.hpp), which arranges exactly that (a pool per query driver plus
// a shared prepared-graph cache). Concurrent query() calls *without* scoped
// pools contend on the one process-wide pool, whose fork-join execute() is
// not reentrant — don't do that. Cancelling via QueryOptions::cancel from
// another thread is the supported (and intended) concurrent interaction.
//
// The legacy entry points (run, run_with_status, run_profiled,
// run_profiled_with_status, RunOptions, ProfileOptions) are gone: query()
// subsumed all of them, and the deprecation window closed. docs/API.md keeps
// the migration table.
//
// Overhead: a non-profiled query() adds two util::Timer reads per algorithm
// over calling the kernel directly, plus one thread-local install when a
// cancel token, deadline or budget is supplied (nothing otherwise).
// Profiled queries additionally record O(#phases) spans and one
// CounterDomain flush per worker chunk — a handful of clock reads per run,
// independent of graph size. With LOTUS_OBS=0 the counter snapshot is empty
// but the span tree is still recorded (see obs/counters.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/csr.hpp"
#include "lotus/config.hpp"
#include "obs/counters.hpp"
#include "obs/hwc.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace lotus::tc {

enum class Algorithm {
  kLotus,          // this paper
  kAdaptive,       // LOTUS or gap-forward by the Sec. 5.5 skewness test
  kForwardMerge,   // GAP-style Forward + merge join (SIMD unless !vectorize)
  kForwardGallop,  // Forward + binary/galloping search [31]
  kForwardHashed,  // Schank & Wagner forward-hashed
  kForwardBitmap,  // Latapy new-vertex-listing
  kForwardHybrid,  // sparse-vs-dense degree split over the kernel layer
  kEdgeParallel,   // GBBS-style edge-parallel Forward
  kEdgeIterator,   // GraphGrind-style edge iterator
  kNodeIterator,   // classical node iterator
  kBlocked,        // BBTC-style block-based TC
};

/// Which analytic a query computes. Every kind runs over the same prepared
/// artifacts as plain TC (tc/prepared.hpp): kTriangles/kKClique/kKTruss
/// traverse the degree-ordered oriented CSR (TC is the k = 3 instance of
/// kKClique); kLocalCounts/kClustering run through the LOTUS phases when the
/// substrate algorithm is lotus (or adaptive picks LOTUS) and over the
/// oriented CSR otherwise. Names below are the stable CLI/schema vocabulary
/// (analytic_name()/parse_analytic() round-trip over the table).
enum class AnalyticKind {
  kTriangles,    // scalar triangle count (the historical default)
  kKClique,      // k-clique census with hub attribution
  kKTruss,       // truss decomposition (per-edge trussness + summary)
  kLocalCounts,  // triangles through each vertex
  kClustering,   // local clustering coefficients + transitivity summary
};

/// Stable analytic names, indexed by static_cast<size_t>(AnalyticKind).
/// scripts/check_docs.sh cross-checks each against docs/API.md.
// LOTUS-ANALYTIC-INVENTORY-BEGIN
inline constexpr const char* kAnalyticNames[] = {
    "triangles", "kclique", "ktruss", "local-counts", "clustering",
};
// LOTUS-ANALYTIC-INVENTORY-END

/// How much of an analytic's output to materialize.
enum class OutputGranularity {
  kFull,     // per-vertex / per-edge arrays plus the summary
  kSummary,  // summary fields only (arrays stay empty; less budget charged)
};

/// Per-analytic parameters riding in QueryOptions. The default request —
/// kTriangles — reproduces the original TC-only behavior exactly, which is
/// what keeps tc::query(Algorithm, graph, QueryOptions) source-compatible.
struct AnalyticsRequest {
  AnalyticKind kind = AnalyticKind::kTriangles;

  /// Clique size for kKClique (>= 3; k = 3 is TC with hub attribution).
  /// Ignored by the other kinds.
  unsigned k = 3;

  /// Top-degree share treated as hubs for kKClique attribution (Table 1
  /// uses 1%). Must be in (0, 1].
  double hub_fraction = 0.01;

  /// Whether to materialize per-vertex/per-edge arrays (kLocalCounts,
  /// kClustering, kKTruss) or just the summaries.
  OutputGranularity granularity = OutputGranularity::kFull;
};

/// k-truss decomposition summary (order-invariant; the per-edge array in
/// AnalyticsResult::edge_trussness depends on the artifact's edge order).
struct TrussSummary {
  std::uint32_t max_k = 0;  // largest k with a non-empty k-truss
  std::uint64_t edges_in_max_truss = 0;
};

/// Clustering/transitivity summary over the whole graph.
struct ClusteringSummary {
  std::uint64_t wedges = 0;          // paths of length 2 (open + closed)
  double global_transitivity = 0.0;  // 3·triangles / wedges
  double avg_clustering = 0.0;       // mean local coefficient
};

/// Typed payload of one analytic run. Which fields are populated depends on
/// AnalyticsRequest::kind (and granularity):
///   kTriangles   — count (== RunResult::triangles)
///   kKClique     — count, hub_count, k
///   kKTruss      — truss; edge_trussness when granularity is kFull, indexed
///                  by the prepared artifact's oriented edge order (the
///                  (u, v) u<v edges flattened by v in degree order)
///   kLocalCounts — count (= Σ/3); vertex_counts by ORIGINAL vertex id when
///                  granularity is kFull
///   kClustering  — count, clustering; vertex_coefficients by ORIGINAL
///                  vertex id when granularity is kFull
struct AnalyticsResult {
  AnalyticKind kind = AnalyticKind::kTriangles;
  unsigned k = 3;  // echoed clique size (3 for the triangle-shaped kinds)

  std::uint64_t count = 0;      // triangles / k-cliques (0 for kKTruss)
  std::uint64_t hub_count = 0;  // kKClique: cliques containing >= 1 hub

  std::vector<std::uint64_t> vertex_counts;
  std::vector<double> vertex_coefficients;
  std::vector<std::uint32_t> edge_trussness;
  TrussSummary truss;
  ClusteringSummary clustering;

  /// Share of cliques containing a hub (kKClique; 0 when count == 0).
  [[nodiscard]] double hub_pct() const {
    return count > 0
               ? 100.0 * static_cast<double>(hub_count) / static_cast<double>(count)
               : 0.0;
  }
};

struct RunResult {
  /// Scalar triangle count — the thin TC adapter that keeps the original
  /// API shape: mirrors analytics.count whenever the analytic defines a
  /// triangle count (kTriangles, kKClique at k = 3, kLocalCounts,
  /// kClustering); 0 for kKClique at k > 3 and kKTruss.
  std::uint64_t triangles = 0;
  double preprocess_s = 0.0;
  double count_s = 0.0;

  /// Typed payload of the analytic that ran (kTriangles for plain TC).
  AnalyticsResult analytics;

  [[nodiscard]] double total_s() const { return preprocess_s + count_s; }

  /// End-to-end counting rate (triangles per second over preprocess + count);
  /// 0 when the run was too fast to time.
  [[nodiscard]] double triangles_per_s() const {
    const double t = total_s();
    return t > 0.0 ? static_cast<double>(triangles) / t : 0.0;
  }

  /// Zero every result value while keeping the analytic identity (kind, k)
  /// and the timings — what a non-ok status demands: a partial result must
  /// never look valid, but partial metrics stay useful.
  void clear_payload() {
    triangles = 0;
    AnalyticsResult cleared;
    cleared.kind = analytics.kind;
    cleared.k = analytics.k;
    analytics = std::move(cleared);
  }
};

/// Canonical edge-rate formula shared by the benches: undirected edges
/// processed per second. Returns 0 when `seconds` is not positive.
[[nodiscard]] inline double edges_per_s(std::uint64_t undirected_edges,
                                        double seconds) {
  return seconds > 0.0 ? static_cast<double>(undirected_edges) / seconds : 0.0;
}

/// Everything one query asks for: the algorithm configuration, the
/// resilience envelope (cancellation, deadline, memory budget, degradation
/// policy), and — when `profile` is set — the observability capture knobs
/// that used to live in ProfileOptions.
struct QueryOptions {
  /// Algorithm configuration (hub count, fusion, ...).
  core::LotusConfig config;

  /// Which analytic to compute and its parameters. Defaults to kTriangles,
  /// preserving the original TC-only call shape. Validated on the Expected
  /// error side (see validate()) — a malformed request is never attempted.
  AnalyticsRequest analytic;

  /// Cooperative cancellation: another thread calls cancel() and the query
  /// finishes with StatusCode::kCancelled at the next chunk/phase boundary.
  /// The token must outlive the call; nullptr = not cancellable.
  const util::CancelToken* cancel = nullptr;

  /// Wall-clock deadline; an expired deadline makes the query finish with
  /// StatusCode::kDeadlineExceeded at the next chunk/phase boundary.
  /// Default: no deadline.
  util::Deadline deadline;

  /// Soft cap on the large allocations the library accounts (CSX arrays,
  /// relabel buffers, H2H bits, intersection scratch; util/memory_budget.hpp).
  /// 0 = unlimited. Exceeding it triggers degradation (below) or
  /// StatusCode::kOutOfMemory.
  std::uint64_t memory_budget_bytes = 0;

  /// When the budget (or an injected allocation fault) vetoes a
  /// memory-hungry algorithm (lotus, adaptive, forward-hashed,
  /// forward-bitmap, forward-hybrid), retry once with the scratch-free
  /// gap-forward merge
  /// kernel instead of failing. The switch is recorded in
  /// QueryResult::degradations. false = fail with kOutOfMemory.
  bool allow_degradation = true;

  /// Capture a full ProfileReport (span tree, per-query counters, optional
  /// hardware events and scheduler timeline) into QueryResult::profile.
  bool profile = false;

  // --- knobs below apply only when profile == true ---

  /// Requested hardware-event source. kHardware degrades to kSimulated
  /// (with a one-line stderr warning) when perf_event_open is unavailable —
  /// a locked-down container must never fail the run. kSimulated replays
  /// the run single-threaded through the simcache model after the real
  /// (timed) run to attribute modeled events per phase; it is supported for
  /// lotus/adaptive/gap-forward and reports zero events (with a note) for
  /// the other baselines.
  obs::EventSource events = obs::EventSource::kOff;

  /// Record the scheduler's task/steal/idle timeline into
  /// ProfileReport::sched_events (for chrome_trace export).
  bool capture_sched_events = false;
};

/// Everything one profiled run produced: the RunResult plus the span tree,
/// the counter snapshot, hardware-event totals, and (optionally) the
/// scheduler timeline taken over exactly this run. Exported via metrics() /
/// to_json() in the versioned "lotus-metrics/8" schema (docs/METRICS.md).
///
/// Counter provenance: reports carry the query-scoped CounterDomain totals
/// (threads breakdown empty — per-thread rows are a property of the
/// process-wide snapshot, obs::counters_snapshot()).
struct ProfileReport {
  Algorithm algorithm = Algorithm::kLotus;
  RunResult result;
  obs::PhaseTracer trace;
  obs::CountersSnapshot counters;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;  // undirected edge count
  unsigned threads = 0;

  /// Event source that actually ran (after any hw→sim degradation), its
  /// backend tag, run-total events, and a note when something degraded or
  /// was unsupported. kOff ⇒ events are all zero.
  obs::EventSource event_source = obs::EventSource::kOff;
  std::string event_backend;
  obs::EventCounts events;
  std::string event_note;

  /// Scheduler timeline (empty unless QueryOptions::capture_sched_events).
  std::vector<obs::SchedEvent> sched_events;

  /// Final status of the run and any graceful degradations taken (hw→sim
  /// events, memory-budget algorithm fallback). Non-ok status ⇒ the result
  /// payload is cleared (a partial count or array must never look valid);
  /// the timings and spans that did complete are kept as partial metrics.
  util::Status status;
  std::vector<obs::Degradation> degradations;

  /// Serving provenance, filled by tc::Engine: whether this report came
  /// through an Engine, its queue wait, and whether the prepared-graph
  /// cache served the preprocessing. When `engine_served` is set, metrics()
  /// exports them as the schema-v4 "engine" section.
  bool engine_served = false;
  double queue_s = 0.0;
  bool cache_hit = false;

  /// Assemble the full MetricsRegistry (meta + metrics + hw + spans +
  /// counters).
  [[nodiscard]] obs::MetricsRegistry metrics() const;
  /// Shorthand for metrics().to_json_string(indent).
  [[nodiscard]] std::string to_json(int indent = 2) const;
  /// Chrome-trace document of the span tree + scheduler timeline
  /// (obs::chrome_trace), loadable in Perfetto / chrome://tracing.
  [[nodiscard]] std::string to_chrome_trace() const;
};

/// The outcome of one query. `status` carries the run's fate (a query that
/// started but was cancelled / hit its deadline / ran out of memory still
/// yields a QueryResult — with a non-ok status and zeroed triangles — so
/// callers always get the identity fields and whatever partial metrics
/// completed).
struct QueryResult {
  /// Algorithm that produced `result` — the requested one, unless a
  /// memory-budget degradation swapped in gap-forward (see `degradations`,
  /// which then records the requested algorithm and the fallback taken).
  Algorithm algorithm = Algorithm::kLotus;
  RunResult result;

  /// ok / kCancelled / kDeadlineExceeded / kOutOfMemory / kResourceExhausted
  /// / kInternal. Non-ok ⇒ the result payload is cleared
  /// (RunResult::clear_payload): triangles is 0 and the analytics arrays and
  /// counters are empty.
  util::Status status;
  std::vector<obs::Degradation> degradations;

  /// Pool width the query ran on.
  unsigned threads = 0;

  /// Seconds spent queued before a driver picked the query up, and whether
  /// the prepared-graph cache served the preprocessing. Both are filled by
  /// tc::Engine; direct query() calls leave them 0/false.
  double queue_s = 0.0;
  bool cache_hit = false;

  /// Full observability capture; present iff QueryOptions::profile.
  std::optional<ProfileReport> profile;

  [[nodiscard]] bool ok() const { return status.ok(); }
};

/// Run one analytic (triangle count by default). Never throws: execution
/// failures (cancellation, deadline, OOM after any permitted degradation,
/// thread exhaustion) are reported in QueryResult::status; the error side of
/// the Expected is reserved for queries that could not be *attempted* at all
/// — a malformed request (see validate()) and Engine::submit
/// rejections (shutdown, null graph). See the file header for the
/// concurrency contract.
util::Expected<QueryResult> query(Algorithm algorithm,
                                  const graph::CsrGraph& graph,
                                  const QueryOptions& options = {});

/// The Expected-side admission check query() and Engine::submit share:
/// kInvalidArgument when the request can never be served — a
/// config.relabel_fraction outside [0, 1] (NaN included), kKClique with
/// k < 3, a hub_fraction outside (0, 1], or a non-triangle analytic on an
/// algorithm with no reusable prepared artifact (edge/node iterator — the
/// analytics need the oriented CSR or LotusGraph those never build). Ok
/// otherwise.
[[nodiscard]] util::Status validate(Algorithm algorithm,
                                    const QueryOptions& options);

/// Stable CLI/schema name of an analytic kind ("triangles", "kclique",
/// "ktruss", "local-counts", "clustering"); round-trips with
/// parse_analytic() over kAnalyticNames.
[[nodiscard]] std::string analytic_name(AnalyticKind kind);
/// Inverse of analytic_name(); nullopt for unknown names.
[[nodiscard]] std::optional<AnalyticKind> parse_analytic(
    const std::string& name);
/// All analytic kinds in declaration (display) order, kTriangles first.
[[nodiscard]] std::vector<AnalyticKind> all_analytics();
/// kAnalyticNames as a vector, indexed by static_cast<size_t>(AnalyticKind)
/// — the label table of the telemetry layer's analytic dimension (tc::Engine
/// passes it to its obs::Telemetry).
[[nodiscard]] std::vector<std::string> analytic_labels();

/// Stable CLI/schema name of an algorithm ("lotus", "gap-forward", ...).
/// name() and parse() round-trip over the single algorithm name table.
[[nodiscard]] std::string name(Algorithm algorithm);
/// Inverse of name(); nullopt for unknown names (no fuzzy matching).
[[nodiscard]] std::optional<Algorithm> parse(const std::string& name);

/// All algorithms, LOTUS first (display order used by the benches).
[[nodiscard]] std::vector<Algorithm> all_algorithms();

/// Stable name() labels indexed by static_cast<size_t>(Algorithm) — the
/// label table of the telemetry layer's algorithm dimension (tc::Engine
/// passes it to its obs::Telemetry).
[[nodiscard]] std::vector<std::string> algorithm_labels();

/// The comparator set of Tables 5/6: BBTC, GraphGrind, GAP, GBBS, Lotus.
[[nodiscard]] std::vector<Algorithm> paper_comparators();

class PreparedGraph;  // tc/prepared.hpp

namespace detail {
/// kAdaptive's dispatch (Sec. 5.5): kLotus when the degree distribution is
/// skewed (core::should_use_lotus, one O(V) scan), kForwardMerge otherwise.
/// Every other algorithm maps to itself. query(), query_prepared() and the
/// Engine resolve once, before looking up the artifact kind.
Algorithm resolve_adaptive(Algorithm algorithm, const graph::CsrGraph& graph);

/// Shared execution core behind query() and Engine: installs the
/// query-scoped context/budget, runs `runs_as` (resolve_adaptive of the
/// requested `algorithm`, which QueryResult::algorithm reports) against
/// `prepared`, or against an artifact it builds itself when `prepared` is
/// null, with the degradation retry policy, and assembles the QueryResult
/// (+ ProfileReport when options.profile). Engine calls this with a prepared
/// graph from its cache; query() passes nullptr.
QueryResult execute_query(Algorithm algorithm, Algorithm runs_as,
                          const graph::CsrGraph& graph,
                          const QueryOptions& options,
                          const PreparedGraph* prepared);

/// Run one triangle-counting algorithm against its artifact (implemented in
/// prepared.cpp) — the one switch that picks a kernel. The algorithms with a
/// kNone artifact read `graph` directly. Non-triangle analytics go through
/// run_analytic instead.
RunResult run_prepared_kernel(Algorithm algorithm,
                              const PreparedGraph& prepared,
                              const graph::CsrGraph& graph,
                              const core::LotusConfig& config,
                              obs::PhaseTracer* trace);

/// Run one non-triangle analytic (kKClique, kKTruss, kLocalCounts,
/// kClustering) on the substrate `algorithm` selects, borrowing it from
/// `prepared` (implemented in analytics_exec.cpp). Residual per-query work
/// the artifact cannot cover — recomputing the degree permutation for
/// per-vertex remaps; the truss peel reads the oriented CSR alone — is
/// timed into preprocess_s. Budget vetoes propagate as bad_alloc (the
/// degradation retry in execute_query applies); cancellation/deadline are
/// polled inside every traversal.
RunResult run_analytic(Algorithm algorithm, const graph::CsrGraph& graph,
                       const QueryOptions& options,
                       const PreparedGraph& prepared, obs::PhaseTracer* trace);
}  // namespace detail

}  // namespace lotus::tc
