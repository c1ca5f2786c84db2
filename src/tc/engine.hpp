// tc::Engine — a thread-safe graph-analytics serving layer.
//
// An Engine owns a small fleet of query drivers (each with its *own* thread
// pool, installed per-thread via parallel::ScopedPool) and a keyed
// prepared-graph cache, so a stream of analytic queries — triangle counts,
// k-clique censuses, k-truss decompositions, per-vertex local counts,
// clustering coefficients (QueryOptions::analytic) — against a working
// set of graphs runs (a) concurrently and (b) without re-paying
// preprocessing: the first query for a (graph, artifact kind, config) triple
// builds the artifact — degree order + oriented N^< CSR for the Forward
// family, the LotusGraph (relabeling + H2H + HE/NHE CSX) for lotus; adaptive
// uses whichever its skewness test picks — and every later query counts
// against the cached copy
// (QueryResult::cache_hit, preprocess_s ≈ 0). The cache key is the
// *artifact* kind, not the analytic — artifact_kind(algorithm, analytic) —
// so a k-clique query right after a TC query on the same graph is a cache
// hit: both consume the one degree-ordered oriented CSR.
//
// Cache policy: single-flight (concurrent first queries for one key build
// once; the others wait on the same shared_future) with LRU eviction charged
// against a util::MemoryBudget. Artifacts are handed out as shared_ptr, so
// an eviction never pulls one out from under an in-flight query. An
// artifact larger than the whole budget is served to its waiters but not
// retained.
//
// Spill tier: with EngineOptions::spill_dir set, an evicted (or oversized)
// artifact is first persisted as a "LOTUSPA1" file (PreparedGraph::save_s)
// instead of being discarded outright. The next miss for that key remaps the
// file zero-copy (load_mapped_s) rather than re-paying the build — remapped
// artifacts charge ≈0 bytes against the cache budget, so they stay resident
// from then on while the page cache holds the actual topology. Spill files
// are removed by invalidate() and the destructor (docs/OUT_OF_CORE.md).
//
// Self-healing (docs/ROBUSTNESS.md): spill files carry checksum footers and
// are verified on remap (eagerly by default; off the query path with
// EngineOptions::background_spill_verify). A file that fails verification —
// bit rot, truncation, outside interference — is quarantined (renamed to
// "<file>.corrupt", preserving the bytes for forensics) and the artifact is
// rebuilt from the live graph through the normal single-flight build, so
// the query still answers correctly; the episode is visible as
// spill_verify_failures / cache_quarantines and a CacheOutcome::kHeal
// telemetry sample. Spill file names embed the pid plus a per-engine random
// token, so engines sharing a spill_dir never collide (a name that somehow
// already exists is skipped and counted, never overwritten).
//
// Telemetry: every completed query is recorded into an obs::Telemetry —
// per-stage latency histograms labeled by algorithm, analytic kind, and
// cache outcome, a rolling window for "now" stats, and a sampled JSON-lines
// query log. Exported three ways: prometheus_text() (text exposition),
// metrics() (`engine_telemetry` section, lotus-metrics/8),
// telemetry_snapshot()
// (programmatic). See docs/TELEMETRY.md.
//
// Thread-safety: submit()/query()/stats()/metrics()/telemetry_snapshot()/
// prometheus_text()/invalidate() are safe from any thread, concurrently. Cancellation (QueryOptions::cancel) and
// deadlines apply per query, exactly as for tc::query — each driver installs
// the query's ExecContext thread-locally, so concurrent queries never see
// each other's interrupts.
//
// Shutdown: the destructor stops accepting work, completes queries already
// picked up by a driver, and fails queued-but-unstarted queries with
// kCancelled (through the Expected error side: they were never attempted).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "tc/api.hpp"
#include "tc/prepared.hpp"
#include "util/memory_budget.hpp"

namespace lotus::tc {

struct EngineOptions {
  /// Query drivers = maximum queries in flight; each owns a thread pool.
  unsigned num_drivers = 2;

  /// Pool width per driver. 0 = hardware_concurrency / num_drivers (min 1),
  /// so a default engine never oversubscribes the machine.
  unsigned threads_per_query = 0;

  /// Byte budget for cached prepared-graph artifacts; LRU entries are
  /// evicted to stay under it. 0 = unlimited (accounting only).
  std::uint64_t cache_budget_bytes = 0;

  /// Existing directory for spilled artifacts. "" disables the spill tier:
  /// evictions discard and the next query rebuilds from scratch.
  std::string spill_dir;

  /// Verify spill-file checksums in the background instead of eagerly on
  /// remap: the remap keeps its pure zero-copy cold start (no page of the
  /// payload is touched) and a verifier thread re-checks the file off the
  /// query path, quarantining the file and dropping the resident artifact
  /// if it is corrupt. Default off: remaps verify before serving.
  bool background_spill_verify = false;

  /// Serving telemetry (docs/TELEMETRY.md): per-stage latency histograms,
  /// the rolling window, and the sampled query log. On by default — the
  /// bench `telemetry` scenario gates its overhead at <2%.
  obs::TelemetryOptions telemetry;
};

/// Monotonic serving counters. Engine::stats() copies the whole struct
/// under one mutex hold, so a snapshot is internally consistent: every
/// counter pair that is incremented together stays summable — in particular
/// `cache_hits + cache_misses == cache_lookups` holds in *every* snapshot,
/// not just quiescent ones (the TSan stress suite asserts this under load).
struct EngineStats {
  std::uint64_t submitted = 0;  // accepted + rejected
  std::uint64_t completed = 0;  // queries that ran (any final status)
  std::uint64_t rejected = 0;   // failed validation or arrived at shutdown
  std::uint64_t deadline_misses = 0;  // completed with kDeadlineExceeded

  std::uint64_t cache_lookups = 0;    // resolved lookups (== hits + misses)
  std::uint64_t cache_hits = 0;       // served from a cached/in-flight artifact
  std::uint64_t cache_misses = 0;     // had to build (or build failed)
  std::uint64_t cache_evictions = 0;  // LRU evictions + invalidate() drops
  std::uint64_t cache_entries = 0;    // current entries
  std::uint64_t cache_bytes = 0;      // current charged bytes

  std::uint64_t cache_spills = 0;   // artifacts written to spill_dir on evict
  std::uint64_t cache_remaps = 0;   // misses served by remapping a spill file
  std::uint64_t cache_spilled_entries = 0;  // spill files currently on disk

  std::uint64_t spill_verify_failures = 0;  // spill files failing checksum verify
  std::uint64_t cache_quarantines = 0;  // corrupt spills set aside as .corrupt
  std::uint64_t spill_cleanup_failures = 0;  // spill unlinks that failed
  std::uint64_t spill_collisions = 0;  // spill writes skipped: name taken on disk

  double queue_s_total = 0.0;       // summed queue wait of completed queries
  double preprocess_s_total = 0.0;  // summed preprocess (≈0 on hits)
  double count_s_total = 0.0;       // summed kernel time
};

/// One unit of work: which algorithm, against which graph. `graph_key` is
/// the cache identity — queries with the same key share artifacts, so it
/// must change when the graph data changes (empty key = never cache). The
/// graph must stay alive and unmodified until the query's future resolves.
struct QuerySpec {
  Algorithm algorithm = Algorithm::kLotus;
  std::string graph_key;
  const graph::CsrGraph* graph = nullptr;
  QueryOptions options;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Enqueue a query; the future resolves when it completes. Same Expected
  /// semantics as tc::query(): execution failures land in
  /// QueryResult::status; the error side is reserved for queries never
  /// attempted (null graph or a malformed request →
  /// kInvalidArgument via validate(), shutdown → kCancelled).
  std::future<util::Expected<QueryResult>> submit(QuerySpec spec);

  /// submit() + wait: convenience for callers without their own pipeline.
  util::Expected<QueryResult> query(QuerySpec spec);

  /// Drop every cached artifact of `graph_key` (all kinds/configs); counted
  /// as evictions. Call when the underlying graph data changed.
  void invalidate(const std::string& graph_key);

  /// One consistent snapshot of every serving counter (single mutex hold;
  /// see the EngineStats invariants).
  [[nodiscard]] EngineStats stats() const;

  /// Aggregate serving metrics as a "lotus-metrics/8" registry whose
  /// `engine` section carries the EngineStats fields and whose
  /// `engine_telemetry` section carries histogram quantiles + the rolling
  /// window (docs/METRICS.md, docs/TELEMETRY.md).
  [[nodiscard]] obs::MetricsRegistry metrics() const;

  /// Merged point-in-time view of the telemetry layer (latency histograms
  /// per algorithm / cache outcome / analytic kind, rolling window,
  /// query-log counters).
  [[nodiscard]] obs::TelemetrySnapshot telemetry_snapshot() const;

  /// Prometheus text exposition (version 0.0.4) of the serving counters and
  /// latency histograms — the `/metrics` endpoint body. Metric families are
  /// the rows of tc::kEngineMetrics (tc/engine_metrics.hpp), documented in
  /// docs/TELEMETRY.md.
  [[nodiscard]] std::string prometheus_text() const;

  [[nodiscard]] unsigned num_drivers() const noexcept {
    return static_cast<unsigned>(drivers_.size());
  }
  [[nodiscard]] unsigned threads_per_query() const noexcept {
    return threads_per_query_;
  }

 private:
  using ArtifactFuture =
      std::shared_future<std::shared_ptr<const PreparedGraph>>;

  struct Job {
    QuerySpec spec;
    std::promise<util::Expected<QueryResult>> promise;
    std::chrono::steady_clock::time_point submitted_at;
  };

  struct CacheEntry {
    ArtifactFuture artifact;
    std::uint64_t bytes = 0;      // charged footprint (0 while building)
    std::uint64_t last_used = 0;  // LRU tick
    bool charged = false;
  };

  struct Acquired {
    std::shared_ptr<const PreparedGraph> artifact;  // null → query builds its own
    bool hit = false;
    double build_s = 0.0;  // paid by this query (the builder) on a miss
    obs::CacheOutcome outcome = obs::CacheOutcome::kUncached;
  };

  void driver_loop();
  void run_job(Job job);
  Acquired acquire_artifact(const QuerySpec& spec, ArtifactKind kind);
  /// Charge `bytes`, LRU-evicting (and, with spill_dir, spilling) other
  /// charged entries as needed. Returns false when the artifact cannot fit
  /// even with an empty cache.
  bool reserve_locked(std::uint64_t bytes, const std::string& keep_key);
  /// Persist `artifact` under `key` in spill_dir (best effort; no-op when
  /// spilling is disabled, the key already has a file, or the write fails).
  void spill_locked(const std::string& key,
                    const std::shared_ptr<const PreparedGraph>& artifact);
  /// Drop the spill file of one key (best effort; unlink failures counted).
  void drop_spill_locked(const std::string& key);
  /// Set a corrupt spill file aside as "<file>.corrupt" (preserving the
  /// bytes for forensics) and forget its key; `why` goes to the query log.
  void quarantine_spill_locked(const std::string& key, const std::string& why);
  /// Unlink one spill file, counting failures (ENOENT is not a failure) in
  /// spill_cleanup_failures and the query log. `context` names the caller.
  void remove_spill_file_locked(const std::string& path, const char* context);
  /// Launch the off-query-path checksum re-check of a kOff-remapped spill
  /// (EngineOptions::background_spill_verify); joined in the destructor.
  void start_background_verify(const std::string& key, const std::string& path);

  EngineOptions options_;
  unsigned threads_per_query_ = 1;
  util::MemoryBudget cache_budget_;
  std::unique_ptr<obs::Telemetry> telemetry_;  // never null; set in the ctor

  mutable std::mutex mutex_;  // guards queue_, cache_, stats_, tick_
  std::condition_variable cv_;
  std::deque<Job> queue_;
  bool shutting_down_ = false;
  std::map<std::string, CacheEntry> cache_;
  std::map<std::string, std::string> spilled_;  // cache key -> spill file path
  std::uint64_t tick_ = 0;
  std::uint64_t spill_seq_ = 0;   // uniquifies spill file names in-process
  std::string spill_token_;       // per-engine random token in spill names
  EngineStats stats_;

  std::vector<std::thread> drivers_;
  std::vector<std::thread> verifiers_;  // background spill verifies (mutex_)
};

}  // namespace lotus::tc
