// Serving telemetry: always-on latency histograms, a sampled structured
// query log, rolling-window aggregation, and Prometheus text exposition.
//
// This is the continuous counterpart to the per-run observability stack
// (PhaseTracer spans, counters, hwc): where those attribute one run offline,
// Telemetry watches a *stream* of queries while traffic is flowing — tail
// latency per stage (queue wait / prepare / count / end-to-end), per
// algorithm label and per cache outcome (hit / miss / remap / heal /
// uncached), QPS and quantiles over a rolling window, and a JSON-lines log
// that reconstructs every sampled query. tc::Engine owns one Telemetry and
// records into it on every completed query (docs/TELEMETRY.md).
//
// Design for an always-on hot path:
//   * LatencyHistogram is log-bucketed (8 sub-buckets per power of two, so
//     quantile estimates carry a <= 6.25% relative bucket error) and
//     mergeable: bin-wise add/subtract is exact, which makes per-thread
//     shards and rolling-window deltas trivial.
//   * Recording is lock-free: each recording thread owns a shard of plain
//     atomic bins; one record() is a handful of bit operations plus 26
//     release fetch_adds (two per series, 13 series; plain lock-prefixed
//     adds on x86), no mutex, no allocation. Shards are merged only on read
//     (snapshot/export), which is off the serving path.
//   * The query log is sampled (TelemetryOptions::query_log_sample) so its
//     cost is bounded and under the operator's control; histograms are
//     always on. The bench `telemetry` scenario regression-gates the
//     end-to-end overhead of full telemetry at < 2%.
//
// Thread-safety: record() is safe from any thread concurrently with any
// number of record()/snapshot() calls. snapshot() merges atomic shards —
// each bin is exact, cross-bin skew is bounded by in-flight record() calls
// (same contract as obs counters); release increments paired with acquire
// merge loads keep merged counts from running ahead of queries_recorded.
// The rolling window and the query log serialize internally on their own
// mutexes; the window structure itself is only ever touched under its
// mutex — the record path checks an atomic next-rotation timestamp first
// and then try-locks, so it can never block a driver.
//
// Layering: this header is tc-free — algorithm names arrive as a label
// table, so obs stays below tc in the module graph while the Engine decides
// the label vocabulary.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/timer.hpp"

namespace lotus::obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Log-bucketed latency histogram over nanosecond durations. Buckets are
/// HdrHistogram-style log-linear: values below 8 ns get exact unit buckets;
/// above that, every power-of-two octave is split into 8 equal sub-buckets,
/// so any recorded value lands in a bucket whose width is at most 1/8 of its
/// lower bound (quantile midpoint estimates are within ~6.25% of the true
/// rank value). The top tracked octave is 2^42 ns (~1.2 h); larger values
/// saturate into the last bucket. Plain value type: record/merge/diff are
/// single-threaded; the concurrent shard layer lives in Telemetry.
class LatencyHistogram {
 public:
  static constexpr unsigned kSubBucketBits = 3;
  static constexpr unsigned kSubBuckets = 1u << kSubBucketBits;  // 8
  static constexpr unsigned kMaxOctave = 42;  // ~1.2 hours in ns
  static constexpr std::size_t kBuckets =
      (static_cast<std::size_t>(kMaxOctave) - kSubBucketBits + 1) *
      kSubBuckets + kSubBuckets;  // 328

  /// Bucket that `ns` falls into (total order, contiguous from 0).
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t ns) noexcept;
  /// Inclusive lower bound of a bucket, in ns.
  [[nodiscard]] static std::uint64_t bucket_lower_ns(std::size_t bucket) noexcept;
  /// Exclusive upper bound of a bucket (UINT64_MAX for the saturated top).
  [[nodiscard]] static std::uint64_t bucket_upper_ns(std::size_t bucket) noexcept;

  void record(std::uint64_t ns) noexcept;

  /// Merge helpers for the shard/window layers: add `n` observations into
  /// one bucket (count rides along) and raw nanoseconds into the sum.
  void add_bin(std::size_t bucket, std::uint64_t n) noexcept;
  void add_sum_ns(std::uint64_t ns) noexcept { sum_ns_ += ns; }

  /// Bin-wise sum; exact and associative (the unit-test contract).
  void merge(const LatencyHistogram& other) noexcept;

  /// Bin-wise `newer - older` (clamped at 0 per bin): the rolling-window
  /// delta between two cumulative snapshots.
  [[nodiscard]] static LatencyHistogram delta(
      const LatencyHistogram& newer, const LatencyHistogram& older) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum_ns() const noexcept { return sum_ns_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& bins() const noexcept {
    return bins_;
  }

  /// Estimated q-quantile (q in [0,1]) in nanoseconds: the midpoint of the
  /// bucket holding the rank-⌊q·count⌋ observation; 0 when empty. Relative
  /// error is bounded by half the bucket width (<= 6.25%).
  [[nodiscard]] double quantile_ns(double q) const noexcept;
  [[nodiscard]] double quantile_s(double q) const noexcept {
    return quantile_ns(q) * 1e-9;
  }
  [[nodiscard]] double sum_s() const noexcept {
    return static_cast<double>(sum_ns_) * 1e-9;
  }

 private:
  std::array<std::uint64_t, kBuckets> bins_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Dimensions
// ---------------------------------------------------------------------------

/// Per-query stages that get their own histogram series. Names are part of
/// the exported schema (the `stage` label / `engine_telemetry` rows).
enum class QueryStage : unsigned { kQueue = 0, kPrepare, kCount, kTotal };
inline constexpr std::size_t kNumQueryStages = 4;
[[nodiscard]] const char* query_stage_name(QueryStage stage) noexcept;

/// How the prepared-graph cache served a query. `kUncached` covers
/// algorithms without a reusable artifact and empty graph keys. `kHeal` is
/// the self-healing path: a spill file failed checksum verification, was
/// quarantined, and the artifact was rebuilt from scratch. Names are part
/// of the exported schema (the `outcome` label).
enum class CacheOutcome : unsigned { kUncached = 0, kHit, kMiss, kRemap, kHeal };
inline constexpr std::size_t kNumCacheOutcomes = 5;
[[nodiscard]] const char* cache_outcome_name(CacheOutcome outcome) noexcept;

/// The label families every query is recorded under, one histogram series
/// per (label, stage) each. Names are part of the exported schema (the
/// Prometheus label names, the `series` field of `engine_telemetry` rows).
enum class Dimension : unsigned { kAlgorithm = 0, kOutcome, kAnalytic };
inline constexpr std::size_t kNumDimensions = 3;
[[nodiscard]] const char* dimension_name(Dimension dimension) noexcept;

// ---------------------------------------------------------------------------
// Rolling window
// ---------------------------------------------------------------------------

/// Ring of cumulative snapshots so "now" questions (current QPS, current
/// p99) are answered from the last ~window instead of since process start.
/// Callers pass monotonic time explicitly, which keeps rotation/expiry unit
/// testable. Not internally synchronized — Telemetry guards its instance.
class RollingWindow {
 public:
  explicit RollingWindow(double window_s, std::size_t slots = 15);

  /// True when enough time has passed that advance() would rotate a slot.
  [[nodiscard]] bool due(double now_s) const noexcept;

  /// Earliest time at which due() becomes true (0 while the ring is empty,
  /// i.e. due immediately). Lets callers cache the rotation deadline in an
  /// atomic and skip locking until it passes.
  [[nodiscard]] double next_due_s() const noexcept;

  /// Record a cumulative snapshot if a slot boundary has passed; expires
  /// slots that have fallen out of the window (always keeping one baseline
  /// at or beyond the window edge).
  void advance(double now_s, std::uint64_t completed,
               const LatencyHistogram& cumulative);

  struct Stats {
    double span_s = 0.0;        // actual covered span (≈ window once warm)
    std::uint64_t queries = 0;  // completed within the span
    double qps = 0.0;
    LatencyHistogram hist;      // end-to-end latency delta over the span
  };

  /// Windowed delta between `cumulative`/`completed` now and the oldest
  /// retained snapshot.
  [[nodiscard]] Stats stats(double now_s, std::uint64_t completed,
                            const LatencyHistogram& cumulative) const;

  [[nodiscard]] double window_s() const noexcept { return window_s_; }
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }

 private:
  struct Slot {
    double at_s = 0.0;
    std::uint64_t completed = 0;
    LatencyHistogram hist;
  };
  double window_s_;
  double slot_s_;
  std::deque<Slot> ring_;
};

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Knobs, embedded in tc::EngineOptions. Histograms are cheap enough to
/// leave on; the query log is the one knob with per-query serialization
/// cost, hence the sampling divisor.
struct TelemetryOptions {
  /// Master switch. false compiles the record path down to one branch —
  /// the bench `telemetry` scenario measures on-vs-off overhead.
  bool enabled = true;

  /// Append sampled queries as JSON lines to this file ("" = no log).
  std::string query_log_path;

  /// Log every Nth completed query (1 = every query, 0 = never). Sampling
  /// is by monotonic query id, so a sampled stream is deterministic.
  std::uint32_t query_log_sample = 1;

  /// Rolling-window span for "now" statistics (QPS, windowed quantiles).
  double window_s = 60.0;
};

/// Everything one completed query reports. Timings are per stage; `total`
/// is end-to-end (queue + prepare + count, as measured by the caller).
struct QuerySample {
  /// Indices into the algorithm and analytic label tables; out-of-range
  /// values (including anything when a table is empty) land in that
  /// dimension's reserved "unknown" series.
  std::size_t algorithm = 0;
  std::size_t analytic = 0;
  CacheOutcome outcome = CacheOutcome::kUncached;
  std::string_view graph_key;
  std::string_view status;  // stable status-code name ("ok", ...)
  unsigned threads = 0;
  bool deadline_missed = false;
  std::uint64_t queue_ns = 0;
  std::uint64_t prepare_ns = 0;
  std::uint64_t count_ns = 0;
  std::uint64_t total_ns = 0;
};

/// One merged histogram series in a snapshot.
struct SeriesSnapshot {
  Dimension dimension = Dimension::kAlgorithm;
  std::string label;  // a label of `dimension`, or "unknown"
  QueryStage stage = QueryStage::kTotal;
  LatencyHistogram hist;
};

/// Point-in-time merged view of everything Telemetry tracks.
struct TelemetrySnapshot {
  bool enabled = false;
  std::uint64_t queries_recorded = 0;
  std::uint64_t query_log_lines = 0;
  std::uint64_t query_log_failures = 0;
  double uptime_s = 0.0;
  /// Non-empty series only, grouped by dimension in Dimension order, then
  /// by label row and stage.
  std::vector<SeriesSnapshot> series;
  RollingWindow::Stats window;
  double window_span_s = 0.0;  // configured span
};

class Telemetry {
 public:
  static constexpr unsigned kShards = 8;

  /// `algorithm_labels[i]` names QuerySample::algorithm == i in every
  /// export, and `analytic_labels[i]` likewise names QuerySample::analytic;
  /// the outcome dimension is labelled by cache_outcome_name(). The tables
  /// are frozen at construction (fixed series layout).
  Telemetry(TelemetryOptions options, std::vector<std::string> algorithm_labels,
            std::vector<std::string> analytic_labels);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Record one completed query: histogram increments (lock-free), a lazy
  /// rolling-window rotation, and — when the query id hits the sampling
  /// stride — one query-log line. Returns the assigned monotonic query id
  /// (1-based; 0 when disabled).
  std::uint64_t record(const QuerySample& sample);

  /// Append an out-of-band operational event ({"event": kind, ...detail})
  /// to the query log — spill quarantines, cleanup failures. Unsampled (rare
  /// by construction); a no-op when telemetry is disabled or there is no
  /// log. Counted in query_log_lines/query_log_failures like query lines.
  void log_event(std::string_view kind, std::string_view detail);

  /// Merge every shard into a consistent read-side view.
  [[nodiscard]] TelemetrySnapshot snapshot() const;

 private:
  static constexpr std::size_t kCellsPerSeries =
      LatencyHistogram::kBuckets + 1;  // bins + sum_ns

  /// One dimension's series: a row per label plus a trailing reserved
  /// "unknown" row for out-of-range indices, kNumQueryStages series per row,
  /// numbered from `first_series`. The end-to-end aggregate feeding the
  /// rolling window is the one series after the last dimension.
  struct DimensionLayout {
    std::vector<std::string> labels;
    std::size_t first_series = 0;
  };
  [[nodiscard]] std::size_t series_count() const noexcept {
    return aggregate_series_ + 1;
  }

  void bump(std::size_t shard, std::size_t series, std::uint64_t ns) noexcept;
  [[nodiscard]] LatencyHistogram merge_series(std::size_t series) const;
  void write_log_line(std::uint64_t id, const QuerySample& sample);
  /// One line to the log under log_mutex_, counted as written or failed.
  void append_log_line(const std::string& text);

  TelemetryOptions options_;
  std::array<DimensionLayout, kNumDimensions> dims_;  // Dimension order
  std::size_t aggregate_series_ = 0;
  std::vector<std::atomic<std::uint64_t>> cells_;  // [shard][series][cell]

  std::atomic<std::uint64_t> recorded_{0};

  util::Timer clock_;
  mutable std::mutex window_mutex_;
  RollingWindow window_;  // touched only under window_mutex_
  /// Cached RollingWindow::next_due_s(), refreshed under window_mutex_;
  /// record() reads it lock-free to decide whether to try the rotation at
  /// all, so window_ itself is never inspected without the mutex.
  mutable std::atomic<double> next_rotation_s_{0.0};

  std::mutex log_mutex_;
  std::ofstream log_;
  std::atomic<std::uint64_t> log_lines_{0};
  std::atomic<std::uint64_t> log_failures_{0};
};

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Minimal Prometheus text-format (version 0.0.4) writer: `# HELP`/`# TYPE`
/// headers deduplicated per metric family, escaped label values, histogram
/// families in the cumulative `_bucket{le=...}` / `_sum` / `_count`
/// convention (only populated buckets plus the mandatory `+Inf` are
/// emitted). Single-threaded builder, like MetricsRegistry.
class PrometheusWriter {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  void counter(const std::string& name, const std::string& help,
               std::uint64_t value, const Labels& labels = {});
  void gauge(const std::string& name, const std::string& help, double value,
             const Labels& labels = {});
  /// Cumulative histogram family; `le` bounds are the buckets' *inclusive*
  /// upper bounds (the exclusive bound minus 1 ns — durations are integer
  /// nanoseconds) converted to seconds, matching the exposition format's
  /// inclusive `le` semantics. Only populated buckets are emitted, so the
  /// layout can differ across series/scrapes (legal per the format).
  void histogram(const std::string& name, const std::string& help,
                 const Labels& labels, const LatencyHistogram& hist);

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

  /// Label-value escaping per the exposition format: `\` -> `\\`,
  /// `"` -> `\"`, newline -> `\n`. UTF-8 passes through untouched.
  [[nodiscard]] static std::string escape_label_value(std::string_view value);

 private:
  void header(const std::string& name, const std::string& help,
              const char* type);
  void sample(const std::string& name, const std::string& suffix,
              const Labels& labels, const std::string& value);

  std::string out_;
  std::set<std::string> declared_;
};

}  // namespace lotus::obs
