// The engine metric table: every metric tc::Engine exports, declared once.
// A row carries the Prometheus family (name, help, type, label names), where
// its JSON key lives (the `engine` section, the `engine_telemetry` section or
// that section's `window` object) and the accessor that reads the value. Row
// order is both the Prometheus page order and the JSON key order. Engine's
// metrics() and prometheus_text() render from the table, and
// scripts/check_docs.sh checks docs/TELEMETRY.md and docs/METRICS.md
// against it. It lives in tc, the layer that emits the names, so obs stays
// tc-free. Thread-safety: immutable; accessors only read their source.
#pragma once

#include <array>
#include <cstdint>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "tc/engine.hpp"

namespace lotus::tc {

enum class MetricType : unsigned char { kCounter, kGauge, kHistogram };

/// How a family's samples are laid out on the Prometheus page and in JSON.
enum class MetricShape : unsigned char {
  kScalar,       // one unlabelled sample: value()
  kQuantiles,    // one sample per kLatencyQuantiles entry of the window
  kStages,       // one histogram per (label, stage) series of `dimension`
  kLabelTotals,  // one counter per label of `dimension`: its total-stage count
};

/// Where a row's JSON key lives. A kQuantiles row writes one key per
/// kLatencyQuantiles entry; kStages rows append to their key's array one
/// object per series: `series`, `label`, `stage`, `count`, `sum_s` and the
/// quantile keys.
enum class JsonSection : unsigned char {
  kNone,       // Prometheus only
  kEngine,     // the `engine` section
  kTelemetry,  // the `engine_telemetry` section
  kWindow,     // the `window` object inside `engine_telemetry`
};

/// The rolling-window and per-series quantiles: Prometheus `quantile` label
/// value and JSON key.
struct LatencyQuantile {
  double q;
  const char* label;
  const char* json_key;
};
inline constexpr LatencyQuantile kLatencyQuantiles[] = {
    {0.5, "0.5", "p50_s"},
    {0.95, "0.95", "p95_s"},
    {0.99, "0.99", "p99_s"},
    {0.999, "0.999", "p999_s"},
};

/// One consistent view of the engine: what every accessor reads.
struct MetricSource {
  const EngineStats& stats;
  const obs::TelemetrySnapshot& telemetry;
  const EngineOptions& options;
};

struct EngineMetric {
  const char* family;  // Prometheus family; nullptr = JSON only
  const char* help;
  MetricType type;
  JsonSection json;
  const char* json_key;  // nullptr on kNone and kQuantiles rows
  /// kScalar rows only. A null value leaves the key out of the JSON.
  obs::JsonValue (*value)(const MetricSource&);
  MetricShape shape = MetricShape::kScalar;
  std::array<const char*, 2> labels{};
  obs::Dimension dimension = obs::Dimension::kAlgorithm;  // kStages/kLabelTotals
};

/// Accessors that read one field of the stats, the telemetry snapshot, its
/// rolling window or the options.
template <auto F> obs::JsonValue stats_field(const MetricSource& m) { return m.stats.*F; }
template <auto F> obs::JsonValue telemetry_field(const MetricSource& m) { return m.telemetry.*F; }
template <auto F> obs::JsonValue window_field(const MetricSource& m) { return m.telemetry.window.*F; }
template <auto F> obs::JsonValue options_field(const MetricSource& m) { return m.options.*F; }

/// The telemetry switch. A disabled telemetry layer exports this row and no
/// other `engine_telemetry` key.
inline obs::JsonValue telemetry_enabled(const MetricSource& m) { return m.telemetry.enabled; }

/// Failed query-log writes; the key is present only once one failed.
inline obs::JsonValue log_failures(const MetricSource& m) {
  const std::uint64_t n = m.telemetry.query_log_failures;
  return n != 0 ? obs::JsonValue(n) : obs::JsonValue();
}

// LOTUS-METRIC-INVENTORY-BEGIN
inline constexpr EngineMetric kEngineMetrics[] = {
    {"lotus_engine_queries_submitted_total", "Queries accepted or rejected by submit().",
     MetricType::kCounter, JsonSection::kEngine, "submitted", stats_field<&EngineStats::submitted>},
    {"lotus_engine_queries_completed_total", "Queries that ran to a final status.",
     MetricType::kCounter, JsonSection::kEngine, "completed", stats_field<&EngineStats::completed>},
    {"lotus_engine_queries_rejected_total", "Queries rejected at submit() or orphaned at shutdown.",
     MetricType::kCounter, JsonSection::kEngine, "rejected", stats_field<&EngineStats::rejected>},
    {nullptr, "Whether the telemetry layer records queries.",
     MetricType::kGauge, JsonSection::kTelemetry, "enabled", telemetry_enabled},
    {"lotus_engine_queries_recorded_total", "Completed queries recorded by the telemetry layer.",
     MetricType::kCounter, JsonSection::kTelemetry, "queries_recorded", telemetry_field<&obs::TelemetrySnapshot::queries_recorded>},
    {"lotus_engine_deadline_misses_total", "Completed queries whose deadline expired.",
     MetricType::kCounter, JsonSection::kEngine, "deadline_misses", stats_field<&EngineStats::deadline_misses>},
    {"lotus_engine_cache_lookups_total", "Prepared-graph cache lookups resolved (hits + misses).",
     MetricType::kCounter, JsonSection::kEngine, "cache_lookups", stats_field<&EngineStats::cache_lookups>},
    {"lotus_engine_cache_hits_total", "Lookups served from a cached or in-flight artifact.",
     MetricType::kCounter, JsonSection::kEngine, "cache_hits", stats_field<&EngineStats::cache_hits>},
    {"lotus_engine_cache_misses_total", "Lookups that had to build (or whose build failed).",
     MetricType::kCounter, JsonSection::kEngine, "cache_misses", stats_field<&EngineStats::cache_misses>},
    {"lotus_engine_cache_evictions_total", "LRU evictions plus invalidate() drops.",
     MetricType::kCounter, JsonSection::kEngine, "cache_evictions", stats_field<&EngineStats::cache_evictions>},
    {"lotus_engine_cache_spills_total", "Evicted artifacts persisted to the spill tier.",
     MetricType::kCounter, JsonSection::kEngine, "cache_spills", stats_field<&EngineStats::cache_spills>},
    {"lotus_engine_cache_remaps_total", "Misses served by remapping a spill file.",
     MetricType::kCounter, JsonSection::kEngine, "cache_remaps", stats_field<&EngineStats::cache_remaps>},
    {"lotus_engine_cache_quarantines_total", "Corrupt spill files set aside as .corrupt.",
     MetricType::kCounter, JsonSection::kEngine, "cache_quarantines", stats_field<&EngineStats::cache_quarantines>},
    {"lotus_engine_spill_verify_failures_total", "Spill files that failed checksum verification.",
     MetricType::kCounter, JsonSection::kEngine, "spill_verify_failures", stats_field<&EngineStats::spill_verify_failures>},
    {"lotus_engine_spill_cleanup_failures_total", "Spill-file unlinks that failed (invalidate/shutdown).",
     MetricType::kCounter, JsonSection::kEngine, "spill_cleanup_failures", stats_field<&EngineStats::spill_cleanup_failures>},
    {"lotus_engine_spill_collisions_total", "Spill writes skipped because the target name already existed.",
     MetricType::kCounter, JsonSection::kEngine, "spill_collisions", stats_field<&EngineStats::spill_collisions>},
    {"lotus_engine_cache_entries", "Prepared-graph cache entries currently resident.",
     MetricType::kGauge, JsonSection::kEngine, "cache_entries", stats_field<&EngineStats::cache_entries>},
    {"lotus_engine_cache_bytes", "Bytes currently charged against the cache budget.",
     MetricType::kGauge, JsonSection::kEngine, "cache_bytes", stats_field<&EngineStats::cache_bytes>},
    {nullptr, "Configured cache budget in bytes (0 = unlimited).",
     MetricType::kGauge, JsonSection::kEngine, "cache_budget_bytes", options_field<&EngineOptions::cache_budget_bytes>},
    {"lotus_engine_cache_spilled_entries", "Spill files currently on disk.",
     MetricType::kGauge, JsonSection::kEngine, "cache_spilled_entries", stats_field<&EngineStats::cache_spilled_entries>},
    {"lotus_engine_query_log_lines_total", "Query-log lines written (post-sampling).",
     MetricType::kCounter, JsonSection::kTelemetry, "query_log_lines", telemetry_field<&obs::TelemetrySnapshot::query_log_lines>},
    {nullptr, "Query-log writes that failed.",
     MetricType::kCounter, JsonSection::kTelemetry, "query_log_failures", log_failures},
    {"lotus_engine_uptime_seconds", "Seconds since the engine's telemetry clock started.",
     MetricType::kGauge, JsonSection::kTelemetry, "uptime_s", telemetry_field<&obs::TelemetrySnapshot::uptime_s>},
    {nullptr, "Configured span of the rolling window.",
     MetricType::kGauge, JsonSection::kWindow, "configured_span_s", telemetry_field<&obs::TelemetrySnapshot::window_span_s>},
    {"lotus_engine_window_span_seconds", "Actual span covered by the rolling window.",
     MetricType::kGauge, JsonSection::kWindow, "span_s", window_field<&obs::RollingWindow::Stats::span_s>},
    {"lotus_engine_window_queries", "Queries completed within the rolling window.",
     MetricType::kGauge, JsonSection::kWindow, "queries", window_field<&obs::RollingWindow::Stats::queries>},
    {"lotus_engine_window_qps", "Completed queries per second over the rolling window.",
     MetricType::kGauge, JsonSection::kWindow, "qps", window_field<&obs::RollingWindow::Stats::qps>},
    {"lotus_engine_window_latency_seconds", "End-to-end latency quantiles over the rolling window.",
     MetricType::kGauge, JsonSection::kWindow, nullptr, nullptr,
     MetricShape::kQuantiles, {"quantile"}},
    {"lotus_engine_query_stage_seconds", "Per-stage query latency by algorithm.",
     MetricType::kHistogram, JsonSection::kTelemetry, "histograms", nullptr,
     MetricShape::kStages, {"algorithm", "stage"}, obs::Dimension::kAlgorithm},
    {"lotus_engine_cache_outcome_seconds", "Per-stage query latency by prepared-graph cache outcome.",
     MetricType::kHistogram, JsonSection::kTelemetry, "histograms", nullptr,
     MetricShape::kStages, {"outcome", "stage"}, obs::Dimension::kOutcome},
    {"lotus_engine_analytic_stage_seconds", "Per-stage query latency by analytic kind.",
     MetricType::kHistogram, JsonSection::kTelemetry, "histograms", nullptr,
     MetricShape::kStages, {"analytic", "stage"}, obs::Dimension::kAnalytic},
    {"lotus_engine_analytic_queries_total", "Completed queries by analytic kind.",
     MetricType::kCounter, JsonSection::kNone, nullptr, nullptr,
     MetricShape::kLabelTotals, {"analytic"}, obs::Dimension::kAnalytic},
    {nullptr, "Summed queue wait of completed queries, in seconds.",
     MetricType::kCounter, JsonSection::kEngine, "queue_s_total", stats_field<&EngineStats::queue_s_total>},
    {nullptr, "Summed preprocess seconds (about 0 on hits).",
     MetricType::kCounter, JsonSection::kEngine, "preprocess_s_total", stats_field<&EngineStats::preprocess_s_total>},
    {nullptr, "Summed kernel seconds.",
     MetricType::kCounter, JsonSection::kEngine, "count_s_total", stats_field<&EngineStats::count_s_total>},
};
// LOTUS-METRIC-INVENTORY-END

}  // namespace lotus::tc
