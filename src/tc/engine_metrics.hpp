// The engine metric table: every metric tc::Engine exports, declared once.
// A row carries the Prometheus family (name, help, type, label names), the
// `engine` JSON key and the accessor that reads the value. Row order is the
// Prometheus page order; json_slot orders the `engine` section (the two
// exports predate the table and order their metrics differently). Engine's
// metrics() and prometheus_text() render from the table, and
// scripts/check_docs.sh checks docs/TELEMETRY.md and docs/METRICS.md
// against it. It lives in tc, the layer that emits the names, so obs stays
// tc-free. Thread-safety: immutable; accessors only read their source.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "tc/engine.hpp"

namespace lotus::tc {

enum class MetricType : unsigned char { kCounter, kGauge, kHistogram };

/// How a family's samples are laid out on the Prometheus page.
enum class MetricShape : unsigned char {
  kScalar,       // one unlabelled sample: value()
  kQuantiles,    // one sample per rolling-window quantile
  kStages,       // one histogram per (label, stage) series of `series`
  kLabelTotals,  // one counter per label of `series`: its total-stage count
};

/// One consistent view of the engine: what every accessor reads.
struct MetricSource {
  const EngineStats& stats;
  const obs::TelemetrySnapshot& telemetry;
  const EngineOptions& options;
};

struct EngineMetric {
  const char* family;  // Prometheus family; nullptr = `engine` JSON only
  const char* help;
  MetricType type;
  const char* json_key;  // `engine` JSON key; nullptr = Prometheus only
  int json_slot;         // json_key's position in the `engine` section
  obs::JsonValue (*value)(const MetricSource&);  // kScalar rows only
  MetricShape shape = MetricShape::kScalar;
  std::array<const char*, 2> labels{};
  std::vector<obs::SeriesSnapshot> obs::TelemetrySnapshot::*series = nullptr;
};

/// Accessors that read one field of the stats, the telemetry snapshot, its
/// rolling window or the options.
template <auto F> obs::JsonValue stats_field(const MetricSource& m) { return m.stats.*F; }
template <auto F> obs::JsonValue telemetry_field(const MetricSource& m) { return m.telemetry.*F; }
template <auto F> obs::JsonValue window_field(const MetricSource& m) { return m.telemetry.window.*F; }
template <auto F> obs::JsonValue options_field(const MetricSource& m) { return m.options.*F; }

// LOTUS-METRIC-INVENTORY-BEGIN
inline constexpr EngineMetric kEngineMetrics[] = {
    {"lotus_engine_queries_submitted_total", "Queries accepted or rejected by submit().",
     MetricType::kCounter, "submitted", 0, stats_field<&EngineStats::submitted>},
    {"lotus_engine_queries_completed_total", "Queries that ran to a final status.",
     MetricType::kCounter, "completed", 1, stats_field<&EngineStats::completed>},
    {"lotus_engine_queries_rejected_total", "Queries rejected at submit() or orphaned at shutdown.",
     MetricType::kCounter, "rejected", 2, stats_field<&EngineStats::rejected>},
    {"lotus_engine_queries_recorded_total", "Completed queries recorded by the telemetry layer.",
     MetricType::kCounter, nullptr, -1, telemetry_field<&obs::TelemetrySnapshot::queries_recorded>},
    {"lotus_engine_deadline_misses_total", "Completed queries whose deadline expired.",
     MetricType::kCounter, "deadline_misses", 3, stats_field<&EngineStats::deadline_misses>},
    {"lotus_engine_cache_lookups_total", "Prepared-graph cache lookups resolved (hits + misses).",
     MetricType::kCounter, "cache_lookups", 4, stats_field<&EngineStats::cache_lookups>},
    {"lotus_engine_cache_hits_total", "Lookups served from a cached or in-flight artifact.",
     MetricType::kCounter, "cache_hits", 5, stats_field<&EngineStats::cache_hits>},
    {"lotus_engine_cache_misses_total", "Lookups that had to build (or whose build failed).",
     MetricType::kCounter, "cache_misses", 6, stats_field<&EngineStats::cache_misses>},
    {"lotus_engine_cache_evictions_total", "LRU evictions plus invalidate() drops.",
     MetricType::kCounter, "cache_evictions", 7, stats_field<&EngineStats::cache_evictions>},
    {"lotus_engine_cache_spills_total", "Evicted artifacts persisted to the spill tier.",
     MetricType::kCounter, "cache_spills", 11, stats_field<&EngineStats::cache_spills>},
    {"lotus_engine_cache_remaps_total", "Misses served by remapping a spill file.",
     MetricType::kCounter, "cache_remaps", 12, stats_field<&EngineStats::cache_remaps>},
    {"lotus_engine_cache_quarantines_total", "Corrupt spill files set aside as .corrupt.",
     MetricType::kCounter, "cache_quarantines", 15, stats_field<&EngineStats::cache_quarantines>},
    {"lotus_engine_spill_verify_failures_total", "Spill files that failed checksum verification.",
     MetricType::kCounter, "spill_verify_failures", 14, stats_field<&EngineStats::spill_verify_failures>},
    {"lotus_engine_spill_cleanup_failures_total", "Spill-file unlinks that failed (invalidate/shutdown).",
     MetricType::kCounter, "spill_cleanup_failures", 16, stats_field<&EngineStats::spill_cleanup_failures>},
    {"lotus_engine_spill_collisions_total", "Spill writes skipped because the target name already existed.",
     MetricType::kCounter, "spill_collisions", 17, stats_field<&EngineStats::spill_collisions>},
    {"lotus_engine_cache_entries", "Prepared-graph cache entries currently resident.",
     MetricType::kGauge, "cache_entries", 8, stats_field<&EngineStats::cache_entries>},
    {"lotus_engine_cache_bytes", "Bytes currently charged against the cache budget.",
     MetricType::kGauge, "cache_bytes", 9, stats_field<&EngineStats::cache_bytes>},
    {nullptr, "Configured cache budget in bytes (0 = unlimited).",
     MetricType::kGauge, "cache_budget_bytes", 10, options_field<&EngineOptions::cache_budget_bytes>},
    {"lotus_engine_cache_spilled_entries", "Spill files currently on disk.",
     MetricType::kGauge, "cache_spilled_entries", 13, stats_field<&EngineStats::cache_spilled_entries>},
    {"lotus_engine_query_log_lines_total", "Query-log lines written (post-sampling).",
     MetricType::kCounter, nullptr, -1, telemetry_field<&obs::TelemetrySnapshot::query_log_lines>},
    {"lotus_engine_uptime_seconds", "Seconds since the engine's telemetry clock started.",
     MetricType::kGauge, nullptr, -1, telemetry_field<&obs::TelemetrySnapshot::uptime_s>},
    {"lotus_engine_window_span_seconds", "Actual span covered by the rolling window.",
     MetricType::kGauge, nullptr, -1, window_field<&obs::RollingWindow::Stats::span_s>},
    {"lotus_engine_window_queries", "Queries completed within the rolling window.",
     MetricType::kGauge, nullptr, -1, window_field<&obs::RollingWindow::Stats::queries>},
    {"lotus_engine_window_qps", "Completed queries per second over the rolling window.",
     MetricType::kGauge, nullptr, -1, window_field<&obs::RollingWindow::Stats::qps>},
    {"lotus_engine_window_latency_seconds", "End-to-end latency quantiles over the rolling window.",
     MetricType::kGauge, nullptr, -1, nullptr,
     MetricShape::kQuantiles, {"quantile"}},
    {"lotus_engine_query_stage_seconds", "Per-stage query latency by algorithm.",
     MetricType::kHistogram, nullptr, -1, nullptr,
     MetricShape::kStages, {"algorithm", "stage"}, &obs::TelemetrySnapshot::algorithms},
    {"lotus_engine_cache_outcome_seconds", "Per-stage query latency by prepared-graph cache outcome.",
     MetricType::kHistogram, nullptr, -1, nullptr,
     MetricShape::kStages, {"outcome", "stage"}, &obs::TelemetrySnapshot::outcomes},
    {"lotus_engine_analytic_stage_seconds", "Per-stage query latency by analytic kind.",
     MetricType::kHistogram, nullptr, -1, nullptr,
     MetricShape::kStages, {"analytic", "stage"}, &obs::TelemetrySnapshot::analytics},
    {"lotus_engine_analytic_queries_total", "Completed queries by analytic kind.",
     MetricType::kCounter, nullptr, -1, nullptr,
     MetricShape::kLabelTotals, {"analytic"}, &obs::TelemetrySnapshot::analytics},
    {nullptr, "Summed queue wait of completed queries, in seconds.",
     MetricType::kCounter, "queue_s_total", 18, stats_field<&EngineStats::queue_s_total>},
    {nullptr, "Summed preprocess seconds (about 0 on hits).",
     MetricType::kCounter, "preprocess_s_total", 19, stats_field<&EngineStats::preprocess_s_total>},
    {nullptr, "Summed kernel seconds.",
     MetricType::kCounter, "count_s_total", 20, stats_field<&EngineStats::count_s_total>},
};
// LOTUS-METRIC-INVENTORY-END

/// Keys in the `engine` JSON section; json_slot runs over [0, this).
inline constexpr std::size_t kEngineJsonKeys = static_cast<std::size_t>(
    std::ranges::count_if(kEngineMetrics,
                          [](const EngineMetric& m) { return m.json_key; }));

}  // namespace lotus::tc
