// MetricsRegistry: one run's observability data behind a versioned schema.
//
// A registry collects the report sections — `meta` (identity: algorithm,
// graph, threads), `metrics` (scalar results: triangles, seconds, rates),
// `hw` (hardware-event source + per-event totals), `spans` (the PhaseTracer
// tree, including per-span event deltas), `counters` (totals + per-thread),
// `resilience` (run status + any budget/fault degradations) and — for runs
// served by tc::Engine, or the engine's own aggregate export — `engine`
// (cache hit/miss/eviction counters and queue/preprocess/count timings),
// plus — for the engine aggregate export only — `engine_telemetry` (latency
// histogram quantiles and rolling-window stats from obs/telemetry.hpp) —
// and exports them as JSON (schema "lotus-metrics/8", specified in
// docs/METRICS.md) or flat CSV. Every bench and the tc_profile example emit
// their numbers through this type, so reports are comparable across
// algorithms and PRs.
//
// Thread-safety: a registry is a single-threaded builder object; assemble it
// on one thread after the parallel work has finished. Exporting does not
// mutate and may be repeated.
//
// Overhead: none on counting paths — a registry only exists at report
// boundaries. Building with LOTUS_OBS=0 leaves this type fully functional;
// the counters section is simply empty (see obs/counters.hpp).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "obs/hwc.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/status.hpp"

namespace lotus::obs {

/// Version tag stamped into every export; bump when the layout or the
/// counter names change (docs/METRICS.md is the changelog).
inline constexpr const char* kMetricsSchemaVersion = "lotus-metrics/8";

/// One graceful-degradation event: at `site` the run switched to a cheaper
/// `action` because of `reason` (e.g. the memory budget or an injected
/// allocation failure). Exported in the `resilience` section so a degraded
/// run is never mistaken for a full-fidelity one.
struct Degradation {
  std::string site;    // where: "lotus", "forward-hashed", "hwc", ...
  std::string action;  // what: "fallback=gap-forward", ...
  std::string reason;  // why: the triggering status/fault message
};

class MetricsRegistry {
 public:
  /// Identity fields ("algorithm", "graph", ...). Insertion-ordered;
  /// re-setting a key overwrites.
  void set_meta(std::string key, JsonValue value);

  /// Scalar results ("triangles", "total_s", ...). Same semantics as meta.
  void set_metric(std::string key, JsonValue value);

  /// Hardware-event section: where the numbers came from (hardware PMU,
  /// the simcache model, or off), the backend tag, and run totals. The
  /// source is stamped so simulated numbers are never mistaken for measured
  /// ones. A registry without this call exports `"hw": {"source": "off"}`.
  void set_hw(EventSource source, std::string backend,
              const EventCounts& events, std::string note = "");

  /// Resilience section (schema v3): the run's final status (ok /
  /// deadline_exceeded / cancelled / ...) and any degradations taken. A
  /// registry without this call exports `"resilience": {"status": "ok"}`.
  void set_resilience(const util::Status& status,
                      std::vector<Degradation> degradations);

  /// Engine section (schema v4): serving-layer fields — cache
  /// hits/misses/evictions, queue/preprocess/count timings — as ordered
  /// key→value pairs (the serving layer owns the field names; this keeps
  /// obs free of a dependency on tc). Exported as `"engine": {...}` only
  /// when set: plain (non-engine) runs omit the section.
  void set_engine(std::vector<std::pair<std::string, JsonValue>> fields);

  /// Engine-telemetry section (schema v5): the serving layer's latency
  /// histograms, rolling-window stats, and query-log counters as an
  /// already-assembled JSON object (the engine owns the layout; this keeps
  /// obs free of a dependency on tc). Exported as `"engine_telemetry":
  /// {...}` only when set — per-query reports omit the section.
  void set_engine_telemetry(JsonValue section);

  /// Attach a counters snapshot (obs::counters_snapshot()).
  void set_counters(CountersSnapshot snapshot);

  /// Attach the span tree (copies the tracer's spans).
  void set_trace(const PhaseTracer& tracer);

  /// Full report as a JSON document (see docs/METRICS.md for the schema).
  [[nodiscard]] JsonValue to_json() const;

  /// to_json() serialized; `indent` as in JsonValue::dump.
  [[nodiscard]] std::string to_json_string(int indent = 2) const;

  /// Flat "section,name,value" rows; spans are path-joined ("count/hnn").
  [[nodiscard]] std::string to_csv() const;

 private:
  std::vector<std::pair<std::string, JsonValue>> meta_;
  std::vector<std::pair<std::string, JsonValue>> metrics_;
  CountersSnapshot counters_;
  bool have_counters_ = false;
  std::vector<PhaseTracer::Span> spans_;
  EventSource hw_source_ = EventSource::kOff;
  std::string hw_backend_;
  EventCounts hw_events_;
  std::string hw_note_;
  util::Status status_;
  std::vector<Degradation> degradations_;
  std::vector<std::pair<std::string, JsonValue>> engine_;
  bool have_engine_ = false;
  JsonValue engine_telemetry_;
  bool have_engine_telemetry_ = false;
};

}  // namespace lotus::obs
