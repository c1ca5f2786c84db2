// Shared scaffolding of the perfbench driver (perfbench/README.md): timing
// statistics, the metric list a run prints, the host stamp, peak-RSS capture,
// the span log of traced runs, the seeded workload generators, and the
// independent reference counter every timed operation is checked against.
//
// Everything here is benchmark-side code. The library is only called through
// its public headers, so the spans recorded below sit at the boundaries of
// the repository's modules.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Median (mean of the middle pair for even sizes); 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

inline void add(std::vector<Metric>& out, std::string name, double value,
                std::string unit) {
  out.push_back({std::move(name), value, std::move(unit)});
}

/// Per-layer metrics (name, unit) of the Engine and analytics layers. Only
/// serve-mix exercises these layers; the cold workloads report them as 0.
inline const std::vector<std::pair<std::string, std::string>> kEngineLayerMetrics = [] {
  std::vector<std::pair<std::string, std::string>> names = {
      {"engine.queue_ms_p50", "ms"}, {"engine.queue_ms_p99", "ms"},
      {"engine.hit_rate", "frac"},   {"engine.builds", "count"},
      {"engine.build_ms_p50", "ms"}, {"engine.overhead_ms_p50", "ms"}};
  for (const char* kind : {"tc-lotus", "tc-forward", "local-counts", "clustering",
                           "kclique4", "ktruss"}) {
    names.emplace_back(std::string("kind.") + kind + ".count_ms_p50", "ms");
    names.emplace_back(std::string("kind.") + kind + ".prepare_ms_p50", "ms");
  }
  return names;
}();

/// Command line of one run (main.cpp documents the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double factor = 0.0;            // 0 = the workload's default scale
  std::string work_dir = ".";     // input files are written here
  bool corrupt_reference = false; // test hook: every check must then fail
  std::uint64_t max_queries = 0;  // serve-mix: stop after this many (0 = off)
};

/// Host and input facts a result is only comparable under (compare.py
/// refuses to compare records whose stamps differ).
struct Stamp {
  unsigned nproc = 0;
  std::uint64_t llc_bytes = 0;
  std::uint64_t input_csr_bytes = 0;
  std::uint64_t input_vertices = 0;
  std::uint64_t input_edges = 0;  // undirected
  std::uint64_t input_fingerprint = 0;
  std::string isa;
  std::string compiler;
  std::string flags;
  int lotus_obs = 0;
  double factor = 0.0;
};

/// What one workload run produced. `metrics` holds the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run); `details` are extra
/// facts for the record file only (sample counts, fail_frac, ...).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  Stamp stamp;
  std::string spans_json = "[]";
};

Outcome run_cold(const Options& options);
Outcome run_serve(const Options& options);

// --- host facts ----------------------------------------------------------

/// Fills the host part of a stamp: nproc (CPUs this process may run on), LLC
/// bytes (highest cache level of cpu0 in sysfs; 0 if unknown), ISA tier,
/// compiler and flags, LOTUS_OBS.
void stamp_host(Stamp& stamp);
/// Adds `graph` to the input part of a stamp (sizes and fingerprint).
void stamp_input(Stamp& stamp, const lotus::graph::CsrGraph& graph);

/// Host-speed probe: a fixed amount of benchmark-side work, the same on every
/// commit (one thread sorts a 256 KiB pseudo-random array 20 times). Returns
/// its wall time.
[[nodiscard]] double calibrate();
/// calibrate()'s time on the reference host (4 vCPUs at 2.0 GHz, 105 MiB
/// L3) in its usual state.
inline constexpr double kCalibrationNominalS = 0.09;

/// Host-speed normalization. The reference host's speed drifts by up to 1.4×
/// over minutes, for single-threaded set-up and memory-bound ops alike, which
/// is more than any metric's bound. A run therefore probes the host with
/// calibrate() many times, spread over the run, and reports every time scaled
/// by kCalibrationNominalS / (median probe): what the work would have taken
/// on the host in its usual state. The raw times go to the record.
class HostClock {
 public:
  /// Take `count` probes now.
  void probe(unsigned count) {
    for (unsigned i = 0; i < count; ++i) probes_.push_back(calibrate());
  }
  /// `raw_s` wall seconds in normalized seconds.
  [[nodiscard]] double normalized(double raw_s) const {
    return raw_s * kCalibrationNominalS / median(probes_);
  }
  [[nodiscard]] const std::vector<double>& probes() const { return probes_; }

 private:
  std::vector<double> probes_;
};

/// Records the probe median and the host speed it implies (nominal ÷ median)
/// in the run's details.
void add_host_details(Outcome& out, const HostClock& clock);

/// Return freed heap memory to the kernel (all malloc arenas), so that the
/// peak-RSS watermark below starts from live memory only.
void release_free_memory();
/// Restart the kernel's peak-RSS watermark at the current RSS.
void reset_peak_rss();
/// Peak resident set since the last reset, in MiB.
[[nodiscard]] double peak_rss_mb();

// --- inputs --------------------------------------------------------------

/// Stand-ins of three registry datasets (src/datasets/registry.cpp) with the
/// registry's generator configuration but the run's seed.
lotus::graph::CsrGraph make_twitter(std::uint64_t seed, double factor);  // Twtr-S
lotus::graph::CsrGraph make_sk(std::uint64_t seed, double factor);       // SK-S
lotus::graph::CsrGraph make_lj(std::uint64_t seed, double factor);       // LJGrp-S

// --- reference answers (no LOTUS, no library kernel) ----------------------

/// Triangle count by a degree-ordered Forward pass written here, on
/// `threads` threads of its own.
[[nodiscard]] std::uint64_t reference_triangles(const lotus::graph::CsrGraph& graph,
                                                unsigned threads);
/// Paths of length two: sum over vertices of C(degree, 2).
[[nodiscard]] std::uint64_t reference_wedges(const lotus::graph::CsrGraph& graph);

// --- traced runs ----------------------------------------------------------

/// In-memory span log: one tree per operation, written out with the record
/// when the run ends.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  /// Record [start, end] under `parent` (-1 = the operation's root); returns
  /// the span's index for use as a later parent.
  int add(std::uint64_t op, const char* name, int parent, Clock::time_point start,
          Clock::time_point end);
  /// Same with offsets in seconds from the log's origin.
  int add_s(std::uint64_t op, const char* name, int parent, double start_s,
            double end_s);
  void set_end(int index, Clock::time_point end) {
    spans_[static_cast<std::size_t>(index)].end_s = since_origin(end);
  }
  [[nodiscard]] double since_origin(Clock::time_point t) const {
    return seconds_between(origin_, t);
  }
  [[nodiscard]] std::string to_json() const;

 private:
  struct Span {
    std::uint64_t op;
    const char* name;
    int parent;
    double start_s;
    double end_s;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// The traced cold op on the LOTUSGR1 file at `path` (load → build → hub →
/// hnn → nnn, one span each), alternated with untraced ops for `seconds`,
/// then one op on 1 thread and one cold Forward op. Appends the io, lotus,
/// parallel and baselines per-layer metrics to `out` — and the trace.*
/// closure metrics when `closure_metrics` — and counts every op it checks.
void trace_lotus_layers(const std::string& path, std::uint64_t expected,
                        std::uint64_t file_bytes, double seconds,
                        bool closure_metrics, Outcome& out, SpanLog& spans);

}  // namespace perfbench
