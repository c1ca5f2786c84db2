// bench_snapshot: the fixed regression suite behind scripts/bench_snapshot.sh.
//
// Runs a pinned set of measurements — fig1-style counting rates over the
// paper comparators, the fig6 phase breakdown, thread scaling at fixed
// thread counts, the tc::Engine cache-hit serving scenario, the analytics
// prepare-amortization scenario (five analytic kinds over one cached
// artifact), the serving telemetry overhead gate (docs/TELEMETRY.md), and
// the per-kernel SIMD
// dispatch microbenchmarks (docs/KERNELS.md) — on pinned
// synthetic inputs, and emits them as a versioned
// "lotus-bench/2" JSON snapshot. With --compare, a previous snapshot is
// loaded instead-of-trusted and every metric is checked against the new run:
// directional metrics ("better": higher|lower) flag only harmful moves
// beyond --threshold; neutral metrics ("better": none, e.g. triangle counts)
// flag any relative change beyond it. Exit codes: 0 clean, 1 regression or
// metric-set mismatch, 2 usage/IO error.
//
// Keys are pinned (datasets, algorithms, thread counts) so snapshots from
// different machines always have the same metric set; values differ, keys
// never. The one exception is the "kernels.<tier>.*" family, whose tiers
// depend on the host ISA — those metrics carry "optional": true, and a
// baseline entry missing from the current run is skipped (with a note)
// instead of failing the compare, so snapshots stay portable across ISAs
// while same-tier comparisons stay strict. Timings are best-of-N (--repeat)
// to damp scheduler noise, except the ratios: the kernel speedups and the
// verify and telemetry overhead gates are the median of paired,
// order-alternating rounds (paired_median_ratio).
#include <algorithm>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <functional>
#include <set>

#include "bench/common.hpp"
#include "graph/io.hpp"
#include "graph/oocore.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/isa.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "tc/api.hpp"
#include "tc/engine.hpp"
#include "util/prng.hpp"

namespace {

using lotus::obs::JsonValue;

constexpr const char* kBenchSchemaVersion = "lotus-bench/2";

struct Suite {
  std::vector<std::string> datasets;
  std::vector<unsigned> scaling_threads;
  double factor = 0.25;
  int repeat = 3;
  std::size_t kernel_len = 4096;  // elements/words per kernel input
  int kernel_iters = 2000;        // kernel calls per timed sample
};

Suite smoke_suite() { return {{"Twtr-S", "SK-S"}, {1, 2}, 0.05, 3, 1024, 500}; }
Suite full_suite() {
  return {{"Twtr-S", "SK-S", "LJGrp-S"}, {1, 2, 4}, 0.25, 3, 4096, 2000};
}

JsonValue metric(double value, const char* unit, const char* better) {
  JsonValue m;
  m.set("value", value);
  m.set("unit", unit);
  m.set("better", better);
  return m;
}

JsonValue metric(std::uint64_t value, const char* unit, const char* better) {
  JsonValue m;
  m.set("value", value);
  m.set("unit", unit);
  m.set("better", better);
  return m;
}

/// Host-dependent metric: present only on machines that support its ISA
/// tier; --compare skips (rather than fails) a baseline entry carrying this
/// flag when the current run lacks the key.
JsonValue optional_metric(double value, const char* unit, const char* better) {
  JsonValue m = metric(value, unit, better);
  m.set("optional", true);
  return m;
}

/// Median over `rounds` of numerator() / denominator(), two timed samples.
/// Each round takes both back to back and alternates which goes first, so
/// a slow stretch of the host lands inside one round's pair instead of on
/// one side of the comparison, and neither side always pays the warm-up.
/// An odd `rounds` makes the median one round's ratio.
template <typename Num, typename Den>
double paired_median_ratio(int rounds, Num&& numerator, Den&& denominator) {
  std::vector<double> ratios;
  for (int r = 0; r < rounds; ++r) {
    const bool numerator_first = r % 2 == 0;
    const double first = numerator_first ? numerator() : denominator();
    const double second = numerator_first ? denominator() : numerator();
    const double num_s = numerator_first ? first : second;
    const double den_s = numerator_first ? second : first;
    if (den_s > 0.0) ratios.push_back(num_s / den_s);
  }
  if (ratios.empty()) return 0.0;
  const auto mid = ratios.begin() + static_cast<std::ptrdiff_t>(ratios.size() / 2);
  std::nth_element(ratios.begin(), mid, ratios.end());
  return *mid;
}

/// Best-of-N run: keep the fastest total time (rates follow from it).
lotus::tc::RunResult best_run(lotus::tc::Algorithm algorithm,
                              const lotus::graph::CsrGraph& graph,
                              const lotus::core::LotusConfig& config,
                              int repeat) {
  lotus::tc::RunResult best;
  for (int i = 0; i < repeat; ++i) {
    const auto r = lotus::bench::count(algorithm, graph, config);
    if (i == 0 || r.total_s() < best.total_s()) best = r;
  }
  return best;
}

/// The engine scenario's pinned query mix: both artifact families over one
/// graph key, so exactly two queries build (one lotus artifact, one oriented
/// CSR) and the other ten must hit the prepared-graph cache.
std::vector<lotus::tc::Algorithm> engine_mix() {
  std::vector<lotus::tc::Algorithm> mix;
  for (int i = 0; i < 6; ++i) {
    mix.push_back(lotus::tc::Algorithm::kLotus);
    mix.push_back(lotus::tc::Algorithm::kForwardMerge);
  }
  return mix;
}

/// engine: repeated-query serving vs cold per-query runs — the regression
/// guard on the prepared-graph cache (docs/API.md). Emits the deterministic
/// cache-hit rate and the warm-over-cold speedup.
void engine_metrics(JsonValue& metrics, const std::string& name,
                    const lotus::graph::CsrGraph& graph,
                    const lotus::core::LotusConfig& config) {
  const auto mix = engine_mix();

  lotus::util::Timer cold_timer;
  std::uint64_t cold_triangles = 0;
  double cold_preprocess_s = 0.0;
  for (const auto algorithm : mix) {
    const auto r = lotus::bench::count(algorithm, graph, config);
    cold_triangles = r.triangles;
    cold_preprocess_s += r.preprocess_s;
  }
  const double cold_s = cold_timer.elapsed_s();

  lotus::tc::EngineOptions engine_options;
  engine_options.num_drivers = 2;
  double warm_s = 0.0;
  lotus::tc::EngineStats stats;
  {
    lotus::tc::Engine engine(engine_options);
    lotus::tc::QueryOptions options;
    options.config = config;
    lotus::util::Timer warm_timer;
    std::vector<std::future<lotus::util::Expected<lotus::tc::QueryResult>>>
        futures;
    futures.reserve(mix.size());
    for (const auto algorithm : mix)
      futures.push_back(
          engine.submit({algorithm, "snapshot:" + name, &graph, options}));
    for (auto& future : futures) {
      auto r = future.get();
      if (!r.ok()) throw std::runtime_error(r.status().message());
      if (!r.value().ok())
        throw std::runtime_error(r.value().status.message());
      if (r.value().result.triangles != cold_triangles)
        throw std::runtime_error("engine count mismatch on " + name);
    }
    warm_s = warm_timer.elapsed_s();
    stats = engine.stats();
  }

  const double lookups =
      static_cast<double>(stats.cache_hits + stats.cache_misses);
  metrics.set("engine." + name + ".cache_hit_rate",
              metric(lookups > 0
                         ? static_cast<double>(stats.cache_hits) / lookups
                         : 0.0,
                     "fraction", "none"));
  metrics.set("engine." + name + ".warm_speedup",
              metric(warm_s > 0.0 ? cold_s / warm_s : 0.0, "x", "higher"));
  // The cache's own axis: total preprocessing paid cold vs through the
  // engine (the two builds). Deterministically ~mix-size/2 regardless of
  // core count, where wall speedup also depends on concurrency.
  metrics.set("engine." + name + ".preprocess_amortization",
              metric(stats.preprocess_s_total > 0.0
                         ? cold_preprocess_s / stats.preprocess_s_total
                         : 0.0,
                     "x", "higher"));
}

/// analytics: the one-prepared-graph-many-analytics serving scenario
/// (docs/API.md). All five analytic kinds run through one engine on the
/// forward-merge substrate, so every kind resolves to the same oriented-CSR
/// artifact: deterministically one build, four hits. Emits the cache-hit
/// rate and the prepare-amortization ratio (preprocessing paid by five cold
/// tc::query calls over preprocessing paid through the engine).
void analytics_metrics(JsonValue& metrics, const std::string& name,
                       const lotus::graph::CsrGraph& graph) {
  namespace tc = lotus::tc;
  std::vector<tc::AnalyticsRequest> kinds(5);
  kinds[0].kind = tc::AnalyticKind::kTriangles;
  kinds[1].kind = tc::AnalyticKind::kKClique;
  kinds[1].k = 4;
  kinds[2].kind = tc::AnalyticKind::kKTruss;
  kinds[3].kind = tc::AnalyticKind::kLocalCounts;
  kinds[4].kind = tc::AnalyticKind::kClustering;
  for (auto& request : kinds)
    request.granularity = tc::OutputGranularity::kSummary;

  double cold_preprocess_s = 0.0;
  std::uint64_t cold_triangles = 0;
  for (const auto& request : kinds) {
    tc::QueryOptions options;
    options.analytic = request;
    const auto r = tc::query(tc::Algorithm::kForwardMerge, graph, options);
    if (!r.ok()) throw std::runtime_error(r.status().message());
    if (!r.value().ok()) throw std::runtime_error(r.value().status.message());
    cold_preprocess_s += r.value().result.preprocess_s;
    if (request.kind == tc::AnalyticKind::kTriangles)
      cold_triangles = r.value().result.triangles;
  }

  lotus::tc::EngineOptions engine_options;
  engine_options.num_drivers = 1;  // deterministic build/hit sequence
  lotus::tc::Engine engine(engine_options);
  for (const auto& request : kinds) {
    tc::QuerySpec spec;
    spec.algorithm = tc::Algorithm::kForwardMerge;
    spec.graph_key = "analytics:" + name;
    spec.graph = &graph;
    spec.options.analytic = request;
    auto r = engine.query(spec);
    if (!r.ok()) throw std::runtime_error(r.status().message());
    if (!r.value().ok()) throw std::runtime_error(r.value().status.message());
    // Cross-kind consistency: every triangle-shaped analytic must agree
    // with the plain count.
    if ((request.kind == tc::AnalyticKind::kTriangles ||
         request.kind == tc::AnalyticKind::kLocalCounts ||
         request.kind == tc::AnalyticKind::kClustering) &&
        r.value().result.triangles != cold_triangles)
      throw std::runtime_error("analytics count mismatch on " + name);
  }
  const auto stats = engine.stats();
  const double lookups =
      static_cast<double>(stats.cache_hits + stats.cache_misses);
  metrics.set("analytics." + name + ".cache_hit_rate",
              metric(lookups > 0
                         ? static_cast<double>(stats.cache_hits) / lookups
                         : 0.0,
                     "fraction", "none"));
  metrics.set("analytics." + name + ".prepare_amortization",
              metric(stats.preprocess_s_total > 0.0
                         ? cold_preprocess_s / stats.preprocess_s_total
                         : 0.0,
                     "x", "higher"));
}

/// oocore: the out-of-core pipeline (docs/OUT_OF_CORE.md) against its
/// in-memory equivalents, on an artifact staged in the temp directory.
/// Emits (a) cold-start time-to-first-count of the mmap path relative to the
/// heap loader (neutral: mmap trades load time for page faults during the
/// count), (b) external-build throughput from a text edge list, and (c) the
/// engine spill tier's deterministic remap rate plus how much cheaper a
/// remap is than the build it replaces.
void oocore_metrics(JsonValue& metrics, const std::string& name,
                    const lotus::graph::CsrGraph& graph,
                    const lotus::core::LotusConfig& config, int repeat) {
  namespace fs = std::filesystem;
  namespace oo = lotus::graph::oocore;
  const fs::path dir = fs::temp_directory_path() / "lotus_bench_oocore";
  fs::create_directories(dir);
  const std::string csx = (dir / (name + ".bin")).string();
  const lotus::util::Status written = lotus::graph::write_csr_binary_s(csx, graph);
  if (!written.ok()) throw std::runtime_error(written.message());

  // Cold start: disk artifact -> one forward-merge count, best-of-N.
  double heap_s = 0.0;
  double mmap_s = 0.0;
  std::uint64_t heap_triangles = 0;
  std::uint64_t mmap_triangles = 1;
  for (int i = 0; i < repeat; ++i) {
    {
      lotus::util::Timer timer;
      auto loaded = lotus::graph::read_csr_binary_s(csx);
      if (!loaded.ok()) throw std::runtime_error(loaded.status().message());
      heap_triangles = lotus::bench::count(lotus::tc::Algorithm::kForwardMerge,
                                           loaded.value(), config)
                           .triangles;
      const double s = timer.elapsed_s();
      if (i == 0 || s < heap_s) heap_s = s;
    }
    {
      lotus::util::Timer timer;
      auto mapped = oo::read_csr_mapped_s(csx);
      if (!mapped.ok()) throw std::runtime_error(mapped.status().message());
      mmap_triangles = lotus::bench::count(lotus::tc::Algorithm::kForwardMerge,
                                           mapped.value(), config)
                           .triangles;
      const double s = timer.elapsed_s();
      if (i == 0 || s < mmap_s) mmap_s = s;
    }
  }
  if (heap_triangles != mmap_triangles)
    throw std::runtime_error("oocore mmap count mismatch on " + name);
  metrics.set("oocore." + name + ".cold_start_speedup",
              metric(mmap_s > 0.0 ? heap_s / mmap_s : 0.0, "x", "none"));

  // Eager footer verification vs MapVerify::kOff on the same mapped
  // load+count. The verify pass is one sequential checksum sweep that
  // doubles as readahead, so the end-to-end overhead must stay under 5% —
  // a hard gate on the paired median, retried like the telemetry one;
  // throws only when the final attempt fails. Each attempt first maps the
  // file and counts once, holding that mapping, so no timed pass pays for
  // cold page cache; a timed sample is kPasses mapped load+count passes,
  // long enough that scheduler noise in one short pass does not decide a
  // round.
  constexpr int kPasses = 8;
  const auto mapped_count = [&](oo::MapVerify verify) {
    auto mapped = oo::read_csr_mapped_s(csx, verify);
    if (!mapped.ok()) throw std::runtime_error(mapped.status().message());
    const auto got = lotus::bench::count(lotus::tc::Algorithm::kForwardMerge,
                                         mapped.value(), config)
                         .triangles;
    if (got != heap_triangles)
      throw std::runtime_error("oocore verify count mismatch on " + name);
    return mapped.take();
  };
  const auto mapped_count_s = [&](oo::MapVerify verify) {
    lotus::util::Timer timer;
    for (int pass = 0; pass < kPasses; ++pass) mapped_count(verify);
    return timer.elapsed_s();
  };
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto warm = mapped_count(oo::MapVerify::kEager);
    const double overhead =
        paired_median_ratio(
            2 * repeat + 1, [&] { return mapped_count_s(oo::MapVerify::kEager); },
            [&] { return mapped_count_s(oo::MapVerify::kOff); }) -
        1.0;
    if (overhead < 0.05) {
      metrics.set("oocore." + name + ".verify_overhead_frac",
                  metric(std::max(overhead, 0.0), "fraction", "lower"));
      break;
    }
    if (attempt == 2)
      throw std::runtime_error(
          "oocore." + name + ".verify_overhead_frac gate failed: median " +
          std::to_string(100.0 * overhead) + "% >= 5% on three attempts");
  }

  // External build: text edge list -> symmetric CSX under the default sort
  // budget, reported as undirected input edges per second.
  const std::string el = (dir / (name + ".el")).string();
  {
    lotus::graph::EdgeList edges;
    edges.num_vertices = graph.num_vertices();
    for (lotus::graph::VertexId u = 0; u < graph.num_vertices(); ++u)
      for (const lotus::graph::VertexId v : graph.neighbors(u))
        if (u < v) edges.edges.push_back({u, v});
    const lotus::util::Status status = lotus::graph::write_edge_list_text_s(el, edges);
    if (!status.ok()) throw std::runtime_error(status.message());
  }
  double build_s = 0.0;
  for (int i = 0; i < repeat; ++i) {
    lotus::util::Timer timer;
    const auto rebuilt = oo::build_undirected_external_s(el);
    if (!rebuilt.ok()) throw std::runtime_error(rebuilt.status().message());
    const double s = timer.elapsed_s();
    if (i == 0 || s < build_s) build_s = s;
  }
  metrics.set("oocore." + name + ".external_build_edges_per_s",
              metric(lotus::tc::edges_per_s(graph.num_edges() / 2, build_s),
                     "edges/s", "higher"));

  // Spill tier: a 1-byte cache budget makes every artifact oversized, so the
  // pinned mix {lotus, forward} x3 deterministically builds twice, spills
  // twice, remaps twice, then hits the (zero-charge) remapped entries twice.
  {
    lotus::tc::EngineOptions engine_options;
    engine_options.num_drivers = 1;
    engine_options.cache_budget_bytes = 1;
    engine_options.spill_dir = dir.string();
    lotus::tc::Engine engine(engine_options);
    lotus::tc::QueryOptions options;
    options.config = config;
    double build_preprocess_s = 0.0;
    double remap_preprocess_s = 0.0;
    int round = 0;
    for (const auto algorithm :
         {lotus::tc::Algorithm::kLotus, lotus::tc::Algorithm::kForwardMerge,
          lotus::tc::Algorithm::kLotus, lotus::tc::Algorithm::kForwardMerge,
          lotus::tc::Algorithm::kLotus, lotus::tc::Algorithm::kForwardMerge}) {
      auto r = engine.query({algorithm, "oocore:" + name, &graph, options});
      if (!r.ok()) throw std::runtime_error(r.status().message());
      if (!r.value().ok()) throw std::runtime_error(r.value().status.message());
      if (r.value().result.triangles != heap_triangles)
        throw std::runtime_error("oocore engine count mismatch on " + name);
      if (round < 2)
        build_preprocess_s += r.value().result.preprocess_s;
      else if (round < 4)
        remap_preprocess_s += r.value().result.preprocess_s;
      ++round;
    }
    const auto stats = engine.stats();
    const double lookups =
        static_cast<double>(stats.cache_misses + stats.cache_remaps);
    metrics.set("oocore." + name + ".spill_remap_rate",
                metric(lookups > 0.0
                           ? static_cast<double>(stats.cache_remaps) / lookups
                           : 0.0,
                       "fraction", "none"));
    metrics.set("oocore." + name + ".remap_speedup",
                metric(remap_preprocess_s > 0.0
                           ? build_preprocess_s / remap_preprocess_s
                           : 0.0,
                       "x", "higher"));
  }
  fs::remove_all(dir);
}

/// telemetry: the serving-telemetry regression guard (docs/TELEMETRY.md).
/// Each attempt builds one engine with telemetry enabled and one with it
/// disabled, warms both, then replays the pinned engine mix on each (the
/// median of paired, order-alternating rounds) and gates the end-to-end
/// overhead at < 2%. A timed sample is kRounds mix replays, long enough that
/// scheduler noise in one short query does not decide a round.
/// The gate is the throw, not the snapshot compare: a noisy host gets three
/// attempts, and only "every attempt over the gate" is a hard failure. The
/// exported overhead_frac is clamped at 0 (warm replays routinely time the
/// instrumented run faster than the bare one), and export_bytes tracks the
/// Prometheus exposition size so export bloat shows up in review.
void telemetry_metrics(JsonValue& metrics, const std::string& name,
                       const lotus::graph::CsrGraph& graph,
                       const lotus::core::LotusConfig& config, int repeat) {
  const auto mix = engine_mix();
  constexpr int kRounds = 16;  // mix replays per timed sample
  lotus::tc::QueryOptions options;
  options.config = config;

  const auto replay_s = [&](lotus::tc::Engine& engine, int rounds) {
    lotus::util::Timer timer;
    std::vector<std::future<lotus::util::Expected<lotus::tc::QueryResult>>>
        futures;
    futures.reserve(mix.size() * static_cast<std::size_t>(rounds));
    for (int round = 0; round < rounds; ++round)
      for (const auto algorithm : mix)
        futures.push_back(
            engine.submit({algorithm, "telemetry:" + name, &graph, options}));
    for (auto& future : futures) {
      auto r = future.get();
      if (!r.ok()) throw std::runtime_error(r.status().message());
      if (!r.value().ok()) throw std::runtime_error(r.value().status.message());
    }
    return timer.elapsed_s();
  };
  const auto warm_engine = [&](bool enabled) {
    lotus::tc::EngineOptions engine_options;
    engine_options.num_drivers = 2;
    engine_options.telemetry.enabled = enabled;
    auto engine = std::make_unique<lotus::tc::Engine>(engine_options);
    // Warm pass: both artifact families get built and cached outside the
    // timed section, so the measurement is serving overhead, not builds.
    replay_s(*engine, 1);
    return engine;
  };

  constexpr double kOverheadGate = 0.02;
  double overhead = 0.0;
  std::size_t export_bytes = 0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto on = warm_engine(true);
    const auto off = warm_engine(false);
    overhead = paired_median_ratio(
                   2 * repeat + 1, [&] { return replay_s(*on, kRounds); },
                   [&] { return replay_s(*off, kRounds); }) -
               1.0;
    export_bytes = on->prometheus_text().size();
    if (overhead < kOverheadGate) break;
    if (attempt == 2)
      throw std::runtime_error(
          "telemetry." + name + " overhead gate failed: " +
          std::to_string(100.0 * overhead) + "% >= 2% on three attempts");
  }
  metrics.set("telemetry." + name + ".overhead_frac",
              metric(std::max(overhead, 0.0), "fraction", "lower"));
  metrics.set("telemetry." + name + ".export_bytes",
              metric(static_cast<std::uint64_t>(export_bytes), "bytes",
                     "none"));
}

/// The raw record() hot path, no engine in the way: one standalone Telemetry
/// with the Engine's three dimensions, 200k samples across two algorithms,
/// two outcomes and two analytic kinds, reported as ns per record.
void telemetry_record_metrics(JsonValue& metrics, int repeat) {
  namespace obs = lotus::obs;
  constexpr int kOps = 200000;
  obs::Telemetry telemetry(obs::TelemetryOptions{},
                           lotus::tc::algorithm_labels(),
                           lotus::tc::analytic_labels());
  obs::QuerySample sample;
  sample.graph_key = "bench";
  sample.status = "ok";
  sample.threads = 1;
  double best_s = 0.0;
  for (int r = 0; r < repeat; ++r) {
    lotus::util::Timer timer;
    for (int i = 0; i < kOps; ++i) {
      sample.algorithm = static_cast<std::size_t>(i & 1);
      sample.analytic = static_cast<std::size_t>((i >> 1) & 1);
      sample.outcome = (i & 1) != 0 ? obs::CacheOutcome::kHit
                                    : obs::CacheOutcome::kMiss;
      sample.queue_ns = static_cast<std::uint64_t>(100 + (i & 1023));
      sample.prepare_ns = 0;
      sample.count_ns = static_cast<std::uint64_t>(5000 + (i & 4095));
      sample.total_ns = sample.queue_ns + sample.count_ns;
      telemetry.record(sample);
    }
    const double s = timer.elapsed_s();
    if (r == 0 || s < best_s) best_s = s;
  }
  metrics.set("telemetry.record_ns_per_op",
              metric(best_s * 1e9 / kOps, "ns", "lower"));
}

// Defeats dead-code elimination of the timed kernel loops; function-pointer
// calls are opaque to the optimizer already, this is belt and braces.
volatile std::uint64_t g_kernel_sink = 0;

/// kernels: per-kernel microbenchmark of every supported dispatch tier
/// against the scalar reference table, on pinned synthetic inputs. Each
/// measurement first checks the tier's count against scalar (a forced-ISA
/// consistency check — a wrong count is a hard error, not a slow metric),
/// then emits "kernels.<tier>.<kernel>.speedup", the median ratio of paired
/// rounds. merge_u32 is timed three ways: counting, as "merge_u32.short"
/// counting a fixed pool of 1–16-entry pairs (the NNN phase's list sizes),
/// and as "merge_u32.positions" reporting both lists' positions (the
/// triangle walks' mode), whose result folds every position so the scalar
/// check covers them. Every entry the AVX-512 table overrides also gets
/// "kernels.avx512.<kernel>.speedup_over_avx2", measured the same way
/// against the AVX2 body. AVX2 hosts additionally gate the median merge_u32
/// speedup at >= 1.5x, the floor the vectorized merge must clear for the
/// dispatch layer to pay for itself (docs/KERNELS.md); hosts without AVX2
/// skip the gate (and the metric) entirely.
void kernels_metrics(JsonValue& metrics, const Suite& suite) {
  namespace k = lotus::kernels;
  lotus::util::Xoshiro256 rng(4242);
  const std::size_t len = suite.kernel_len;

  // Sorted-unique lists with ~1-in-3 overlap.
  const auto make_u32 = [&rng](std::size_t n, std::uint64_t universe) {
    std::set<std::uint32_t> s;
    while (s.size() < n)
      s.insert(static_cast<std::uint32_t>(rng.next_below(universe)));
    return std::vector<std::uint32_t>(s.begin(), s.end());
  };
  const auto a32 = make_u32(len, 3 * len);
  const auto b32 = make_u32(len, 3 * len);
  // A fixed pool of short pairs, 1–16 entries a side (the NNN phase's lists
  // hold about 8), flattened: pair p is short_a[off_a[p]..off_a[p + 1]) and
  // short_b[off_b[p]..off_b[p + 1]).
  constexpr std::size_t kShortPairs = 512;
  std::vector<std::uint32_t> short_a, short_b;
  std::vector<std::size_t> off_a{0}, off_b{0};
  for (std::size_t p = 0; p < kShortPairs; ++p) {
    const std::size_t na = 1 + rng.next_below(16);
    const std::size_t nb = 1 + rng.next_below(16);
    const std::uint64_t universe = 3 * std::max(na, nb);
    for (const std::uint32_t x : make_u32(na, universe)) short_a.push_back(x);
    for (const std::uint32_t x : make_u32(nb, universe)) short_b.push_back(x);
    off_a.push_back(short_a.size());
    off_b.push_back(short_b.size());
  }
  std::vector<std::uint64_t> words(len);
  for (auto& w : words) w = rng();
  const auto keys = make_u32(len, 64 * len);

  struct TimedKernel {
    const char* name;
    std::function<std::uint64_t(const k::KernelTable&)> once;
    // True when two tables run the same body for this entry.
    std::function<bool(const k::KernelTable&, const k::KernelTable&)> same;
  };
  // merge_u32's position outputs (min(|a|, |b|) + kMergeSlack slots each).
  std::vector<std::uint32_t> at_a(len + k::kMergeSlack), at_b(len + k::kMergeSlack);
  const auto same_merge = [](const k::KernelTable& x, const k::KernelTable& y) {
    return x.merge_u32 == y.merge_u32;
  };
  const std::vector<TimedKernel> kernels = {
      {"merge_u32",
       [&](const k::KernelTable& t) {
         return t.merge_u32(a32.data(), a32.size(), b32.data(), b32.size(),
                            nullptr, nullptr);
       },
       same_merge},
      {"merge_u32.short",
       [&](const k::KernelTable& t) {
         std::uint64_t hits = 0;
         for (std::size_t p = 0; p < kShortPairs; ++p)
           hits += t.merge_u32(
               short_a.data() + off_a[p], off_a[p + 1] - off_a[p],
               short_b.data() + off_b[p], off_b[p + 1] - off_b[p], nullptr,
               nullptr);
         return hits;
       },
       same_merge},
      {"merge_u32.positions",
       [&](const k::KernelTable& t) {
         // Every reported position pair goes into the result, weighted by
         // its rank, so the scalar check covers the positions and their
         // order; the fold vectorizes and is small next to the merge.
         const std::uint64_t hits =
             t.merge_u32(a32.data(), a32.size(), b32.data(), b32.size(),
                         at_a.data(), at_b.data());
         std::uint64_t folded = hits;
         for (std::uint64_t i = 0; i < hits; ++i)
           folded += (i + 1) * (std::uint64_t{at_a[i]} << 20 ^ at_b[i]);
         return folded;
       },
       same_merge},
      {"hits_bitset",
       [&](const k::KernelTable& t) {
         return t.hits_bitset(keys.data(), keys.size(), words.data());
       },
       [](const k::KernelTable& x, const k::KernelTable& y) {
         return x.hits_bitset == y.hits_bitset;
       }},
      {"checksum_stripes",
       [&](const k::KernelTable& t) {
         // The words as len / 8 stripes; every lane of the state goes into
         // the result, so the scalar check is lane-exact.
         std::uint64_t acc[8] = {};
         t.checksum_stripes(acc,
                            reinterpret_cast<const unsigned char*>(words.data()),
                            len / 8);
         std::uint64_t folded = 0;
         for (const std::uint64_t lane : acc)
           folded = folded * 0x9E3779B97F4A7C15ULL + lane;
         return folded;
       },
       [](const k::KernelTable& x, const k::KernelTable& y) {
         return x.checksum_stripes == y.checksum_stripes;
       }},
  };

  // One sample: kernel_iters calls through one table.
  const auto sample = [&](const TimedKernel& kernel,
                          const k::KernelTable& table) {
    lotus::util::Timer timer;
    std::uint64_t sink = 0;
    for (int i = 0; i < suite.kernel_iters; ++i) sink += kernel.once(table);
    const double s = timer.elapsed_s();
    g_kernel_sink = sink;
    return s;
  };
  // Speedup of `table` over `base`.
  const auto median_speedup = [&](const TimedKernel& kernel,
                                  const k::KernelTable& base,
                                  const k::KernelTable& table) {
    constexpr int kRounds = 11;
    return paired_median_ratio(kRounds, [&] { return sample(kernel, base); },
                               [&] { return sample(kernel, table); });
  };

  const k::KernelTable& scalar = k::kernel_table(k::Isa::kScalar);
  const k::KernelTable& avx2 = k::kernel_table(k::Isa::kAvx2);
  const bool avx2_runs = k::isa_supported(k::Isa::kAvx2) && avx2.isa == k::Isa::kAvx2;
  for (const k::Isa tier : {k::Isa::kAvx2, k::Isa::kAvx512, k::Isa::kNeon}) {
    if (!k::isa_supported(tier)) continue;
    const k::KernelTable& table = k::kernel_table(tier);
    if (table.isa != tier) continue;  // tier's TU not compiled for this arch
    for (const TimedKernel& kernel : kernels) {
      const std::uint64_t want = kernel.once(scalar);
      const std::uint64_t got = kernel.once(table);
      if (got != want)
        throw std::runtime_error(
            std::string("kernels.") + k::isa_name(tier) + "." + kernel.name +
            " disagrees with scalar: " + std::to_string(got) + " vs " +
            std::to_string(want));
      const std::string key =
          std::string("kernels.") + k::isa_name(tier) + "." + kernel.name;
      const double speedup = median_speedup(kernel, scalar, table);
      metrics.set(key + ".speedup", optional_metric(speedup, "x", "higher"));
      if (tier == k::Isa::kAvx2 &&
          std::string_view(kernel.name) == "merge_u32" && speedup < 1.5)
        throw std::runtime_error(
            "kernels.avx2.merge_u32.speedup gate failed: median " +
            std::to_string(speedup) + "x < 1.5x over scalar");
      // An entry the AVX-512 table overrides must beat the AVX2 body it
      // replaces (docs/KERNELS.md), so it gets a tier-against-tier row.
      if (tier == k::Isa::kAvx512 && avx2_runs && !kernel.same(table, avx2))
        metrics.set(key + ".speedup_over_avx2",
                    optional_metric(median_speedup(kernel, avx2, table), "x",
                                    "higher"));
    }
  }
}

JsonValue run_suite(const Suite& suite, const std::string& suite_name,
                    const std::string& only) {
  JsonValue metrics;
  lotus::core::LotusConfig config;

  kernels_metrics(metrics, suite);

  for (const std::string& name : only == "kernels" ? std::vector<std::string>{}
                                                   : suite.datasets) {
    const auto& dataset = lotus::datasets::dataset(name);
    const auto graph = lotus::bench::load(dataset, suite.factor);
    const std::uint64_t edges = graph.num_edges() / 2;

    // fig1: end-to-end counting rates of the paper comparator set.
    for (const auto algorithm : lotus::tc::paper_comparators()) {
      const auto r = best_run(algorithm, graph, config, suite.repeat);
      const std::string key = "fig1." + name + "." + lotus::tc::name(algorithm);
      metrics.set(key + ".edges_per_s",
                  metric(lotus::tc::edges_per_s(edges, r.total_s()), "edges/s",
                         "higher"));
      if (algorithm == lotus::tc::Algorithm::kLotus)
        metrics.set(name + ".triangles", metric(r.triangles, "count", "none"));
    }

    // fig6: LOTUS phase breakdown as fractions (machine-portable shape).
    const auto report =
        lotus::bench::profile(lotus::tc::Algorithm::kLotus, graph, config);
    const double preprocess_s = report.trace.total_s("preprocess");
    const double count_s = report.trace.total_s("count");
    const double nnn_s = report.trace.total_s("nnn");
    const double total = preprocess_s + count_s;
    metrics.set("fig6." + name + ".preprocess_frac",
                metric(total > 0 ? preprocess_s / total : 0.0, "fraction",
                       "none"));
    metrics.set("fig6." + name + ".nnn_frac_of_count",
                metric(count_s > 0 ? nnn_s / count_s : 0.0, "fraction",
                       "none"));

    // scaling: LOTUS rate at pinned thread counts (keys never depend on the
    // machine; values may oversubscribe small hosts).
    for (const unsigned threads : suite.scaling_threads) {
      lotus::parallel::set_num_threads(threads);
      const auto r = best_run(lotus::tc::Algorithm::kLotus, graph, config,
                              suite.repeat);
      metrics.set("scaling." + name + ".t" + std::to_string(threads) +
                      ".edges_per_s",
                  metric(lotus::tc::edges_per_s(edges, r.total_s()), "edges/s",
                         "higher"));
    }
    lotus::parallel::set_num_threads(0);

    // engine: cache-hit rate + warm-over-cold speedup of the serving layer.
    engine_metrics(metrics, name, graph, config);

    // analytics: five analytic kinds amortizing one prepared artifact.
    analytics_metrics(metrics, name, graph);

    // oocore: mmap cold start, external build rate, spill/remap behaviour.
    oocore_metrics(metrics, name, graph, config, suite.repeat);

    // telemetry: the <2% serving-overhead gate + export size.
    telemetry_metrics(metrics, name, graph, config, suite.repeat);
  }
  if (only != "kernels") telemetry_record_metrics(metrics, suite.repeat);

  JsonValue root;
  root.set("schema_version", kBenchSchemaVersion);
  JsonValue meta;
  meta.set("suite", suite_name);
  meta.set("created_unix",
           static_cast<std::int64_t>(std::time(nullptr)));
  meta.set("factor", suite.factor);
  meta.set("repeat", static_cast<std::int64_t>(suite.repeat));
  root.set("meta", std::move(meta));
  root.set("metrics", std::move(metrics));
  return root;
}

/// One metric's comparison verdict; empty string = fine.
std::string compare_metric(const std::string& key, const JsonValue& baseline,
                           const JsonValue& current, double threshold) {
  const JsonValue* old_value = baseline.find("value");
  const JsonValue* new_value = current.find("value");
  const JsonValue* better = baseline.find("better");
  if (old_value == nullptr || new_value == nullptr || better == nullptr)
    return key + ": malformed metric entry";
  const double old_v = old_value->as_double();
  const double new_v = new_value->as_double();
  const std::string direction = better->as_string();

  std::ostringstream msg;
  if (direction == "higher") {
    if (old_v > 0.0 && new_v < old_v * (1.0 - threshold)) {
      msg << key << ": " << new_v << " < baseline " << old_v << " by "
          << 100.0 * (1.0 - new_v / old_v) << "% (higher is better)";
      return msg.str();
    }
  } else if (direction == "lower") {
    if (old_v > 0.0 && new_v > old_v * (1.0 + threshold)) {
      msg << key << ": " << new_v << " > baseline " << old_v << " by "
          << 100.0 * (new_v / old_v - 1.0) << "% (lower is better)";
      return msg.str();
    }
  } else {  // "none": flag any drift beyond the noise threshold
    const double scale = std::max(std::fabs(old_v), std::fabs(new_v));
    if (scale > 0.0 && std::fabs(new_v - old_v) > scale * threshold) {
      msg << key << ": changed " << old_v << " -> " << new_v
          << " (neutral metric drifted beyond threshold)";
      return msg.str();
    }
  }
  return {};
}

/// Full snapshot comparison; prints verdicts, returns the count of failures.
int compare_snapshots(const JsonValue& baseline, const JsonValue& current,
                      double threshold) {
  int failures = 0;
  const JsonValue* old_schema = baseline.find("schema_version");
  if (old_schema == nullptr || old_schema->as_string() != kBenchSchemaVersion) {
    std::cout << "FAIL schema_version: baseline is not " << kBenchSchemaVersion
              << "\n";
    return 1;
  }
  const JsonValue* old_metrics = baseline.find("metrics");
  const JsonValue* new_metrics = current.find("metrics");
  if (old_metrics == nullptr || new_metrics == nullptr) {
    std::cout << "FAIL: snapshot missing metrics section\n";
    return 1;
  }
  for (const auto& [key, old_entry] : old_metrics->object()) {
    const JsonValue* new_entry = new_metrics->find(key);
    if (new_entry == nullptr) {
      // Host-dependent metrics (ISA-tier kernels) are allowed to vanish
      // when this machine lacks the tier that produced them.
      const JsonValue* optional = old_entry.find("optional");
      if (optional != nullptr && optional->as_bool()) {
        std::cout << "skip " << key << ": optional metric, tier unsupported "
                  << "on this host\n";
        continue;
      }
      std::cout << "FAIL " << key << ": metric missing from this run\n";
      ++failures;
      continue;
    }
    const std::string verdict =
        compare_metric(key, old_entry, *new_entry, threshold);
    if (verdict.empty()) {
      std::cout << "ok   " << key << "\n";
    } else {
      std::cout << "FAIL " << verdict << "\n";
      ++failures;
    }
  }
  for (const auto& [key, entry] : new_metrics->object()) {
    (void)entry;
    if (old_metrics->find(key) == nullptr)
      std::cout << "note " << key << ": new metric, not in baseline\n";
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  lotus::util::Cli cli(
      "Pinned bench suite -> versioned JSON snapshot, with regression compare");
  cli.flag("smoke", "tiny suite (2 datasets at factor 0.05, threads {1,2})");
  cli.opt("out", "", "write the snapshot JSON to this file (empty = stdout)");
  cli.opt("compare", "", "baseline snapshot to compare this run against");
  cli.opt("threshold", "0.15",
          "relative noise threshold for --compare (0.15 = 15%)");
  cli.opt("only", "",
          "restrict the run to one scenario (supported: kernels)");
  if (!cli.parse(argc, argv)) return 2;

  const std::string only = cli.get("only");
  if (!only.empty() && only != "kernels") {
    std::cerr << "unknown --only scenario: " << only << "\n";
    return 2;
  }

  const double threshold = cli.get_double("threshold");
  if (!(threshold >= 0.0)) {
    std::cerr << "invalid --threshold\n";
    return 2;
  }

  try {
    const bool smoke = cli.get_flag("smoke");
    const JsonValue snapshot =
        run_suite(smoke ? smoke_suite() : full_suite(),
                  smoke ? "smoke" : "full", only);
    const std::string text = snapshot.dump(2);

    if (cli.get("out").empty()) {
      std::cout << text << "\n";
    } else {
      std::ofstream out(cli.get("out"));
      out << text << "\n";
      if (!out) {
        std::cerr << "failed to write " << cli.get("out") << "\n";
        return 2;
      }
      std::cerr << "wrote " << cli.get("out") << "\n";
    }

    if (!cli.get("compare").empty()) {
      std::ifstream in(cli.get("compare"));
      if (!in) {
        std::cerr << "cannot read baseline " << cli.get("compare") << "\n";
        return 2;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const JsonValue baseline = JsonValue::parse(buffer.str());
      const int failures = compare_snapshots(baseline, snapshot, threshold);
      if (failures > 0) {
        std::cout << failures << " metric(s) regressed vs "
                  << cli.get("compare") << "\n";
        return 1;
      }
      std::cout << "no regressions vs " << cli.get("compare") << "\n";
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
  return 0;
}
