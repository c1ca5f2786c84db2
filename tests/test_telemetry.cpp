// Serving-telemetry suite (obs/telemetry.hpp + the tc::Engine wiring):
// histogram bucket math and quantile accuracy on known distributions, merge
// associativity and window deltas, rolling-window rotation/expiry with
// injected clocks, query-log sampling + JSON escaping, Prometheus text
// exposition (label escaping, cumulative buckets), and the engine-level
// integration: per-algorithm / per-outcome series, the metric-name
// inventory, schema-v5 export, and the stats-coherence invariant.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "tc/engine.hpp"
#include "tc/engine_metrics.hpp"
#include "util/prng.hpp"

namespace {

namespace obs = lotus::obs;
namespace tc = lotus::tc;
using obs::CacheOutcome;
using obs::LatencyHistogram;
using obs::QueryStage;

// Temp-file helper mirroring the SpillDir pattern in test_engine.cpp.
class TempFile {
 public:
  explicit TempFile(const char* tag) {
    static std::atomic<int> seq{0};
    path_ = ::testing::TempDir() + "lotus-telemetry-" + tag + "-" +
            std::to_string(::getpid()) + "-" + std::to_string(seq++) + ".tmp";
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

  [[nodiscard]] std::vector<std::string> lines() const {
    std::ifstream in(path_);
    std::vector<std::string> out;
    std::string line;
    while (std::getline(in, line))
      if (!line.empty()) out.push_back(line);
    return out;
  }

 private:
  std::string path_;
};

lotus::graph::CsrGraph small_graph() {
  return lotus::graph::build_undirected(
      lotus::graph::rmat({.scale = 9, .edge_factor = 8, .seed = 21}));
}

template <typename T>
T get_ok(std::future<lotus::util::Expected<T>> future) {
  auto outcome = future.get();
  EXPECT_TRUE(outcome.ok());
  return outcome.take();
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, BucketBoundariesArePartition) {
  // Buckets tile [0, 2^43) without gaps or overlaps, and bucket_index maps
  // each boundary value into the bucket it lower-bounds.
  for (std::size_t b = 0; b + 1 < LatencyHistogram::kBuckets; ++b) {
    const std::uint64_t lower = LatencyHistogram::bucket_lower_ns(b);
    const std::uint64_t upper = LatencyHistogram::bucket_upper_ns(b);
    ASSERT_LT(lower, upper) << "bucket " << b;
    EXPECT_EQ(LatencyHistogram::bucket_index(lower), b);
    EXPECT_EQ(LatencyHistogram::bucket_index(upper - 1), b);
    EXPECT_EQ(LatencyHistogram::bucket_upper_ns(b),
              LatencyHistogram::bucket_lower_ns(b + 1));
  }
  // Saturation: anything at or beyond the top bucket's lower bound lands in
  // the top bucket, including UINT64_MAX.
  const std::size_t top = LatencyHistogram::kBuckets - 1;
  EXPECT_EQ(LatencyHistogram::bucket_index(
                LatencyHistogram::bucket_lower_ns(top)),
            top);
  EXPECT_EQ(LatencyHistogram::bucket_index(
                std::numeric_limits<std::uint64_t>::max()),
            top);
}

TEST(LatencyHistogram, BucketRelativeWidthIsBounded) {
  // The log-linear layout promise: above the linear region every bucket is
  // at most 1/8 of its lower bound wide — the quantile error bound.
  for (std::size_t b = LatencyHistogram::kSubBuckets;
       b + 1 < LatencyHistogram::kBuckets; ++b) {
    const double lower =
        static_cast<double>(LatencyHistogram::bucket_lower_ns(b));
    const double width =
        static_cast<double>(LatencyHistogram::bucket_upper_ns(b)) - lower;
    EXPECT_LE(width / lower, 1.0 / LatencyHistogram::kSubBuckets + 1e-12)
        << "bucket " << b;
  }
}

TEST(LatencyHistogram, QuantileAccuracyUniform) {
  // Uniform over [1, 10^7] ns: every estimated quantile must sit within the
  // bucket error bound (6.25% midpoint error + rank discretization) of the
  // exact order statistic of the recorded sample.
  lotus::util::Xoshiro256 rng(7);
  constexpr std::size_t kN = 100000;
  LatencyHistogram hist;
  std::vector<std::uint64_t> values(kN);
  for (auto& v : values) {
    v = 1 + rng.next_below(10'000'000);
    hist.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double exact = static_cast<double>(
        values[std::min(kN - 1, static_cast<std::size_t>(q * kN))]);
    const double estimate = hist.quantile_ns(q);
    EXPECT_NEAR(estimate, exact, 0.08 * exact) << "q=" << q;
  }
}

TEST(LatencyHistogram, QuantileAccuracyHeavyTail) {
  // Exponential-ish tail (latencies are never uniform in production):
  // -ln(U) scaled to a ~2 ms mean. Same error contract.
  lotus::util::Xoshiro256 rng(99);
  constexpr std::size_t kN = 100000;
  LatencyHistogram hist;
  std::vector<std::uint64_t> values(kN);
  for (auto& v : values) {
    const double u = std::max(rng.next_double(), 1e-12);
    v = static_cast<std::uint64_t>(-std::log(u) * 2e6) + 1;
    hist.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.95, 0.99, 0.999}) {
    const double exact = static_cast<double>(
        values[std::min(kN - 1, static_cast<std::size_t>(q * kN))]);
    EXPECT_NEAR(hist.quantile_ns(q), exact, 0.08 * exact) << "q=" << q;
  }
}

TEST(LatencyHistogram, MergeIsAssociativeAndMatchesUnion) {
  lotus::util::Xoshiro256 rng(3);
  LatencyHistogram a, b, c, all;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t v = rng.next_below(1u << 20);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
    all.record(v);
  }
  // (a+b)+c
  LatencyHistogram left = a;
  left.merge(b);
  left.merge(c);
  // a+(b+c)
  LatencyHistogram right = b;
  right.merge(c);
  LatencyHistogram right2 = a;
  right2.merge(right);
  EXPECT_EQ(left.bins(), right2.bins());
  EXPECT_EQ(left.bins(), all.bins());
  EXPECT_EQ(left.count(), all.count());
  EXPECT_EQ(left.sum_ns(), all.sum_ns());
}

TEST(LatencyHistogram, DeltaInvertsMerge) {
  lotus::util::Xoshiro256 rng(4);
  LatencyHistogram older, extra;
  for (int i = 0; i < 1000; ++i) older.record(rng.next_below(1u << 16));
  for (int i = 0; i < 500; ++i) extra.record(rng.next_below(1u << 16));
  LatencyHistogram newer = older;
  newer.merge(extra);
  const LatencyHistogram diff = LatencyHistogram::delta(newer, older);
  EXPECT_EQ(diff.bins(), extra.bins());
  EXPECT_EQ(diff.count(), extra.count());
  EXPECT_EQ(diff.sum_ns(), extra.sum_ns());
}

TEST(LatencyHistogram, EmptyAndSaturated) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.quantile_ns(0.99), 0.0);
  hist.record(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(hist.count(), 1u);
  // The saturated estimate is the top bucket's lower bound — finite.
  const double q = hist.quantile_ns(0.5);
  EXPECT_EQ(q, static_cast<double>(LatencyHistogram::bucket_lower_ns(
                   LatencyHistogram::kBuckets - 1)));
}

// ---------------------------------------------------------------------------
// RollingWindow
// ---------------------------------------------------------------------------

TEST(RollingWindow, RotatesAndExpires) {
  obs::RollingWindow window(10.0, 5);  // 2 s slots
  LatencyHistogram cumulative;
  std::uint64_t completed = 0;
  window.advance(0.0, 0, cumulative);

  // 1 query per second for 30 s; snapshots every 2 s.
  for (int t = 1; t <= 30; ++t) {
    cumulative.record(1'000'000);
    ++completed;
    window.advance(static_cast<double>(t), completed, cumulative);
  }
  const auto stats =
      window.stats(30.0, completed, cumulative);
  // Warm window: span ≈ the configured 10 s (one slot of slack), rate ≈ 1.
  EXPECT_GE(stats.span_s, 10.0);
  EXPECT_LE(stats.span_s, 12.0 + 1e-9);
  EXPECT_EQ(stats.queries, static_cast<std::uint64_t>(stats.span_s + 0.5));
  EXPECT_NEAR(stats.qps, 1.0, 0.05);
  // The ring stays bounded: 5 slots per window + the baseline.
  EXPECT_LE(window.size(), 7u);
}

TEST(RollingWindow, IdleWindowDrainsToZero) {
  obs::RollingWindow window(10.0, 5);
  LatencyHistogram cumulative;
  window.advance(0.0, 0, cumulative);
  for (int t = 1; t <= 5; ++t) {
    cumulative.record(500);
    window.advance(static_cast<double>(t), static_cast<std::uint64_t>(t),
                   cumulative);
  }
  // 100 s of silence: every burst slot expires, the delta reaches zero.
  for (int t = 6; t <= 100; ++t)
    window.advance(static_cast<double>(t), 5, cumulative);
  const auto stats = window.stats(100.0, 5, cumulative);
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_EQ(stats.hist.count(), 0u);
  EXPECT_EQ(stats.qps, 0.0);
}

TEST(RollingWindow, StatsBeforeFirstSlotCoverLifetime) {
  obs::RollingWindow window(60.0, 15);
  LatencyHistogram cumulative;
  cumulative.record(1000);
  const auto stats = window.stats(0.5, 1, cumulative);
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.hist.count(), 1u);
}

// ---------------------------------------------------------------------------
// Telemetry (shards, query log)
// ---------------------------------------------------------------------------

obs::QuerySample sample_for(std::size_t algorithm, std::uint64_t total_ns,
                            CacheOutcome outcome = CacheOutcome::kHit) {
  obs::QuerySample s;
  s.algorithm = algorithm;
  s.outcome = outcome;
  s.graph_key = "g";
  s.status = "ok";
  s.threads = 2;
  s.queue_ns = total_ns / 4;
  s.prepare_ns = total_ns / 4;
  s.count_ns = total_ns / 2;
  s.total_ns = total_ns;
  return s;
}

/// Count of the (dimension, label, stage) series in `snap`; 0 when absent.
std::uint64_t series_count(const obs::TelemetrySnapshot& snap,
                           obs::Dimension dimension, const std::string& label,
                           QueryStage stage) {
  for (const obs::SeriesSnapshot& s : snap.series)
    if (s.dimension == dimension && s.label == label && s.stage == stage)
      return s.hist.count();
  return 0;
}

TEST(Telemetry, ConcurrentRecordsAllLand) {
  obs::Telemetry telemetry({.window_s = 60.0}, {"alpha", "beta"}, {});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&telemetry, t] {
      for (int i = 0; i < kPerThread; ++i)
        telemetry.record(sample_for(static_cast<std::size_t>(t % 2),
                                    static_cast<std::uint64_t>(1000 + i)));
    });
  for (auto& thread : threads) thread.join();

  const obs::TelemetrySnapshot snap = telemetry.snapshot();
  EXPECT_EQ(snap.queries_recorded,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Per-algorithm totals: each label got half the records at every stage.
  std::uint64_t total_stage_count = 0;
  for (const auto& series : snap.series)
    if (series.dimension == obs::Dimension::kAlgorithm &&
        series.stage == QueryStage::kTotal) {
      EXPECT_EQ(series.hist.count(),
                static_cast<std::uint64_t>(kThreads) * kPerThread / 2)
          << series.label;
      total_stage_count += series.hist.count();
    }
  EXPECT_EQ(total_stage_count, snap.queries_recorded);
}

TEST(Telemetry, DisabledIsInert) {
  obs::Telemetry telemetry({.enabled = false}, {"alpha"}, {});
  EXPECT_EQ(telemetry.record(sample_for(0, 1000)), 0u);
  const obs::TelemetrySnapshot snap = telemetry.snapshot();
  EXPECT_FALSE(snap.enabled);
  EXPECT_EQ(snap.queries_recorded, 0u);
  EXPECT_TRUE(snap.series.empty());
}

TEST(Telemetry, QueryLogSamplingAndParseability) {
  TempFile log("sample");
  obs::TelemetryOptions options;
  options.query_log_path = log.path();
  options.query_log_sample = 3;  // ids 1, 4, 7, 10, ...
  obs::Telemetry telemetry(options, {"alpha"}, {"kappa"});
  for (int i = 0; i < 10; ++i)
    telemetry.record(sample_for(0, static_cast<std::uint64_t>(1000 * (i + 1))));

  const auto lines = log.lines();
  ASSERT_EQ(lines.size(), 4u);
  std::uint64_t last_id = 0;
  for (const std::string& line : lines) {
    const obs::JsonValue row = obs::JsonValue::parse(line);  // must not throw
    const std::uint64_t id = row.find("query_id")->as_uint();
    EXPECT_GT(id, last_id);  // monotonic
    EXPECT_EQ((id - 1) % 3, 0u);
    last_id = id;
    EXPECT_EQ(row.find("algorithm")->as_string(), "alpha");
    EXPECT_EQ(row.find("analytic")->as_string(), "kappa");
    EXPECT_EQ(row.find("cache_outcome")->as_string(), "hit");
    EXPECT_EQ(row.find("status")->as_string(), "ok");
    EXPECT_FALSE(row.find("deadline_miss")->as_bool());
    // Stage timings reconstruct the query: queue + prepare + count == total
    // by construction of sample_for.
    const double total = row.find("total_s")->as_double();
    const double stages = row.find("queue_s")->as_double() +
                          row.find("prepare_s")->as_double() +
                          row.find("count_s")->as_double();
    EXPECT_NEAR(stages, total, 1e-12);
  }
  EXPECT_EQ(telemetry.snapshot().query_log_lines, 4u);
}

TEST(Telemetry, QueryLogEscapesHostileKeys) {
  TempFile log("escape");
  obs::TelemetryOptions options;
  options.query_log_path = log.path();
  obs::Telemetry telemetry(options, {"alpha"}, {"kappa"});
  obs::QuerySample sample = sample_for(0, 1000);
  const std::string hostile = "key\"with\\quotes\nand\tcontrol\x01chars";
  sample.graph_key = hostile;
  telemetry.record(sample);

  const auto lines = log.lines();
  ASSERT_EQ(lines.size(), 1u);
  const obs::JsonValue row = obs::JsonValue::parse(lines[0]);
  EXPECT_EQ(row.find("graph_key")->as_string(), hostile);  // round-trips
}

TEST(Telemetry, OutOfRangeAlgorithmRoutesToUnknown) {
  // An out-of-range index lands in the reserved "unknown" series (matching
  // the query-log label), never on the last real label.
  obs::Telemetry telemetry({.window_s = 60.0}, {"alpha"}, {});
  telemetry.record(sample_for(0, 1000));
  telemetry.record(sample_for(7, 2000));  // out of range
  const obs::TelemetrySnapshot snap = telemetry.snapshot();
  const auto algorithm = obs::Dimension::kAlgorithm;
  EXPECT_EQ(series_count(snap, algorithm, "alpha", QueryStage::kTotal), 1u);
  EXPECT_EQ(series_count(snap, algorithm, "unknown", QueryStage::kTotal), 1u);
  // Outcome series stay exact — no cross-family double counting.
  EXPECT_EQ(series_count(snap, obs::Dimension::kOutcome, "hit",
                         QueryStage::kTotal),
            2u);
}

TEST(Telemetry, EmptyLabelTableDoesNotCollideWithOutcomes) {
  // With no labels, algorithm series 0 must not alias outcome series 0: each
  // sample counts once in every dimension — under "unknown" in the two
  // empty ones and under its outcome — and nowhere else.
  obs::Telemetry telemetry({.window_s = 60.0}, {}, {});
  telemetry.record(sample_for(0, 1000, CacheOutcome::kUncached));
  const obs::TelemetrySnapshot snap = telemetry.snapshot();
  ASSERT_EQ(snap.series.size(), obs::kNumDimensions * obs::kNumQueryStages);
  for (const auto& s : snap.series) {
    EXPECT_EQ(s.label, s.dimension == obs::Dimension::kOutcome ? "uncached"
                                                                : "unknown");
    EXPECT_EQ(s.hist.count(), 1u);
  }
}

TEST(Telemetry, QueryLogDisabledBySampleZero) {
  TempFile log("off");
  obs::TelemetryOptions options;
  options.query_log_path = log.path();
  options.query_log_sample = 0;
  obs::Telemetry telemetry(options, {"alpha"}, {"kappa"});
  telemetry.record(sample_for(0, 1000));
  EXPECT_TRUE(log.lines().empty());
  EXPECT_EQ(telemetry.snapshot().query_log_lines, 0u);
}

// ---------------------------------------------------------------------------
// PrometheusWriter
// ---------------------------------------------------------------------------

TEST(PrometheusWriter, EscapesLabelValues) {
  EXPECT_EQ(obs::PrometheusWriter::escape_label_value("plain"), "plain");
  EXPECT_EQ(obs::PrometheusWriter::escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::PrometheusWriter::escape_label_value("say \"hi\""),
            "say \\\"hi\\\"");
  EXPECT_EQ(obs::PrometheusWriter::escape_label_value("line1\nline2"),
            "line1\\nline2");
  // UTF-8 passes through byte-exact.
  EXPECT_EQ(obs::PrometheusWriter::escape_label_value("gr\xc3\xa9""goire"),
            "gr\xc3\xa9""goire");
  // All together.
  EXPECT_EQ(obs::PrometheusWriter::escape_label_value("\\\"\n\xc3\xa9"),
            "\\\\\\\"\\n\xc3\xa9");
}

TEST(PrometheusWriter, EmitsEscapedSamplesOnce) {
  obs::PrometheusWriter writer;
  writer.counter("tc_demo_total", "A demo\ncounter.", 7,
                 {{"graph", "road\"net\\eu\n"}});
  writer.counter("tc_demo_total", "A demo\ncounter.", 9, {{"graph", "two"}});
  const std::string& text = writer.str();
  // One header pair despite two samples.
  EXPECT_EQ(text.find("# HELP tc_demo_total A demo\\ncounter.\n"),
            text.rfind("# HELP tc_demo_total"));
  EXPECT_NE(text.find("# TYPE tc_demo_total counter\n"), std::string::npos);
  EXPECT_NE(
      text.find("tc_demo_total{graph=\"road\\\"net\\\\eu\\n\"} 7\n"),
      std::string::npos);
  EXPECT_NE(text.find("tc_demo_total{graph=\"two\"} 9\n"), std::string::npos);
}

TEST(PrometheusWriter, HistogramIsCumulativeWithInf) {
  LatencyHistogram hist;
  for (std::uint64_t v : {100u, 200u, 400u, 100'000u, 5'000'000u})
    hist.record(v);
  obs::PrometheusWriter writer;
  writer.histogram("tc_lat_seconds", "Latency.", {{"algo", "lotus"}}, hist);
  const std::string& text = writer.str();
  EXPECT_NE(text.find("# TYPE tc_lat_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("tc_lat_seconds_bucket{algo=\"lotus\",le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("tc_lat_seconds_count{algo=\"lotus\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("tc_lat_seconds_sum{algo=\"lotus\"} "),
            std::string::npos);
  // Bucket counts are cumulative (non-decreasing as `le` grows).
  std::istringstream lines(text);
  std::string line;
  std::uint64_t previous = 0;
  std::size_t buckets = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("tc_lat_seconds_bucket", 0) != 0) continue;
    const std::uint64_t n =
        std::stoull(line.substr(line.find_last_of(' ') + 1));
    EXPECT_GE(n, previous) << line;
    previous = n;
    ++buckets;
  }
  EXPECT_GE(buckets, 5u);  // distinct values landed in distinct buckets
  EXPECT_EQ(previous, 5u);
}

TEST(PrometheusWriter, BucketBoundsAreInclusive) {
  // `le` is inclusive in the exposition format: an observation exactly on a
  // bucket boundary must be covered by that bucket's emitted `le`. Bucket
  // [8, 9) holds the value 8, so its bound is 8 ns, not the exclusive 9.
  LatencyHistogram hist;
  hist.record(8);
  obs::PrometheusWriter writer;
  writer.histogram("tc_lat_seconds", "Latency.", {}, hist);
  const std::string& text = writer.str();
  EXPECT_NE(text.find("tc_lat_seconds_bucket{le=\"8e-09\"} 1\n"),
            std::string::npos);
  EXPECT_EQ(text.find("le=\"9e-09\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

TEST(EngineTelemetry, RecordsPerAlgorithmAndOutcome) {
  const auto graph = small_graph();
  tc::Engine engine({.num_drivers = 1});
  for (int i = 0; i < 3; ++i)
    (void)get_ok<tc::QueryResult>(
        engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  for (int i = 0; i < 2; ++i)
    (void)get_ok<tc::QueryResult>(
        engine.submit({tc::Algorithm::kForwardMerge, "g", &graph, {}}));

  const obs::TelemetrySnapshot snap = engine.telemetry_snapshot();
  EXPECT_EQ(snap.queries_recorded, 5u);

  const auto count = [&snap](obs::Dimension dimension, const char* label,
                             QueryStage stage) {
    return series_count(snap, dimension, label, stage);
  };
  const auto algorithm = obs::Dimension::kAlgorithm;
  EXPECT_EQ(count(algorithm, "lotus", QueryStage::kTotal), 3u);
  EXPECT_EQ(count(algorithm, "gap-forward", QueryStage::kTotal), 2u);
  EXPECT_EQ(count(algorithm, "lotus", QueryStage::kQueue), 3u);
  EXPECT_EQ(count(algorithm, "lotus", QueryStage::kCount), 3u);
  // First query per key misses, the rest hit.
  EXPECT_EQ(count(obs::Dimension::kOutcome, "miss", QueryStage::kTotal), 2u);
  EXPECT_EQ(count(obs::Dimension::kOutcome, "hit", QueryStage::kTotal), 3u);
  // Every query is a triangle count.
  EXPECT_EQ(count(obs::Dimension::kAnalytic, "triangles", QueryStage::kTotal),
            5u);

  // The stats snapshot stays summable (the coherence satellite).
  const tc::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.cache_lookups);
  EXPECT_EQ(stats.cache_lookups, 5u);
}

TEST(EngineTelemetry, PrometheusTextCoversInventory) {
  const auto graph = small_graph();
  tc::Engine engine({.num_drivers = 1});
  (void)get_ok<tc::QueryResult>(
      engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  (void)get_ok<tc::QueryResult>(
      engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  const std::string text = engine.prometheus_text();
  // Every family in the metric table is emitted with its declared type, and
  // every family in the text is declared in the table (no undeclared
  // metrics).
  for (const tc::EngineMetric& m : tc::kEngineMetrics) {
    if (m.family == nullptr) continue;
    const char* type = m.type == tc::MetricType::kCounter ? "counter"
                       : m.type == tc::MetricType::kGauge ? "gauge"
                                                          : "histogram";
    EXPECT_NE(text.find(std::string("# TYPE ") + m.family + " " + type + "\n"),
              std::string::npos)
        << m.family;
  }
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    const std::string family = line.substr(7, line.find(' ', 7) - 7);
    EXPECT_NE(std::find_if(std::begin(tc::kEngineMetrics),
                           std::end(tc::kEngineMetrics),
                           [&family](const tc::EngineMetric& m) {
                             return m.family != nullptr && family == m.family;
                           }),
              std::end(tc::kEngineMetrics))
        << "undeclared family: " << family;
  }
  EXPECT_NE(text.find("lotus_engine_queries_completed_total 2"),
            std::string::npos);
  EXPECT_NE(
      text.find("lotus_engine_query_stage_seconds_bucket{algorithm=\"lotus\""),
      std::string::npos);
  EXPECT_NE(text.find("lotus_engine_cache_outcome_seconds_bucket{outcome="),
            std::string::npos);
  EXPECT_NE(text.find("lotus_engine_window_latency_seconds{quantile=\"0.99\"}"),
            std::string::npos);
}

TEST(EngineTelemetry, PrometheusFamiliesAreOneGroupEach) {
  // Three analytic kinds give the labelled families three series each. The
  // text format allows one group per family: every sample must sit in the
  // block its own family's # TYPE line opened, and no family is opened
  // twice.
  const auto graph = small_graph();
  tc::Engine engine({.num_drivers = 1});
  for (const auto kind : {tc::AnalyticKind::kLocalCounts,
                          tc::AnalyticKind::kClustering,
                          tc::AnalyticKind::kKTruss}) {
    tc::QueryOptions options;
    options.analytic.kind = kind;
    (void)get_ok<tc::QueryResult>(
        engine.submit({tc::Algorithm::kForwardMerge, "g", &graph, options}));
  }
  const std::string text = engine.prometheus_text();
  std::set<std::string> opened;
  std::string family;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      family = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(opened.insert(family).second) << "second group of " << family;
      continue;
    }
    const std::string name = line.substr(0, line.find_first_of("{ "));
    EXPECT_TRUE(name == family || name == family + "_bucket" ||
                name == family + "_sum" || name == family + "_count")
        << name << " sample inside the " << family << " group";
  }
  EXPECT_NE(text.find("lotus_engine_analytic_queries_total{analytic=\"ktruss\"} 1"),
            std::string::npos);
}

TEST(EngineTelemetry, MetricTableRowsAreWellFormed) {
  // Accessors exactly on the scalar rows, and a JSON key exactly on the rows
  // that write one key (kQuantiles rows write the kLatencyQuantiles keys;
  // kLabelTotals rows are Prometheus only).
  for (std::size_t i = 0; i < std::size(tc::kEngineMetrics); ++i) {
    const tc::EngineMetric& m = tc::kEngineMetrics[i];
    EXPECT_EQ(m.shape == tc::MetricShape::kScalar, m.value != nullptr) << i;
    EXPECT_EQ(m.json != tc::JsonSection::kNone &&
                  m.shape != tc::MetricShape::kQuantiles,
              m.json_key != nullptr)
        << i;
    EXPECT_TRUE(m.family != nullptr || m.json != tc::JsonSection::kNone) << i;
    if (m.shape == tc::MetricShape::kStages)
      EXPECT_EQ(m.json, tc::JsonSection::kTelemetry) << i;
    if (m.shape == tc::MetricShape::kLabelTotals)
      EXPECT_EQ(m.json, tc::JsonSection::kNone) << i;
  }

  // metrics() emits the `engine` keys in table order.
  std::vector<std::string> engine_keys;
  for (const tc::EngineMetric& m : tc::kEngineMetrics)
    if (m.json == tc::JsonSection::kEngine) engine_keys.emplace_back(m.json_key);
  tc::Engine engine({.num_drivers = 1});
  const obs::JsonValue json = engine.metrics().to_json();
  const obs::JsonValue* section = json.find("engine");
  ASSERT_NE(section, nullptr);
  ASSERT_EQ(section->object().size(), engine_keys.size());
  for (std::size_t i = 0; i < engine_keys.size(); ++i)
    EXPECT_EQ(section->object()[i].first, engine_keys[i]) << i;
}

TEST(EngineTelemetry, EveryJsonKeyComesFromTheMetricTable) {
  // Both engine JSON sections are rendered from kEngineMetrics: each key of
  // `engine`, `engine_telemetry` and its `window` object is some row's key
  // in that section, every histogram row belongs to a kStages row's
  // dimension, and every always-present row key is written.
  const auto graph = small_graph();
  tc::Engine engine({.num_drivers = 1});
  tc::QueryOptions options;
  options.analytic.kind = tc::AnalyticKind::kLocalCounts;
  (void)get_ok<tc::QueryResult>(
      engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  (void)get_ok<tc::QueryResult>(
      engine.submit({tc::Algorithm::kForwardMerge, "g", &graph, options}));
  const obs::JsonValue root =
      obs::JsonValue::parse(engine.metrics().to_json_string());

  std::map<tc::JsonSection, std::set<std::string>> declared;
  std::set<std::string> dimensions;
  for (const tc::EngineMetric& m : tc::kEngineMetrics) {
    if (m.json_key != nullptr) declared[m.json].insert(m.json_key);
    if (m.shape == tc::MetricShape::kQuantiles)
      for (const tc::LatencyQuantile& q : tc::kLatencyQuantiles)
        declared[m.json].insert(q.json_key);
    if (m.shape == tc::MetricShape::kStages)
      dimensions.insert(obs::dimension_name(m.dimension));
  }
  ASSERT_FALSE(declared[tc::JsonSection::kWindow].empty());
  declared[tc::JsonSection::kTelemetry].insert("window");

  const auto check = [&declared](const obs::JsonValue* section,
                                 tc::JsonSection where, const char* name) {
    ASSERT_NE(section, nullptr) << name;
    std::set<std::string> written;
    for (const auto& [key, value] : section->object()) {
      EXPECT_EQ(declared[where].count(key), 1u)
          << name << "." << key << " has no kEngineMetrics row";
      written.insert(key);
    }
    for (const std::string& key : declared[where])
      if (key != "query_log_failures")  // written only once a write failed
        EXPECT_EQ(written.count(key), 1u) << name << "." << key << " missing";
  };
  check(root.find("engine"), tc::JsonSection::kEngine, "engine");
  const obs::JsonValue* telemetry = root.find("engine_telemetry");
  check(telemetry, tc::JsonSection::kTelemetry, "engine_telemetry");
  check(telemetry->find("window"), tc::JsonSection::kWindow, "window");

  const obs::JsonValue* histograms = telemetry->find("histograms");
  ASSERT_NE(histograms, nullptr);
  std::set<std::string> seen;
  for (const obs::JsonValue& row : histograms->array()) {
    const std::string series = row.find("series")->as_string();
    EXPECT_EQ(dimensions.count(series), 1u) << series;
    seen.insert(series);
    for (const tc::LatencyQuantile& q : tc::kLatencyQuantiles)
      EXPECT_NE(row.find(q.json_key), nullptr) << q.json_key;
  }
  EXPECT_EQ(seen, dimensions);
}

TEST(EngineTelemetry, MetricsExportCarriesTelemetrySection) {
  const auto graph = small_graph();
  tc::Engine engine({.num_drivers = 1});
  (void)get_ok<tc::QueryResult>(
      engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  const obs::JsonValue root =
      obs::JsonValue::parse(engine.metrics().to_json_string());
  EXPECT_EQ(root.find("schema_version")->as_string(), "lotus-metrics/8");
  const obs::JsonValue* telemetry = root.find("engine_telemetry");
  ASSERT_NE(telemetry, nullptr);
  EXPECT_TRUE(telemetry->find("enabled")->as_bool());
  EXPECT_EQ(telemetry->find("queries_recorded")->as_uint(), 1u);
  ASSERT_NE(telemetry->find("window"), nullptr);
  EXPECT_GE(telemetry->find("window")->find("qps")->as_double(), 0.0);
  const obs::JsonValue* histograms = telemetry->find("histograms");
  ASSERT_NE(histograms, nullptr);
  ASSERT_FALSE(histograms->array().empty());
  const obs::JsonValue& row = histograms->array().front();
  EXPECT_NE(row.find("label"), nullptr);
  EXPECT_NE(row.find("stage"), nullptr);
  EXPECT_NE(row.find("p99_s"), nullptr);
  EXPECT_NE(row.find("p999_s"), nullptr);
  // The engine aggregate carries the new coherence counters too.
  const obs::JsonValue* engine_section = root.find("engine");
  ASSERT_NE(engine_section, nullptr);
  EXPECT_EQ(engine_section->find("cache_lookups")->as_uint(), 1u);
  EXPECT_EQ(engine_section->find("deadline_misses")->as_uint(), 0u);
  // One count per fact: the deadline-miss count lives in `engine` only.
  EXPECT_EQ(telemetry->find("deadline_misses"), nullptr);
}

TEST(EngineTelemetry, QueryLogReconstructsServedQueries) {
  TempFile log("engine");
  const auto graph = small_graph();
  tc::EngineOptions options{.num_drivers = 2};
  options.telemetry.query_log_path = log.path();
  {
    tc::Engine engine(options);
    for (int i = 0; i < 6; ++i)
      (void)get_ok<tc::QueryResult>(
          engine.submit({i % 2 == 0 ? tc::Algorithm::kLotus
                                    : tc::Algorithm::kForwardMerge,
                         "g", &graph, {}}));
  }
  const auto lines = log.lines();
  ASSERT_EQ(lines.size(), 6u);
  std::uint64_t hits = 0;
  for (const std::string& line : lines) {
    const obs::JsonValue row = obs::JsonValue::parse(line);
    EXPECT_EQ(row.find("graph_key")->as_string(), "g");
    EXPECT_EQ(row.find("status")->as_string(), "ok");
    const std::string algo = row.find("algorithm")->as_string();
    EXPECT_TRUE(algo == "lotus" || algo == "gap-forward") << algo;
    EXPECT_GE(row.find("total_s")->as_double(),
              row.find("count_s")->as_double());
    if (row.find("cache_outcome")->as_string() == "hit") ++hits;
  }
  EXPECT_GE(hits, 2u);  // 2 keys × first-build, the rest hit or share
}

TEST(EngineTelemetry, DeadlineMissIsFlagged) {
  const auto graph = small_graph();
  tc::Engine engine({.num_drivers = 1});
  tc::QuerySpec spec{tc::Algorithm::kForwardMerge, "g", &graph, {}};
  spec.options.deadline = lotus::util::Deadline::after(0.0);
  const auto result = get_ok<tc::QueryResult>(engine.submit(std::move(spec)));
  ASSERT_EQ(result.status.code(), lotus::util::StatusCode::kDeadlineExceeded);
  const tc::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.deadline_misses, 1u);
  const obs::JsonValue root =
      obs::JsonValue::parse(engine.metrics().to_json_string());
  EXPECT_EQ(root.find("engine")->find("deadline_misses")->as_uint(), 1u);
  const std::string text = engine.prometheus_text();
  EXPECT_NE(text.find("lotus_engine_deadline_misses_total 1"),
            std::string::npos);
}

TEST(EngineTelemetry, DisabledTelemetryStillServes) {
  const auto graph = small_graph();
  tc::EngineOptions options{.num_drivers = 1};
  options.telemetry.enabled = false;
  tc::Engine engine(options);
  const auto result = get_ok<tc::QueryResult>(
      engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  EXPECT_TRUE(result.ok());
  const obs::TelemetrySnapshot snap = engine.telemetry_snapshot();
  EXPECT_FALSE(snap.enabled);
  EXPECT_EQ(snap.queries_recorded, 0u);
  // The JSON export says so instead of exporting empty series.
  const obs::JsonValue root =
      obs::JsonValue::parse(engine.metrics().to_json_string());
  const obs::JsonValue* telemetry = root.find("engine_telemetry");
  ASSERT_EQ(telemetry->object().size(), 1u);
  EXPECT_FALSE(telemetry->find("enabled")->as_bool());
}

}  // namespace
