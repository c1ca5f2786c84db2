// tc::Engine: concurrent serving, the prepared-graph cache, and the unified
// query() surface it fronts (docs/API.md).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "baselines/tc_baselines.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "tc/engine.hpp"
#include "tc/prepared.hpp"
#include "util/cancel.hpp"

namespace {

namespace g = lotus::graph;
namespace tc = lotus::tc;
namespace fs = std::filesystem;
using lotus::util::StatusCode;

/// Fresh, self-cleaning spill directory for one test.
class SpillDir {
 public:
  explicit SpillDir(const std::string& name)
      : dir_(fs::temp_directory_path() /
             (name + "_" + std::to_string(::getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~SpillDir() { fs::remove_all(dir_); }
  [[nodiscard]] std::string str() const { return dir_.string(); }
  [[nodiscard]] std::size_t file_count() const {
    return static_cast<std::size_t>(
        std::distance(fs::directory_iterator(dir_), fs::directory_iterator{}));
  }

 private:
  fs::path dir_;
};

g::CsrGraph small_graph(std::uint64_t seed = 21) {
  return g::build_undirected(
      g::rmat({.scale = 9, .edge_factor = 8, .seed = seed}));
}

/// Unwrap a future that must have been attempted and succeeded.
tc::QueryResult get_ok(std::future<lotus::util::Expected<tc::QueryResult>> f) {
  auto outcome = f.get();
  EXPECT_TRUE(outcome.ok()) << outcome.status().to_string();
  tc::QueryResult result = outcome.take();
  EXPECT_TRUE(result.ok()) << result.status.to_string();
  return result;
}

TEST(Engine, CacheHitSkipsPreprocessing) {
  const auto graph = small_graph();
  const auto expected = lotus::baselines::brute_force(graph);

  tc::Engine engine({.num_drivers = 1});
  const auto first =
      get_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  EXPECT_EQ(first.result.triangles, expected);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.result.preprocess_s, 0.0);  // the builder pays the build

  const auto second =
      get_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  EXPECT_EQ(second.result.triangles, expected);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.result.preprocess_s, 0.0);  // hits ride for free

  const auto stats = engine.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_GT(stats.cache_bytes, 0u);
}

TEST(Engine, ForwardFamilySharesOneOrientedArtifact) {
  const auto graph = small_graph();
  const auto expected = lotus::baselines::brute_force(graph);

  tc::Engine engine({.num_drivers = 1});
  // First query builds the oriented CSR; every other Forward-family
  // algorithm must hit the same artifact.
  EXPECT_FALSE(
      get_ok(engine.submit({tc::Algorithm::kForwardMerge, "g", &graph, {}}))
          .cache_hit);
  for (const auto algorithm :
       {tc::Algorithm::kForwardHybrid, tc::Algorithm::kForwardGallop,
        tc::Algorithm::kForwardHashed, tc::Algorithm::kForwardBitmap,
        tc::Algorithm::kEdgeParallel, tc::Algorithm::kBlocked}) {
    const auto r = get_ok(engine.submit({algorithm, "g", &graph, {}}));
    EXPECT_EQ(r.result.triangles, expected) << tc::name(algorithm);
    EXPECT_TRUE(r.cache_hit) << tc::name(algorithm);
    EXPECT_EQ(r.result.preprocess_s, 0.0) << tc::name(algorithm);
  }
  // lotus and adaptive share the other artifact kind.
  EXPECT_FALSE(
      get_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}))
          .cache_hit);
  EXPECT_TRUE(
      get_ok(engine.submit({tc::Algorithm::kAdaptive, "g", &graph, {}}))
          .cache_hit);
  EXPECT_EQ(engine.stats().cache_entries, 2u);
}

TEST(Engine, AdaptiveOnFlatGraphSharesTheForwardArtifact) {
  // Low skew: adaptive runs as gap-forward, so it counts against the oriented
  // artifact the gap-forward query built and never builds a LotusGraph.
  const auto graph = g::build_undirected(g::erdos_renyi(2000, 10.0, 3));
  tc::Engine engine({.num_drivers = 1});
  EXPECT_FALSE(
      get_ok(engine.submit({tc::Algorithm::kForwardMerge, "g", &graph, {}}))
          .cache_hit);
  const auto r =
      get_ok(engine.submit({tc::Algorithm::kAdaptive, "g", &graph, {}}));
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(r.algorithm, tc::Algorithm::kAdaptive);
  EXPECT_EQ(r.result.triangles, lotus::baselines::brute_force(graph));
  const auto stats = engine.stats();
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

TEST(Engine, UncacheableAlgorithmsAndEmptyKeysRunEndToEnd) {
  const auto graph = small_graph();
  const auto expected = lotus::baselines::brute_force(graph);

  tc::Engine engine({.num_drivers = 1});
  // kNone algorithms never touch the cache...
  const auto r1 =
      get_ok(engine.submit({tc::Algorithm::kNodeIterator, "g", &graph, {}}));
  EXPECT_EQ(r1.result.triangles, expected);
  EXPECT_FALSE(r1.cache_hit);
  // ...and an empty graph_key opts out for cacheable ones.
  const auto r2 =
      get_ok(engine.submit({tc::Algorithm::kLotus, "", &graph, {}}));
  EXPECT_EQ(r2.result.triangles, expected);
  EXPECT_FALSE(r2.cache_hit);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);
}

TEST(Engine, ConcurrentMixedSubmitsMatchSerialQueries) {
  // The differential heart: N threads submit mixed-algorithm queries over
  // two graphs concurrently; every count must equal the serial tc::query()
  // answer.
  const auto graph_a = small_graph(21);
  const auto graph_b = small_graph(22);
  const std::uint64_t expected_a = lotus::baselines::brute_force(graph_a);
  const std::uint64_t expected_b = lotus::baselines::brute_force(graph_b);
  const std::vector<tc::Algorithm> mix = {
      tc::Algorithm::kLotus, tc::Algorithm::kForwardMerge,
      tc::Algorithm::kAdaptive, tc::Algorithm::kForwardHybrid,
      tc::Algorithm::kNodeIterator};

  tc::Engine engine({.num_drivers = 2, .threads_per_query = 2});
  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 5;
  std::vector<std::thread> submitters;
  std::atomic<int> failures{0};
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const bool use_a = (t + i) % 2 == 0;
        const auto algorithm =
            mix[static_cast<std::size_t>(t * kPerThread + i) % mix.size()];
        auto outcome = engine
                           .submit({algorithm, use_a ? "a" : "b",
                                    use_a ? &graph_a : &graph_b, {}})
                           .get();
        if (!outcome.ok() || !outcome.value().ok() ||
            outcome.value().result.triangles !=
                (use_a ? expected_a : expected_b))
          failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.completed, kSubmitters * kPerThread);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(Engine, LruEvictionUnderTinyBudget) {
  const auto graph = small_graph();
  // Size the budget from the real artifacts: either fits alone, both don't,
  // so alternating kinds must deterministically evict.
  const std::uint64_t oriented_bytes =
      tc::PreparedGraph::build(tc::ArtifactKind::kOriented, graph).bytes();
  const std::uint64_t lotus_bytes =
      tc::PreparedGraph::build(tc::ArtifactKind::kLotus, graph).bytes();
  tc::EngineOptions options;
  options.num_drivers = 1;
  options.cache_budget_bytes = std::max(oriented_bytes, lotus_bytes) +
                               std::min(oriented_bytes, lotus_bytes) / 2;

  tc::Engine tight(options);
  (void)get_ok(tight.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  (void)get_ok(tight.submit({tc::Algorithm::kForwardMerge, "g", &graph, {}}));
  auto stats = tight.stats();
  EXPECT_EQ(stats.cache_evictions, 1u);  // the lotus artifact was LRU
  EXPECT_LE(stats.cache_bytes, options.cache_budget_bytes);

  // Re-querying the evicted kind misses and rebuilds (evicting the other).
  const auto rebuilt =
      get_ok(tight.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  EXPECT_FALSE(rebuilt.cache_hit);
  EXPECT_EQ(rebuilt.result.triangles, lotus::baselines::brute_force(graph));
  stats = tight.stats();
  EXPECT_EQ(stats.cache_evictions, 2u);
  EXPECT_LE(stats.cache_bytes, options.cache_budget_bytes);
}

TEST(Engine, SpillsOnEvictionAndRemapsInsteadOfRebuilding) {
  const auto graph = small_graph();
  const auto expected = lotus::baselines::brute_force(graph);
  const std::uint64_t oriented_bytes =
      tc::PreparedGraph::build(tc::ArtifactKind::kOriented, graph).bytes();
  const std::uint64_t lotus_bytes =
      tc::PreparedGraph::build(tc::ArtifactKind::kLotus, graph).bytes();

  SpillDir spill_dir("lotus_engine_spill_test");
  tc::EngineOptions options;
  options.num_drivers = 1;
  options.cache_budget_bytes = std::max(oriented_bytes, lotus_bytes) +
                               std::min(oriented_bytes, lotus_bytes) / 2;
  options.spill_dir = spill_dir.str();
  {
    tc::Engine engine(options);
    (void)get_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
    // Evicts (and now spills) the lotus artifact to make room.
    (void)get_ok(engine.submit({tc::Algorithm::kForwardMerge, "g", &graph, {}}));
    auto stats = engine.stats();
    EXPECT_EQ(stats.cache_evictions, 1u);
    EXPECT_EQ(stats.cache_spills, 1u);
    EXPECT_EQ(stats.cache_spilled_entries, 1u);
    EXPECT_EQ(spill_dir.file_count(), 1u);

    // The re-query remaps the spill file: served as a hit, no rebuild, and
    // the remapped entry charges ≈0 bytes, so nothing else gets evicted.
    const auto remapped =
        get_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
    EXPECT_TRUE(remapped.cache_hit);
    EXPECT_EQ(remapped.result.triangles, expected);
    stats = engine.stats();
    EXPECT_EQ(stats.cache_remaps, 1u);
    EXPECT_EQ(stats.cache_evictions, 1u);  // the remap displaced nothing
    EXPECT_EQ(stats.cache_entries, 2u);

    // And a later hit on the remapped entry is an ordinary cache hit.
    const auto hit =
        get_ok(engine.submit({tc::Algorithm::kAdaptive, "g", &graph, {}}));
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.result.triangles, expected);

    const std::string json = engine.metrics().to_json_string();
    EXPECT_NE(json.find("\"cache_spills\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"cache_remaps\": 1"), std::string::npos);
  }
  // The destructor removes its spill files.
  EXPECT_EQ(spill_dir.file_count(), 0u);
}

TEST(Engine, InvalidateRemovesSpillFilesToo) {
  const auto graph = small_graph();
  const std::uint64_t oriented_bytes =
      tc::PreparedGraph::build(tc::ArtifactKind::kOriented, graph).bytes();
  const std::uint64_t lotus_bytes =
      tc::PreparedGraph::build(tc::ArtifactKind::kLotus, graph).bytes();

  SpillDir spill_dir("lotus_engine_invalidate_spill_test");
  tc::EngineOptions options;
  options.num_drivers = 1;
  options.cache_budget_bytes = std::max(oriented_bytes, lotus_bytes) +
                               std::min(oriented_bytes, lotus_bytes) / 2;
  options.spill_dir = spill_dir.str();
  tc::Engine engine(options);
  (void)get_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  (void)get_ok(engine.submit({tc::Algorithm::kForwardMerge, "g", &graph, {}}));
  ASSERT_EQ(engine.stats().cache_spilled_entries, 1u);

  engine.invalidate("g");
  EXPECT_EQ(engine.stats().cache_spilled_entries, 0u);
  EXPECT_EQ(spill_dir.file_count(), 0u);

  // With the spill file gone, the next query really rebuilds.
  const auto rebuilt =
      get_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  EXPECT_FALSE(rebuilt.cache_hit);
  EXPECT_EQ(engine.stats().cache_remaps, 0u);
}

TEST(Engine, InvalidateDropsArtifactsForOneKey) {
  const auto graph = small_graph();
  tc::Engine engine({.num_drivers = 1});
  (void)get_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  (void)get_ok(engine.submit({tc::Algorithm::kForwardMerge, "g", &graph, {}}));
  (void)get_ok(engine.submit({tc::Algorithm::kLotus, "other", &graph, {}}));
  ASSERT_EQ(engine.stats().cache_entries, 3u);

  engine.invalidate("g");
  auto stats = engine.stats();
  EXPECT_EQ(stats.cache_entries, 1u);  // "other" survives
  EXPECT_EQ(stats.cache_evictions, 2u);

  const auto rebuilt =
      get_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  EXPECT_FALSE(rebuilt.cache_hit);  // the artifact really was dropped
}

TEST(Engine, PerQueryCancelAndDeadline) {
  const auto graph = small_graph();
  tc::Engine engine({.num_drivers = 1});

  lotus::util::CancelToken cancelled;
  cancelled.cancel();
  tc::QueryOptions cancel_options;
  cancel_options.cancel = &cancelled;
  auto outcome =
      engine.submit({tc::Algorithm::kLotus, "g", &graph, cancel_options})
          .get();
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  EXPECT_EQ(outcome.value().status.code(), StatusCode::kCancelled);
  EXPECT_EQ(outcome.value().result.triangles, 0u);

  tc::QueryOptions deadline_options;
  deadline_options.deadline = lotus::util::Deadline::after(0.0);
  outcome =
      engine.submit({tc::Algorithm::kLotus, "g", &graph, deadline_options})
          .get();
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  EXPECT_EQ(outcome.value().status.code(), StatusCode::kDeadlineExceeded);

  // The engine (and its cache) must be fully usable afterwards.
  const auto clean = get_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  EXPECT_EQ(clean.result.triangles, lotus::baselines::brute_force(graph));
}

TEST(Engine, ProfiledQueryCarriesEngineProvenance) {
  const auto graph = small_graph();
  tc::Engine engine({.num_drivers = 1});
  tc::QueryOptions options;
  options.profile = true;
  (void)get_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, options}));
  const auto hit =
      get_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, options}));

  ASSERT_TRUE(hit.profile.has_value());
  const tc::ProfileReport& report = *hit.profile;
  EXPECT_TRUE(report.engine_served);
  EXPECT_TRUE(report.cache_hit);
  EXPECT_GE(report.queue_s, 0.0);
  EXPECT_EQ(report.result.preprocess_s, 0.0);
  // The schema-v4 engine section is present exactly because engine_served.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit\": true"), std::string::npos);
  // Query-scoped counter provenance: totals only, no per-thread rows.
  EXPECT_TRUE(report.counters.threads.empty());
  if (lotus::obs::enabled()) {
    EXPECT_GT(report.counters[lotus::obs::Counter::kParallelChunks], 0u);
  }
}

TEST(Engine, EngineMetricsExportAggregates) {
  const auto graph = small_graph();
  tc::Engine engine({.num_drivers = 1});
  (void)get_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  (void)get_ok(engine.submit({tc::Algorithm::kLotus, "g", &graph, {}}));
  const std::string json = engine.metrics().to_json_string();
  EXPECT_NE(json.find("\"schema_version\": \"lotus-metrics/8\""),
            std::string::npos);
  EXPECT_NE(json.find("\"component\": \"tc-engine\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_hits\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"cache_misses\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"cache_lookups\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"engine_telemetry\""), std::string::npos);
  const std::string csv = engine.metrics().to_csv();
  EXPECT_NE(csv.find("engine,cache_hits,1"), std::string::npos);
  EXPECT_NE(csv.find("engine_telemetry,queries_recorded,2"), std::string::npos);
}

TEST(Engine, RejectsNullGraphWithoutAttempting) {
  tc::Engine engine({.num_drivers = 1});
  auto outcome = engine.submit({tc::Algorithm::kLotus, "g", nullptr, {}}).get();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.stats().rejected, 1u);
}

TEST(Engine, ShutdownFailsUnstartedQueriesCleanly) {
  const auto graph = small_graph();
  const auto expected = lotus::baselines::brute_force(graph);
  // One driver, a burst of queries, immediate destruction: every future must
  // resolve — either with a real (attempted) result or with the
  // never-attempted kCancelled rejection. Nothing may hang or leak.
  std::vector<std::future<lotus::util::Expected<tc::QueryResult>>> futures;
  {
    tc::Engine engine({.num_drivers = 1});
    for (int i = 0; i < 8; ++i)
      futures.push_back(
          engine.submit({tc::Algorithm::kForwardMerge, "g", &graph, {}}));
    futures.front().wait();  // ensure at least one query is attempted
  }
  int attempted = 0, rejected = 0;
  for (auto& future : futures) {
    auto outcome = future.get();
    if (outcome.ok()) {
      ++attempted;
      EXPECT_EQ(outcome.value().result.triangles, expected);
    } else {
      ++rejected;
      EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);
    }
  }
  EXPECT_EQ(attempted + rejected, 8);
  EXPECT_GE(attempted, 1);  // the in-flight query completes
}

TEST(Engine, SyncQueryConvenienceWrapper) {
  const auto graph = small_graph();
  tc::Engine engine({.num_drivers = 1});
  const auto outcome =
      engine.query({tc::Algorithm::kAdaptive, "g", &graph, {}});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().result.triangles,
            lotus::baselines::brute_force(graph));
}

TEST(PreparedGraph, QueryPreparedMatchesEndToEnd) {
  const auto graph = small_graph();
  const auto expected = lotus::baselines::brute_force(graph);
  const auto oriented = tc::PreparedGraph::build(tc::ArtifactKind::kOriented,
                                                 graph);
  EXPECT_GT(oriented.bytes(), 0u);
  EXPECT_GT(oriented.build_s(), 0.0);
  for (const auto algorithm :
       {tc::Algorithm::kForwardMerge, tc::Algorithm::kForwardHybrid,
        tc::Algorithm::kBlocked}) {
    const auto r = tc::query_prepared(algorithm, graph, oriented);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().ok()) << r.value().status.to_string();
    EXPECT_EQ(r.value().result.triangles, expected) << tc::name(algorithm);
    EXPECT_EQ(r.value().result.preprocess_s, 0.0);
  }
  const auto lotus_artifact =
      tc::PreparedGraph::build(tc::ArtifactKind::kLotus, graph);
  for (const auto algorithm :
       {tc::Algorithm::kLotus, tc::Algorithm::kAdaptive}) {
    const auto r = tc::query_prepared(algorithm, graph, lotus_artifact);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().ok());
    EXPECT_EQ(r.value().result.triangles, expected) << tc::name(algorithm);
  }
}

TEST(PreparedGraph, LotusArtifactIsJustTheLotusGraph) {
  // A low-skew graph (adaptive would pick Forward) still gets no oriented CSR
  // in its kLotus artifact: the bytes are exactly the LotusGraph topology.
  const auto graph = g::build_undirected(g::erdos_renyi(2000, 10.0, 3));
  const auto artifact =
      tc::PreparedGraph::build(tc::ArtifactKind::kLotus, graph);
  ASSERT_NE(artifact.lotus(), nullptr);
  EXPECT_EQ(artifact.oriented(), nullptr);
  EXPECT_EQ(artifact.bytes(), artifact.lotus()->topology_bytes());
}

TEST(PreparedGraph, SpillRoundTripServesIdenticalCounts) {
  const auto graph = small_graph();
  const auto expected = lotus::baselines::brute_force(graph);
  SpillDir dir("lotus_prepared_spill_test");
  for (const auto kind :
       {tc::ArtifactKind::kOriented, tc::ArtifactKind::kLotus}) {
    const auto built = tc::PreparedGraph::build(kind, graph);
    const std::string path = dir.str() + "/artifact.lpa";
    ASSERT_TRUE(built.save_s(path).ok());

    auto loaded = tc::PreparedGraph::load_mapped_s(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
    const tc::PreparedGraph remapped = loaded.take();
    EXPECT_EQ(remapped.kind(), built.kind());
    EXPECT_EQ(remapped.build_s(), built.build_s());
    // Zero-copy: the topology lives in the mapping, not on the heap.
    EXPECT_EQ(remapped.bytes(), 0u);

    const auto algorithm = kind == tc::ArtifactKind::kOriented
                               ? tc::Algorithm::kForwardMerge
                               : tc::Algorithm::kLotus;
    const auto r = tc::query_prepared(algorithm, graph, remapped);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().ok()) << r.value().status.to_string();
    EXPECT_EQ(r.value().result.triangles, expected);
  }
}

TEST(PreparedGraph, SpillRejectsNoneKindAndCorruptFiles) {
  SpillDir dir("lotus_prepared_spill_reject_test");
  const tc::PreparedGraph none;
  EXPECT_EQ(none.save_s(dir.str() + "/none.lpa").code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(tc::PreparedGraph::load_mapped_s(dir.str() + "/absent.lpa")
                .status()
                .code(),
            StatusCode::kIoError);

  std::FILE* f = std::fopen((dir.str() + "/garbage.lpa").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a spill artifact", f);
  std::fclose(f);
  EXPECT_EQ(tc::PreparedGraph::load_mapped_s(dir.str() + "/garbage.lpa")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(PreparedGraph, ArtifactKindMismatchIsInvalidArgument) {
  const auto graph = small_graph();
  const auto oriented =
      tc::PreparedGraph::build(tc::ArtifactKind::kOriented, graph);
  const auto r = tc::query_prepared(tc::Algorithm::kLotus, graph, oriented);
  ASSERT_TRUE(r.ok());  // attempted, failed during execution
  EXPECT_EQ(r.value().status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value().result.triangles, 0u);
}

TEST(PreparedGraph, ArtifactKindTableMatchesAlgorithmFamilies) {
  EXPECT_EQ(tc::artifact_kind(tc::Algorithm::kLotus), tc::ArtifactKind::kLotus);
  EXPECT_EQ(tc::artifact_kind(tc::Algorithm::kAdaptive),
            tc::ArtifactKind::kLotus);
  for (const auto algorithm :
       {tc::Algorithm::kForwardMerge, tc::Algorithm::kForwardGallop,
        tc::Algorithm::kForwardHashed, tc::Algorithm::kForwardBitmap,
        tc::Algorithm::kForwardHybrid, tc::Algorithm::kEdgeParallel,
        tc::Algorithm::kBlocked})
    EXPECT_EQ(tc::artifact_kind(algorithm), tc::ArtifactKind::kOriented)
        << tc::name(algorithm);
  for (const auto algorithm :
       {tc::Algorithm::kEdgeIterator, tc::Algorithm::kNodeIterator})
    EXPECT_EQ(tc::artifact_kind(algorithm), tc::ArtifactKind::kNone)
        << tc::name(algorithm);
}

}  // namespace
