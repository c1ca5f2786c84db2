// Chaos suite (ctest label `chaos`; scripts/check_chaos.sh runs it under
// ASan with a fixed fault matrix).
//
// Every test sweeps a deterministic fault-plan matrix — site × probability ×
// seed, all through util/fault.hpp's seeded hash so a failing cell replays
// identically — and asserts the only two acceptable outcomes: the operation
// succeeds with an exactly-correct result, or it fails with a clean mapped
// Status. Crashes, hangs, leaks (ASan), and silently-wrong counts are the
// bugs this suite exists to catch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "baselines/tc_baselines.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/oocore.hpp"
#include "parallel/thread_pool.hpp"
#include "tc/api.hpp"
#include "tc/engine.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"
#include "util/status.hpp"

namespace {

namespace g = lotus::graph;
namespace tc = lotus::tc;
namespace fault = lotus::util::fault;
using lotus::util::StatusCode;

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5};

struct Oracle {
  g::CsrGraph graph;
  std::uint64_t triangles;
};

const Oracle& oracle() {
  static const Oracle o = [] {
    Oracle built;
    built.graph = g::build_undirected(
        g::rmat({.scale = 9, .edge_factor = 8, .seed = 13}));
    built.triangles = lotus::baselines::brute_force(built.graph);
    return built;
  }();
  return o;
}

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Chaos, AllocFaultsNeverCorruptCounts) {
  for (const double p : {0.3, 1.0}) {
    for (const std::uint64_t seed : kSeeds) {
      fault::ScopedFaultPlan plan(
          fault::single_site_plan(fault::Site::kAlloc, p, seed));
      for (const auto algorithm :
           {tc::Algorithm::kLotus, tc::Algorithm::kAdaptive,
            tc::Algorithm::kForwardHashed, tc::Algorithm::kForwardBitmap}) {
        const auto result = tc::query(algorithm, oracle().graph).value();
        if (result.ok()) {
          EXPECT_EQ(result.result.triangles, oracle().triangles)
              << tc::name(algorithm) << " p=" << p << " seed=" << seed;
        } else {
          EXPECT_EQ(result.status.code(), StatusCode::kOutOfMemory)
              << tc::name(algorithm) << " p=" << p << " seed=" << seed << ": "
              << result.status.to_string();
        }
      }
    }
  }
}

TEST(Chaos, AllocFaultsWithoutDegradationFailCleanly) {
  tc::QueryOptions options;
  options.allow_degradation = false;
  for (const std::uint64_t seed : kSeeds) {
    fault::ScopedFaultPlan plan(
        fault::single_site_plan(fault::Site::kAlloc, 1.0, seed));
    const auto result =
        tc::query(tc::Algorithm::kLotus, oracle().graph, options).value();
    ASSERT_FALSE(result.ok()) << "seed=" << seed;
    EXPECT_EQ(result.status.code(), StatusCode::kOutOfMemory);
  }
}

/// The oracle as a text edge list, for the external builder: its bucket
/// reads are the streamed reads (util::fileio::read_fully) that the read
/// sites fault. The heap loaders decode a mapping and read no stream.
g::CsrGraph write_oracle_edge_list(const std::string& path) {
  g::EdgeList edges{oracle().graph.num_vertices(), {}};
  for (g::VertexId v = 0; v < oracle().graph.num_vertices(); ++v)
    for (const g::VertexId u : oracle().graph.neighbors(v))
      if (v < u) edges.edges.push_back({v, u});
  EXPECT_TRUE(g::write_edge_list_text_s(path, edges).ok());
  return g::build_undirected(g::read_edge_list_text_s(path).value());
}

TEST(Chaos, ShortReadsAreRetriedToTheExactGraph) {
  TempFile file("chaos_short_read.el");
  const g::CsrGraph expected = write_oracle_edge_list(file.path());
  for (const std::uint64_t seed : kSeeds) {
    // Every read returns short; the bounded retry loop must still assemble
    // the full graph (each retry halves the request, which is progress).
    fault::ScopedFaultPlan plan(
        fault::single_site_plan(fault::Site::kReadShort, 1.0, seed));
    auto loaded = g::oocore::build_undirected_external_s(file.path());
    ASSERT_TRUE(loaded.ok()) << "seed=" << seed << ": "
                             << loaded.status().to_string();
    EXPECT_GT(fault::injected_count(fault::Site::kReadShort), 0u);
    const g::CsrGraph& graph = loaded.value();
    ASSERT_EQ(graph, expected);
    EXPECT_EQ(lotus::baselines::brute_force(graph), oracle().triangles);
  }
}

TEST(Chaos, ReadFailuresMapToIoErrorOrExactGraph) {
  TempFile file("chaos_read_fail.el");
  (void)write_oracle_edge_list(file.path());
  bool saw_failure = false;
  for (const double p : {0.5, 1.0}) {
    for (const std::uint64_t seed : kSeeds) {
      fault::ScopedFaultPlan plan(
          fault::single_site_plan(fault::Site::kReadFail, p, seed));
      auto loaded = g::oocore::build_undirected_external_s(file.path());
      if (loaded.ok()) {
        EXPECT_EQ(lotus::baselines::brute_force(loaded.value()),
                  oracle().triangles)
            << "p=" << p << " seed=" << seed;
      } else {
        saw_failure = true;
        EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
            << "p=" << p << " seed=" << seed << ": "
            << loaded.status().to_string();
        EXPECT_GT(fault::injected_count(fault::Site::kReadFail), 0u);
      }
    }
  }
  EXPECT_TRUE(saw_failure);  // p=1 must fail every seed
}

TEST(Chaos, ThreadSpawnFaultsLeaveWorkingPools) {
  for (const double p : {0.5, 1.0}) {
    for (const std::uint64_t seed : kSeeds) {
      fault::ScopedFaultPlan plan(
          fault::single_site_plan(fault::Site::kThreadSpawn, p, seed));
      lotus::parallel::ThreadPool pool(8);
      EXPECT_GE(pool.size(), 1u);
      EXPECT_LE(pool.size(), 8u);
      std::atomic<unsigned> sum{0};
      pool.execute([&](unsigned) { sum.fetch_add(1); });
      EXPECT_EQ(sum.load(), pool.size()) << "p=" << p << " seed=" << seed;
    }
  }
}

TEST(Chaos, HwcFaultsDegradeToSimulatedEvents) {
  for (const std::uint64_t seed : kSeeds) {
    fault::ScopedFaultPlan plan(
        fault::single_site_plan(fault::Site::kHwc, 1.0, seed));
    tc::QueryOptions options;
    options.profile = true;
    options.events = lotus::obs::EventSource::kHardware;
    const auto report = tc::query(tc::Algorithm::kLotus, oracle().graph, options)
                            .value()
                            .profile.value();
    ASSERT_TRUE(report.status.ok()) << report.status.to_string();
    EXPECT_EQ(report.result.triangles, oracle().triangles);
    EXPECT_EQ(report.event_source, lotus::obs::EventSource::kSimulated);
    ASSERT_FALSE(report.degradations.empty());
    EXPECT_EQ(report.degradations[0].site, "hwc");
  }
}

TEST(Chaos, EngineCancelAndEvictMidQueryStaysSane) {
  // The serving layer's chaos cell: a tiny cache budget forces evictions, a
  // canceller thread flips one query's token at varying points, and the
  // alloc fault site can veto artifact builds. Acceptable outcomes per
  // query: exact count, kCancelled, or kOutOfMemory — never a wrong count
  // presented as ok, never a hang, never a leak (ASan).
  for (const std::uint64_t seed : kSeeds) {
    fault::ScopedFaultPlan plan(
        fault::single_site_plan(fault::Site::kAlloc, 0.2, seed));
    tc::EngineOptions engine_options;
    engine_options.num_drivers = 2;
    engine_options.threads_per_query = 2;
    engine_options.cache_budget_bytes = 64 * 1024;  // forces LRU churn
    tc::Engine engine(engine_options);

    lotus::util::CancelToken token;
    std::atomic<bool> stop{false};
    std::thread canceller([&token, &stop, seed] {
      std::uint64_t spin_target = 1000 * (seed + 1);
      while (!stop.load(std::memory_order_acquire)) {
        std::atomic<std::uint64_t> spin{0};
        while (spin.fetch_add(1, std::memory_order_relaxed) < spin_target) {
        }
        token.cancel();
        token.reset();
      }
    });

    std::vector<std::future<lotus::util::Expected<tc::QueryResult>>> futures;
    for (int i = 0; i < 8; ++i) {
      tc::QueryOptions options;
      if (i % 2 == 0) options.cancel = &token;
      futures.push_back(engine.submit(
          {i % 3 == 0 ? tc::Algorithm::kForwardMerge : tc::Algorithm::kLotus,
           "chaos", &oracle().graph, options}));
      if (i == 4) engine.invalidate("chaos");  // evict under the queries
    }
    int exact = 0;
    for (auto& future : futures) {
      auto outcome = future.get();
      ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
      const auto& result = outcome.value();
      if (result.ok()) {
        EXPECT_EQ(result.result.triangles, oracle().triangles)
            << "seed=" << seed;
        ++exact;
      } else {
        EXPECT_TRUE(result.status.code() == StatusCode::kCancelled ||
                    result.status.code() == StatusCode::kOutOfMemory)
            << "seed=" << seed << ": " << result.status.to_string();
        EXPECT_EQ(result.result.triangles, 0u);
      }
    }
    stop.store(true, std::memory_order_release);
    canceller.join();
    // gap-forward is scratch-free and never cancellable here on the odd
    // indices... but cancellable even ones may still finish first; just
    // require the engine stayed alive and accounted every query.
    EXPECT_EQ(engine.stats().completed, 8u) << "seed=" << seed;
    (void)exact;
  }
}

TEST(Chaos, EverythingAtOnceStaysSaneEndToEnd) {
  // The full pipeline — write, read back, profiled run — under a plan where
  // every site can fire. Any outcome is fine except a crash, a hang, or a
  // wrong count reported as ok.
  TempFile file("chaos_everything.bin");
  ASSERT_TRUE(g::write_csr_binary_s(file.path(), oracle().graph).ok());
  for (const std::uint64_t seed : kSeeds) {
    fault::FaultPlan chaos;
    chaos.seed = seed;
    chaos.probability[static_cast<std::size_t>(fault::Site::kAlloc)] = 0.2;
    chaos.probability[static_cast<std::size_t>(fault::Site::kReadShort)] = 0.2;
    chaos.probability[static_cast<std::size_t>(fault::Site::kReadFail)] = 0.2;
    chaos.probability[static_cast<std::size_t>(fault::Site::kHwc)] = 0.2;
    fault::ScopedFaultPlan plan(chaos);

    auto loaded = g::read_csr_binary_s(file.path());
    if (!loaded.ok()) {
      // IO faults surface as kIoError; the loader's budget charge is an
      // alloc site, so kAlloc plans surface as kOutOfMemory.
      EXPECT_TRUE(loaded.status().code() == StatusCode::kIoError ||
                  loaded.status().code() == StatusCode::kOutOfMemory)
          << "seed=" << seed << ": " << loaded.status().to_string();
      continue;
    }
    tc::QueryOptions options;
    options.profile = true;
    options.events = lotus::obs::EventSource::kHardware;
    const auto report = tc::query(tc::Algorithm::kLotus, loaded.value(), options)
                            .value()
                            .profile.value();
    if (report.status.ok()) {
      EXPECT_EQ(report.result.triangles, oracle().triangles) << "seed=" << seed;
    } else {
      EXPECT_EQ(report.status.code(), StatusCode::kOutOfMemory)
          << "seed=" << seed << ": " << report.status.to_string();
      EXPECT_EQ(report.result.triangles, 0u);
    }
  }
}

}  // namespace
