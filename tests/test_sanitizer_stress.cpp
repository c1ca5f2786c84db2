// Concurrency stress tests, built to be run under sanitizers.
//
// These tests are correct (and cheap) in any build, but their real job is
// the `sanitizer` ctest label: scripts/check_sanitizers.sh builds the tree
// twice — ASan+UBSan and TSan — and runs exactly this suite, so the thread
// pool, the work-stealing scheduler, the obs counters, the atomic H2H
// writes, and a reduced differential matrix all execute under race and
// memory-error detection. Workloads are sized for the ~10x sanitizer
// slowdown: hostile interleavings, small data.
#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/tc_baselines.hpp"
#include "diff_harness.hpp"
#include "graph/builder.hpp"
#include "graph/degree_order.hpp"
#include "graph/generators.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/isa.hpp"
#include "lotus/h2h_bitarray.hpp"
#include "lotus/lotus.hpp"
#include "lotus/relabel.hpp"
#include "lotus_reference.hpp"
#include "obs/counters.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "tc/api.hpp"
#include "tc/engine.hpp"
#include "util/cancel.hpp"
#include "util/memory_budget.hpp"
#include "util/prng.hpp"

namespace {

namespace g = lotus::graph;
namespace par = lotus::parallel;

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif

TEST(SanitizerStress, PoolForkJoinRepeated) {
  par::ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<unsigned> sum{0};
    pool.execute([&](unsigned t) { sum.fetch_add(t + 1); });
    ASSERT_EQ(sum.load(), 1u + 2 + 3 + 4);
  }
}

TEST(SanitizerStress, WorkStealingManyTinyTasks) {
  par::ThreadPool pool(4);
  par::WorkStealingScheduler scheduler(pool);
  constexpr std::size_t kTasks = 2000;
  std::vector<std::atomic<int>> done(kTasks);
  std::vector<par::WorkStealingScheduler::Task> tasks;
  tasks.reserve(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i)
    tasks.emplace_back([&done, i](unsigned) { done[i].fetch_add(1); });
  scheduler.run(std::move(tasks));
  for (std::size_t i = 0; i < kTasks; ++i) ASSERT_EQ(done[i].load(), 1) << i;
}

TEST(SanitizerStress, CountersConcurrentWithSnapshot) {
  // obs documents counters_snapshot() as safe while counting is in flight;
  // hammer that contract from a reader thread racing a counting pool.
  lotus::obs::reset_counters();
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire))
      (void)lotus::obs::counters_snapshot();
  });
  par::ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    pool.execute([&](unsigned) {
      for (int i = 0; i < 100; ++i)
        lotus::obs::count(lotus::obs::Counter::kIntersectComparisons);
    });
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  if (lotus::obs::enabled()) {
    const auto snapshot = lotus::obs::counters_snapshot();
    EXPECT_GE(snapshot[lotus::obs::Counter::kIntersectComparisons],
              50u * 4 * 100);
  }
}

TEST(SanitizerStress, H2HConcurrentSetAtomic) {
  // Writers race on bits of the same 64-bit words at row boundaries — the
  // exact sharing pattern LotusGraph::build produces.
  constexpr g::VertexId kHubs = 64;
  lotus::core::TriangularBitArray bits(kHubs);
  par::ThreadPool pool(4);
  pool.execute([&](unsigned t) {
    for (g::VertexId h1 = 1; h1 < kHubs; ++h1)
      for (g::VertexId h2 = t % 2; h2 < h1; h2 += 2) bits.set_atomic(h1, h2);
  });
  EXPECT_EQ(bits.count_set_bits(), bits.num_bits());
}

TEST(SanitizerStress, ParallelForBothBackends) {
  const auto total = par::parallel_reduce_add<std::uint64_t>(
      0, 100000, 64, [](std::uint64_t i) { return i; });
  EXPECT_EQ(total, 99999ull * 100000 / 2);
}

TEST(SanitizerStress, LotusEndToEndUnderFourThreads) {
  par::set_num_threads(4);
  const auto graph =
      g::build_undirected(g::rmat({.scale = 9, .edge_factor = 8, .seed = 77}));
  const auto expected = lotus::baselines::brute_force(graph);
  const auto r = lotus::core::count_triangles(graph);
  EXPECT_EQ(r.triangles, expected);
  par::set_num_threads(0);
}

TEST(SanitizerStress, LotusBuildMatchesOracleUnderFourThreads) {
  // 2048 hubs span four 512-vertex chunks of the fill, so H2H rows written
  // by different threads share the words at their boundaries.
  par::set_num_threads(4);
  const auto graph =
      g::build_undirected(g::rmat({.scale = 12, .edge_factor = 16, .seed = 78}));
  lotus::core::LotusConfig config;
  config.hub_count = 2048;
  const auto built = lotus::core::LotusGraph::build(graph, config);
  const auto reference = lotus::test::reference_build(graph, config);
  EXPECT_TRUE(built.he() == reference.he());
  EXPECT_TRUE(built.nhe() == reference.nhe());
  EXPECT_TRUE(built.h2h().words() == reference.h2h().words());
  EXPECT_GT(built.h2h().count_set_bits(), 0u);
  par::set_num_threads(0);
}

TEST(SanitizerStress, LotusBuildClampsAnyRelabelFraction) {
  // LotusGraph::build is reachable without tc::validate: a fraction outside
  // [0, 1] must clamp, with no out-of-range float-to-integer conversion
  // (the ASan tree adds -fsanitize=float-cast-overflow).
  const auto graph =
      g::build_undirected(g::rmat({.scale = 9, .edge_factor = 8, .seed = 79}));
  auto relabeling = [&](double fraction) {
    lotus::core::LotusConfig config;
    config.relabel_fraction = fraction;
    return lotus::core::LotusGraph::build(graph, config).relabeling().to_vector();
  };
  const auto none = relabeling(0.0);
  const auto all = relabeling(1.0);
  EXPECT_EQ(relabeling(-1.0), none);
  EXPECT_EQ(relabeling(std::nan("")), none);
  EXPECT_EQ(relabeling(1.5), all);
  EXPECT_EQ(relabeling(1e300), all);
}

TEST(SanitizerStress, InterruptedLotusQueryIsRefusedAtAdmission) {
  // Both interrupts are already set when the query starts, so they stop at
  // the admission check, before the LOTUS build runs.
  const auto graph =
      g::build_undirected(g::rmat({.scale = 12, .edge_factor = 8, .seed = 80}));
  lotus::util::CancelToken token;
  token.cancel();
  lotus::tc::QueryOptions cancelled;
  cancelled.cancel = &token;
  const auto by_token = lotus::tc::query(lotus::tc::Algorithm::kLotus, graph, cancelled);
  ASSERT_TRUE(by_token.ok());
  EXPECT_EQ(by_token.value().status.code(), lotus::util::StatusCode::kCancelled);
  lotus::tc::QueryOptions expired;
  expired.deadline = lotus::util::Deadline::after(0.0);
  const auto by_deadline = lotus::tc::query(lotus::tc::Algorithm::kLotus, graph, expired);
  ASSERT_TRUE(by_deadline.ok());
  EXPECT_EQ(by_deadline.value().status.code(),
            lotus::util::StatusCode::kDeadlineExceeded);
}

TEST(SanitizerStress, LotusBuildInterruptedInEachPhaseReturnsFromIt) {
  // A canceller thread watches the build's memory-budget charges and cancels
  // the moment the charge that opens a phase appears, so the interrupt lands
  // inside that phase's parallel loop. The build must return from the phase
  // it stopped in: no later span opens, nothing sized from the partly filled
  // offsets is charged, and no HE/NHE output escapes. Where a round stops
  // depends on timing, so each phase is retried until a round stops in it.
  par::set_num_threads(2);
  const auto graph =
      g::build_undirected(g::rmat({.scale = 16, .edge_factor = 16, .seed = 80}));
  const std::uint64_t n = graph.num_vertices();
  lotus::core::LotusConfig config;

  // The charges of a whole build, and the running totals at which the
  // partition and the fill loops start.
  std::uint64_t full = 0, at_partition = 0, at_relabel = n * sizeof(g::VertexId);
  {
    lotus::util::MemoryBudget budget;
    lotus::util::ScopedMemoryBudget scoped(&budget);
    const auto lg = lotus::core::LotusGraph::build(graph, config);
    full = budget.used();
    const g::VertexId hubs = lg.hub_count();
    at_partition = full - lotus::core::TriangularBitArray::size_bytes_for(hubs) -
                   lg.he().num_edges() * sizeof(std::uint16_t) -
                   lg.nhe().num_edges() * sizeof(g::VertexId) -
                   par::num_threads() * ((std::uint64_t{hubs} + 63) / 64) * sizeof(std::uint64_t);
  }
  const std::uint64_t offsets = (n + 1) * 2 * sizeof(std::uint64_t);

  struct Target {
    const char* span;         // the phase the round should stop in
    std::uint64_t cancel_at;  // charge total that opens its loop
  };
  for (const Target target : {Target{"relabel", at_relabel},
                              Target{"partition", at_partition},
                              Target{"serialize", full}}) {
    bool stopped_in_target = false;
    for (int round = 0; round < 50 && !stopped_in_target; ++round) {
      lotus::util::CancelToken token;
      par::ExecContext context;
      context.cancel = &token;
      lotus::util::MemoryBudget budget;
      std::atomic<bool> done{false};
      std::thread canceller([&] {
        while (!done.load(std::memory_order_relaxed)) {
          if (budget.used() >= target.cancel_at) {
            token.cancel();
            return;
          }
        }
      });
      lotus::obs::PhaseTracer tracer;
      lotus::core::LotusGraph lg;
      {
        par::ScopedExecContext scoped_context(&context);
        lotus::util::ScopedMemoryBudget scoped_budget(&budget);
        lg = lotus::core::LotusGraph::build(graph, config, &tracer);
        done = true;
      }
      canceller.join();
      // The latch, not a fresh poll: a round whose build never saw the
      // cancel finished first and is not an interrupted build.
      if (context.observed.load() == par::Interrupt::kNone) continue;

      const std::string stopped_in = tracer.spans().back().name;
      SCOPED_TRACE(std::string(target.span) + " round " + std::to_string(round) +
                   ", stopped in " + stopped_in);
      EXPECT_EQ(lg.he().num_edges() + lg.nhe().num_edges(), 0u);
      if (stopped_in == "relabel") {
        EXPECT_LE(budget.used(), at_partition - offsets);
      } else if (stopped_in == "partition") {
        EXPECT_EQ(budget.used(), at_partition);
      } else {
        EXPECT_EQ(stopped_in, "serialize");
        EXPECT_EQ(budget.used(), full);
      }
      stopped_in_target = stopped_in == target.span;
    }
    EXPECT_TRUE(stopped_in_target) << "no round stopped in " << target.span;
  }
  par::set_num_threads(0);
}

TEST(SanitizerStress, CancelRacesRunRepeatedly) {
  // Cross-thread cancellation hammered under TSan: a canceller thread flips
  // the token at a different point of each run, so the chunk-granularity
  // interrupt checks race against real counting work. Either outcome is
  // legal per round — finished-before-cancel (exact count) or cancelled —
  // but the next round must start clean, and no task may leak.
  par::set_num_threads(4);
  const auto graph =
      g::build_undirected(g::rmat({.scale = 12, .edge_factor = 12, .seed = 9}));
  const auto expected = lotus::baselines::brute_force(graph);
  lotus::util::CancelToken token;
  lotus::tc::QueryOptions options;
  options.cancel = &token;
  for (int round = 0; round < 20; ++round) {
    token.reset();
    std::thread canceller([&token, round] {
      for (volatile int spin = 0; spin < round * 20000; ++spin) {
      }
      token.cancel();
    });
    const auto result =
        lotus::tc::query(lotus::tc::Algorithm::kLotus, graph, options).value();
    canceller.join();
    if (result.ok()) {
      ASSERT_EQ(result.result.triangles, expected) << "round " << round;
    } else {
      ASSERT_EQ(result.status.code(), lotus::util::StatusCode::kCancelled)
          << "round " << round << ": " << result.status.to_string();
    }
  }
  // The pool and global exec context must be pristine afterwards.
  token.reset();
  const auto clean =
      lotus::tc::query(lotus::tc::Algorithm::kLotus, graph, options).value();
  ASSERT_TRUE(clean.ok()) << clean.status.to_string();
  EXPECT_EQ(clean.result.triangles, expected);
  par::set_num_threads(0);
}

TEST(SanitizerStress, EngineConcurrentSubmitCancelInvalidate) {
  // The serving layer under TSan: four submitter threads race mixed
  // queries against two graph keys while a chaos thread cancels one query's
  // token and invalidates cache keys mid-flight. Every future must resolve
  // with an exact count, a clean kCancelled, or (only at shutdown) the
  // never-attempted rejection.
  const auto graph_a =
      g::build_undirected(g::rmat({.scale = 8, .edge_factor = 8, .seed = 51}));
  const auto graph_b =
      g::build_undirected(g::rmat({.scale = 8, .edge_factor = 8, .seed = 52}));
  const auto expected_a = lotus::baselines::brute_force(graph_a);
  const auto expected_b = lotus::baselines::brute_force(graph_b);

  lotus::tc::EngineOptions engine_options;
  engine_options.num_drivers = 2;
  engine_options.threads_per_query = 2;
  lotus::tc::Engine engine(engine_options);
  lotus::util::CancelToken token;
  std::atomic<bool> stop{false};
  std::thread chaos([&] {
    while (!stop.load(std::memory_order_acquire)) {
      token.cancel();
      engine.invalidate("a");
      token.reset();
      engine.invalidate("b");
      std::this_thread::yield();
    }
  });

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const bool use_a = (t + i) % 2 == 0;
        lotus::tc::QueryOptions options;
        if (i % 3 == 0) options.cancel = &token;  // some queries cancellable
        auto outcome =
            engine
                .submit({i % 2 == 0 ? lotus::tc::Algorithm::kLotus
                                    : lotus::tc::Algorithm::kForwardMerge,
                         use_a ? "a" : "b", use_a ? &graph_a : &graph_b,
                         options})
                .get();
        if (!outcome.ok()) {
          failures.fetch_add(1);  // submit-side rejection: engine is alive
          continue;
        }
        const auto& result = outcome.value();
        if (result.ok()) {
          if (result.result.triangles != (use_a ? expected_a : expected_b))
            failures.fetch_add(1);
        } else if (result.status.code() !=
                   lotus::util::StatusCode::kCancelled) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  stop.store(true, std::memory_order_release);
  chaos.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.completed, kSubmitters * kPerThread);
}

TEST(SanitizerStress, TelemetryRecordConcurrentWithSnapshot) {
  // obs::Telemetry documents record() as safe against any number of
  // concurrent record()/snapshot() calls; hammer that contract with a
  // snapshot reader racing 4 recording threads on shared shards.
  lotus::obs::Telemetry telemetry({.window_s = 1.0}, {"alpha", "beta"}, {});
  constexpr int kThreads = 4;
  constexpr int kPerThread = kTsan ? 1000 : 4000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto snap = telemetry.snapshot();
      // Mid-flight snapshots are relaxed (cross-bin skew is documented),
      // but merged totals can never exceed the whole workload.
      for (const auto& series : snap.series)
        ASSERT_LE(series.hist.count(),
                  static_cast<std::uint64_t>(kThreads) * kPerThread);
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&telemetry, t] {
      for (int i = 0; i < kPerThread; ++i) {
        lotus::obs::QuerySample sample;
        sample.algorithm = static_cast<std::size_t>(t % 2);
        sample.outcome = lotus::obs::CacheOutcome::kHit;
        sample.graph_key = "stress";
        sample.status = "ok";
        sample.total_ns = static_cast<std::uint64_t>(1000 + i);
        sample.count_ns = sample.total_ns / 2;
        telemetry.record(sample);
      }
    });
  for (auto& thread : writers) thread.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(telemetry.snapshot().queries_recorded,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(SanitizerStress, EngineStatsSnapshotsStayCoherent) {
  // Engine::stats() promises an internally consistent snapshot: counters
  // incremented together stay summable. Assert the invariants from a reader
  // thread while drivers resolve cache lookups and complete queries.
  const auto graph = g::build_undirected(
      g::rmat({.scale = 8, .edge_factor = 6, .seed = 5}));
  lotus::tc::Engine engine({.num_drivers = 2, .threads_per_query = 2});
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto stats = engine.stats();
      if (stats.cache_hits + stats.cache_misses != stats.cache_lookups)
        violations.fetch_add(1);
      if (stats.completed + stats.rejected > stats.submitted)
        violations.fetch_add(1);
      if (stats.deadline_misses > stats.completed) violations.fetch_add(1);
    }
  });
  constexpr int kQueries = kTsan ? 24 : 64;
  std::vector<std::future<lotus::util::Expected<lotus::tc::QueryResult>>>
      futures;
  futures.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i)
    futures.push_back(engine.submit({i % 2 == 0
                                         ? lotus::tc::Algorithm::kLotus
                                         : lotus::tc::Algorithm::kForwardMerge,
                                     "k" + std::to_string(i % 4), &graph,
                                     {}}));
  for (auto& future : futures) {
    auto outcome = future.get();
    ASSERT_TRUE(outcome.ok());
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(violations.load(), 0);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.cache_lookups);
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kQueries));
}

TEST(SanitizerStress, EnginePerVertexAnalyticsUnderInvalidate) {
  // Per-vertex credits go to one private row per pool thread and are summed
  // after the walk. Two drivers of two threads each run lotus local-counts
  // (the phase visitors) and forward-merge clustering (the oriented walk)
  // side by side, while invalidate() drops the artifacts between submits so
  // queries race rebuilds too; every answer must match the oracle.
  const auto graph = g::build_undirected(
      g::rmat({.scale = 8, .edge_factor = 8, .seed = 53}));
  const auto counts = lotus::test::local_counts_oracle(graph);
  std::vector<double> coefficients(graph.num_vertices(), 0.0);
  for (g::VertexId v = 0; v < graph.num_vertices(); ++v) {
    const std::uint64_t d = graph.degree(v);
    if (d >= 2)
      coefficients[v] = 2.0 * static_cast<double>(counts[v]) /
                        (static_cast<double>(d) * static_cast<double>(d - 1));
  }

  lotus::tc::EngineOptions engine_options;
  engine_options.num_drivers = 2;
  engine_options.threads_per_query = 2;
  lotus::tc::Engine engine(engine_options);
  lotus::tc::QueryOptions local_counts;
  local_counts.analytic.kind = lotus::tc::AnalyticKind::kLocalCounts;
  lotus::tc::QueryOptions clustering;
  clustering.analytic.kind = lotus::tc::AnalyticKind::kClustering;
  constexpr int kRounds = kTsan ? 4 : 8;
  int failures = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<lotus::util::Expected<lotus::tc::QueryResult>>>
        futures;
    for (int i = 0; i < 4; ++i) {
      if (i == 2) engine.invalidate("g");
      futures.push_back(engine.submit(
          i % 2 == 0
              ? lotus::tc::QuerySpec{lotus::tc::Algorithm::kLotus, "g",
                                     &graph, local_counts}
              : lotus::tc::QuerySpec{lotus::tc::Algorithm::kForwardMerge,
                                     "g", &graph, clustering}));
    }
    for (auto& future : futures) {
      auto outcome = future.get();
      ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
      const auto& result = outcome.value();
      ASSERT_TRUE(result.ok()) << result.status.to_string();
      const auto& analytics = result.result.analytics;
      if (analytics.kind == lotus::tc::AnalyticKind::kLocalCounts)
        failures += analytics.vertex_counts != counts;
      else
        failures += analytics.vertex_coefficients != coefficients;
    }
  }
  EXPECT_EQ(failures, 0);
}

TEST(SanitizerStress, PositionalMergeStaysInsideItsSlots) {
  // merge_u32's position outputs at every tier, into heap buffers of exactly
  // min(|a|, |b|) + kMergeSlack slots: an 8-lane store past that contract is
  // a heap overflow ASan reports. The lists whose stores reach furthest come
  // first, then Bernoulli samples of a small universe, so blocks hold
  // several hits and every tail length occurs.
  lotus::util::Xoshiro256 rng(97);
  const auto sample = [&rng](std::uint32_t universe, std::uint64_t percent) {
    std::vector<std::uint32_t> out;
    for (std::uint32_t x = 0; x < universe; ++x)
      if (rng.next_below(100) < percent) out.push_back(x);
    return out;
  };
  std::vector<std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>>
      cases;
  for (const std::uint32_t short_blocks : {1u, 2u, 3u})
    for (const std::uint32_t extra : {1u, 3u}) {
      auto [a, b] = lotus::test::merge_store_bound_lists(short_blocks, extra);
      cases.emplace_back(a, b);
      cases.emplace_back(b, a);
    }
  for (int round = 0; round < 300; ++round) {
    const auto universe = static_cast<std::uint32_t>(8 + rng.next_below(120));
    auto a = sample(universe, 20 + rng.next_below(80));
    cases.emplace_back(std::move(a), sample(universe, 20 + rng.next_below(80)));
  }
  namespace k = lotus::kernels;
  for (const k::Isa isa : {k::Isa::kScalar, k::Isa::kNeon, k::Isa::kAvx2,
                           k::Isa::kAvx512}) {
    const k::KernelTable& table = k::kernel_table(isa);
    for (const auto& [a, b] : cases) {
      const std::size_t slots = std::min(a.size(), b.size()) + k::kMergeSlack;
      const auto at_a = std::make_unique<std::uint32_t[]>(slots);
      const auto at_b = std::make_unique<std::uint32_t[]>(slots);
      const std::uint64_t hits = table.merge_u32(
          a.data(), a.size(), b.data(), b.size(), at_a.get(), at_b.get());
      ASSERT_EQ(hits, k::kernel_table(k::Isa::kScalar)
                          .merge_u32(a.data(), a.size(), b.data(), b.size(),
                                     nullptr, nullptr))
          << k::isa_name(isa);
      for (std::uint64_t n = 0; n < hits; ++n)
        ASSERT_EQ(a[at_a[n]], b[at_b[n]]) << k::isa_name(isa) << " hit " << n;
    }
  }
}

TEST(SanitizerStress, EngineLocalCountsAndClusteringMatchColdQueries) {
  // The per-pair visitors of both substrates under the serving layer: two
  // drivers of two threads each serve local-counts and clustering on the
  // LOTUS phases and on the oriented Forward walk, while invalidate() drops
  // the artifacts between submits. Every answer must equal a cold tc::query
  // of the same request, taken at the drivers' two threads.
  par::set_num_threads(2);
  const auto graph = g::build_undirected(
      g::rmat({.scale = 9, .edge_factor = 8, .seed = 59}));
  std::vector<lotus::tc::QuerySpec> specs;
  std::vector<lotus::tc::AnalyticsResult> cold;
  for (const auto algorithm :
       {lotus::tc::Algorithm::kLotus, lotus::tc::Algorithm::kForwardMerge})
    for (const auto kind : {lotus::tc::AnalyticKind::kLocalCounts,
                            lotus::tc::AnalyticKind::kClustering}) {
      lotus::tc::QueryOptions options;
      options.analytic.kind = kind;
      specs.push_back({algorithm, "g", &graph, options});
      const auto answer = lotus::tc::query(algorithm, graph, options);
      ASSERT_TRUE(answer.ok() && answer.value().ok());
      cold.push_back(answer.value().result.analytics);
    }

  lotus::tc::EngineOptions engine_options;
  engine_options.num_drivers = 2;
  engine_options.threads_per_query = 2;
  lotus::tc::Engine engine(engine_options);
  constexpr int kRounds = kTsan ? 3 : 6;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<lotus::util::Expected<lotus::tc::QueryResult>>>
        futures;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (i == 2) engine.invalidate("g");
      futures.push_back(engine.submit(specs[i]));
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      auto outcome = futures[i].get();
      ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
      const auto& served = outcome.value();
      ASSERT_TRUE(served.ok()) << served.status.to_string();
      const auto& got = served.result.analytics;
      EXPECT_EQ(got.vertex_counts, cold[i].vertex_counts) << "request " << i;
      EXPECT_EQ(got.vertex_coefficients, cold[i].vertex_coefficients)
          << "request " << i;
    }
  }
  par::set_num_threads(0);
}

TEST(SanitizerStress, EngineKTrussUnderInvalidate) {
  // The truss peel's supports and its triangle-index fill cursors are plain
  // u32 arrays that pool workers bump through std::atomic_ref. Two drivers
  // of two threads each run full-granularity ktruss, each query once
  // unbudgeted (the index) and once under a budget that forces the merge
  // lists, while invalidate() drops the artifact between submits; every
  // answer must match a cold tc::query of the same request. The walks'
  // position rows are per thread, so the forcing budget and the cold
  // queries are taken at the drivers' two threads.
  par::set_num_threads(2);
  const auto graph = g::build_undirected(
      g::rmat({.scale = 8, .edge_factor = 8, .seed = 57}));
  lotus::tc::QueryOptions indexed;
  indexed.analytic.kind = lotus::tc::AnalyticKind::kKTruss;
  lotus::tc::QueryOptions merged = indexed;
  merged.memory_budget_bytes =
      lotus::test::merge_forcing_budget(g::degree_ordered_oriented(graph));

  lotus::tc::EngineOptions engine_options;
  engine_options.num_drivers = 2;
  engine_options.threads_per_query = 2;
  lotus::tc::Engine engine(engine_options);
  constexpr int kRounds = kTsan ? 3 : 6;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<lotus::util::Expected<lotus::tc::QueryResult>>>
        futures;
    for (int i = 0; i < 4; ++i) {
      if (i == 2) engine.invalidate("g");
      futures.push_back(engine.submit({lotus::tc::Algorithm::kForwardMerge,
                                       "g", &graph,
                                       i % 2 == 0 ? indexed : merged}));
    }
    for (int i = 0; i < 4; ++i) {
      auto outcome = futures[static_cast<std::size_t>(i)].get();
      ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
      const auto& served = outcome.value();
      ASSERT_TRUE(served.ok()) << served.status.to_string();
      const auto cold = lotus::tc::query(lotus::tc::Algorithm::kForwardMerge,
                                         graph, i % 2 == 0 ? indexed : merged);
      ASSERT_TRUE(cold.ok() && cold.value().ok());
      const auto& want = cold.value().result.analytics;
      const auto& got = served.result.analytics;
      ASSERT_FALSE(got.edge_trussness.empty());
      EXPECT_EQ(got.edge_trussness, want.edge_trussness) << "query " << i;
      EXPECT_EQ(got.truss.max_k, want.truss.max_k);
      EXPECT_EQ(got.truss.edges_in_max_truss, want.truss.edges_in_max_truss);
    }
  }
  par::set_num_threads(0);
}

TEST(SanitizerStress, DifferentialSmokeMatrix) {
  // Reduced differential matrix: adversarial corpus only, threads {1, 4}.
  const auto corpus = lotus::testing::smoke_corpus();
  const auto paths = lotus::testing::differential_paths();
  for (const unsigned threads : {1u, 4u}) {
    par::set_num_threads(threads);
    for (const auto& spec : corpus) {
      const auto csr = g::build_undirected(spec.edges);
      const auto expected = lotus::baselines::brute_force(csr);
      for (const auto& path : paths) {
        EXPECT_EQ(path.count(csr, spec.config), expected)
            << spec.name << " via " << path.name << " threads=" << threads;
      }
    }
  }
  par::set_num_threads(0);
}

}  // namespace
