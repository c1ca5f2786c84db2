// Unit tests for the parallel runtime: pool fork-join, parallel_for/reduce,
// and the work-stealing task scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/fault.hpp"

namespace {

using lotus::parallel::ThreadPool;
using lotus::parallel::WorkStealingScheduler;

TEST(ThreadPool, ExecuteRunsOncePerThread) {
  ThreadPool pool(4);
  std::atomic<unsigned> calls{0};
  std::atomic<unsigned> mask{0};
  pool.execute([&](unsigned t) {
    calls.fetch_add(1);
    mask.fetch_or(1u << t);
  });
  EXPECT_EQ(calls.load(), 4u);
  EXPECT_EQ(mask.load(), 0b1111u);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.execute([&](unsigned t) { sum.fetch_add(static_cast<int>(t) + 1); });
    ASSERT_EQ(sum.load(), 1 + 2 + 3);
  }
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  bool ran = false;
  pool.execute([&](unsigned t) {
    EXPECT_EQ(t, 0u);
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::uint64_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  lotus::parallel::parallel_for(0, kN, 64,
      [&](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) hits[i].fetch_add(1);
      });
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  lotus::parallel::parallel_for(5, 5, 1,
      [&](unsigned, std::uint64_t, std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ZeroGrainIsSafe) {
  std::atomic<std::uint64_t> sum{0};
  lotus::parallel::parallel_for(0, 100, 0,
      [&](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) sum.fetch_add(i);
      });
  EXPECT_EQ(sum.load(), 99ull * 100 / 2);
}

TEST(ParallelReduce, MatchesSerialSum) {
  constexpr std::uint64_t kN = 1 << 18;
  const auto total = lotus::parallel::parallel_reduce_add<std::uint64_t>(
      0, kN, 128, [](std::uint64_t i) { return i * 3 + 1; });
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < kN; ++i) expected += i * 3 + 1;
  EXPECT_EQ(total, expected);
}

TEST(ParallelFor, ThreadIndicesStayBelowTheScopedPoolSize) {
  // Every thread index parallel_for hands its body is < num_threads(): the
  // per-thread arrays and budget charges of parallel_reduce_add, the kernels
  // and the analytics are sized with it. A ScopedPool (the Engine's
  // per-driver pool) narrows that bound for its scope only.
  const auto max_index = [] {
    std::atomic<unsigned> max_seen{0};
    lotus::parallel::parallel_for(0, 20000, 16,
        [&](unsigned t, std::uint64_t, std::uint64_t) {
          unsigned prev = max_seen.load();
          while (t > prev && !max_seen.compare_exchange_weak(prev, t)) {
          }
        });
    return max_seen.load();
  };
  for (const unsigned threads : {1u, 2u, 5u}) {
    lotus::parallel::set_num_threads(threads);
    EXPECT_LT(max_index(), lotus::parallel::num_threads()) << "threads=" << threads;
  }
  ASSERT_EQ(lotus::parallel::num_threads(), 5u);
  {
    ThreadPool narrow(2);
    lotus::parallel::ScopedPool scope(&narrow);
    EXPECT_EQ(lotus::parallel::num_threads(), 2u);
    EXPECT_LT(max_index(), 2u);
  }
  EXPECT_EQ(lotus::parallel::num_threads(), 5u);
  lotus::parallel::set_num_threads(0);
}

TEST(WorkStealing, RunsAllTasks) {
  ThreadPool pool(4);
  WorkStealingScheduler scheduler(pool);
  constexpr std::size_t kTasks = 500;
  std::vector<std::atomic<int>> done(kTasks);
  std::vector<WorkStealingScheduler::Task> tasks;
  for (std::size_t i = 0; i < kTasks; ++i)
    tasks.emplace_back([&done, i](unsigned) { done[i].fetch_add(1); });
  const auto busy = scheduler.run(std::move(tasks));
  EXPECT_EQ(busy.size(), 4u);
  for (std::size_t i = 0; i < kTasks; ++i) ASSERT_EQ(done[i].load(), 1) << i;
}

TEST(WorkStealing, SkewedTasksGetStolen) {
  // One huge task plus many small ones: with stealing, small tasks must not
  // all wait behind the big one on its home thread.
  ThreadPool pool(4);
  WorkStealingScheduler scheduler(pool);
  std::atomic<std::uint64_t> work{0};
  std::vector<WorkStealingScheduler::Task> tasks;
  tasks.emplace_back([&](unsigned) {
    volatile std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < 20'000'000; ++i) x += i;
    work.fetch_add(1);
  });
  for (int i = 0; i < 100; ++i)
    tasks.emplace_back([&](unsigned) { work.fetch_add(1); });
  const auto busy = scheduler.run(std::move(tasks));
  EXPECT_EQ(work.load(), 101u);
  // Busy time must be recorded for the thread that ran the big task.
  EXPECT_GT(*std::max_element(busy.begin(), busy.end()), 0.0);
}

TEST(WorkStealing, EmptyTaskListReturnsImmediately) {
  ThreadPool pool(2);
  WorkStealingScheduler scheduler(pool);
  const auto busy = scheduler.run({});
  EXPECT_EQ(busy.size(), 2u);
}

TEST(DefaultPool, RespectsThreadOverride) {
  lotus::parallel::set_num_threads(3);
  EXPECT_EQ(lotus::parallel::num_threads(), 3u);
  lotus::parallel::set_num_threads(0);  // back to hardware default
  EXPECT_GE(lotus::parallel::num_threads(), 1u);
}

TEST(ThreadPool, SurvivesThreadSpawnFailure) {
  // Every std::thread construction fails (thread_spawn fault site): the pool
  // must come up with just the inline master thread and still work.
  namespace fault = lotus::util::fault;
  {
    fault::ScopedFaultPlan plan(
        fault::single_site_plan(fault::Site::kThreadSpawn, 1.0));
    lotus::parallel::ThreadPool pool(8);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<unsigned> runs{0};
    pool.execute([&](unsigned) { runs.fetch_add(1); });
    EXPECT_EQ(runs.load(), 1u);
  }
  {
    // Only some spawns fail: the pool keeps the threads that did start and
    // reports the actual concurrency, and execute still runs once per thread.
    fault::ScopedFaultPlan plan(
        fault::single_site_plan(fault::Site::kThreadSpawn, 0.5, 3));
    lotus::parallel::ThreadPool pool(8);
    EXPECT_GE(pool.size(), 1u);
    EXPECT_LE(pool.size(), 8u);
    std::atomic<unsigned> runs{0};
    pool.execute([&](unsigned) { runs.fetch_add(1); });
    EXPECT_EQ(runs.load(), pool.size());
  }
}

TEST(ThreadPool, SpawnFailurePoolStillCountsCorrectly) {
  namespace fault = lotus::util::fault;
  fault::ScopedFaultPlan plan(
      fault::single_site_plan(fault::Site::kThreadSpawn, 1.0));
  lotus::parallel::ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 1u);
  // A strided sum over the degraded pool covers the range exactly once:
  // thread t takes indices t, t+size, ... — with one thread, all of them.
  constexpr unsigned kN = 257;
  std::atomic<std::uint64_t> sum{0};
  pool.execute([&](unsigned t) {
    std::uint64_t local = 0;
    for (unsigned i = t; i < kN; i += pool.size()) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(kN) * (kN - 1) / 2);
}

}  // namespace
