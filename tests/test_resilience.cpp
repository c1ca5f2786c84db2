// Resilient execution layer end to end (tc::query with cancel / deadline /
// budget options): cooperative cancellation, deadlines, memory-budget
// degradation, and the resilience section of the metrics export. Companion
// chaos coverage lives in tests/chaos/.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "baselines/tc_baselines.hpp"
#include "graph/builder.hpp"
#include "graph/degree_order.hpp"
#include "graph/generators.hpp"
#include "tc/api.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"
#include "util/memory_budget.hpp"
#include "util/status.hpp"

namespace {

namespace g = lotus::graph;
namespace tc = lotus::tc;
using lotus::util::CancelToken;
using lotus::util::Deadline;
using lotus::util::StatusCode;

g::CsrGraph small_graph() {
  return g::build_undirected(g::rmat({.scale = 9, .edge_factor = 8, .seed = 5}));
}

// Big enough that a LOTUS run takes many chunk boundaries (tens of ms),
// giving cross-thread cancellation and short deadlines something to land in.
g::CsrGraph slow_graph() {
  static const g::CsrGraph graph = g::build_undirected(
      g::rmat({.scale = 16, .edge_factor = 16, .seed = 77}));
  return graph;
}

// Every request here is well-formed, so the Expected side must hold a value;
// runtime fates (cancelled, deadline, OOM) live in QueryResult::status.
tc::QueryResult must_attempt(tc::Algorithm algorithm, const g::CsrGraph& graph,
                             const tc::QueryOptions& options = {}) {
  auto attempted = tc::query(algorithm, graph, options);
  EXPECT_TRUE(attempted.ok()) << attempted.status().to_string();
  return attempted.take();
}

TEST(Resilience, OkRunMatchesPlainRun) {
  const auto graph = small_graph();
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  const auto result = must_attempt(tc::Algorithm::kLotus, graph);
  ASSERT_TRUE(result.ok()) << result.status.to_string();
  EXPECT_EQ(result.result.triangles, expected);
}

TEST(Resilience, PreCancelledTokenReturnsCancelled) {
  CancelToken token;
  token.cancel();
  tc::QueryOptions options;
  options.cancel = &token;
  const auto result =
      must_attempt(tc::Algorithm::kLotus, small_graph(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
}

TEST(Resilience, CancelFromAnotherThread) {
  const auto graph = slow_graph();
  CancelToken token;
  tc::QueryOptions options;
  options.cancel = &token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.cancel();
  });
  const auto result = must_attempt(tc::Algorithm::kLotus, graph, options);
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
}

TEST(Resilience, ZeroDeadlineExpiresImmediately) {
  tc::QueryOptions options;
  options.deadline = Deadline::after(0.0);
  const auto result =
      must_attempt(tc::Algorithm::kLotus, small_graph(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(Resilience, MidRunDeadlineReportsPartialMetrics) {
  const auto graph = slow_graph();
  tc::QueryOptions options;
  options.deadline = Deadline::after(0.002);
  options.profile = true;
  const auto result = must_attempt(tc::Algorithm::kLotus, graph, options);
  ASSERT_TRUE(result.profile.has_value());
  const auto& report = *result.profile;
  EXPECT_EQ(report.status.code(), StatusCode::kDeadlineExceeded);
  // A partial count must never look like an answer; identity fields and
  // whatever spans completed before the deadline are kept.
  EXPECT_EQ(report.result.triangles, 0u);
  EXPECT_EQ(report.vertices, graph.num_vertices());
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"status\": \"deadline_exceeded\""), std::string::npos);
}

TEST(Resilience, PoolIsCleanAfterInterruptedRun) {
  // An interrupted run drains its scheduler tasks without running them; the
  // very next run on the same pool must produce the exact count, proving no
  // tasks leaked and no interrupt state stuck.
  const auto graph = small_graph();
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  {
    tc::QueryOptions options;
    options.deadline = Deadline::after(0.0);
    const auto interrupted =
        must_attempt(tc::Algorithm::kLotus, graph, options);
    ASSERT_FALSE(interrupted.ok());
  }
  const auto clean = must_attempt(tc::Algorithm::kLotus, graph);
  ASSERT_TRUE(clean.ok()) << clean.status.to_string();
  EXPECT_EQ(clean.result.triangles, expected);
}

TEST(Resilience, CancelTokenResetAllowsReuse) {
  const auto graph = small_graph();
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  CancelToken token;
  token.cancel();
  tc::QueryOptions options;
  options.cancel = &token;
  ASSERT_FALSE(must_attempt(tc::Algorithm::kLotus, graph, options).ok());
  token.reset();
  const auto again = must_attempt(tc::Algorithm::kLotus, graph, options);
  ASSERT_TRUE(again.ok()) << again.status.to_string();
  EXPECT_EQ(again.result.triangles, expected);
}

TEST(Resilience, TinyBudgetDegradesLotusToForwardMerge) {
  const auto graph = small_graph();
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  tc::QueryOptions options;
  options.memory_budget_bytes = 1024;  // far below the relabel buffers
  options.profile = true;
  const auto result = must_attempt(tc::Algorithm::kLotus, graph, options);
  ASSERT_TRUE(result.profile.has_value());
  const auto& report = *result.profile;
  ASSERT_TRUE(report.status.ok()) << report.status.to_string();
  EXPECT_EQ(report.result.triangles, expected);  // degraded, still exact
  ASSERT_EQ(report.degradations.size(), 1u);
  EXPECT_EQ(report.degradations[0].site, "lotus");
  EXPECT_EQ(report.degradations[0].action, "fallback=gap-forward");
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"degradations\""), std::string::npos);
  EXPECT_NE(json.find("fallback=gap-forward"), std::string::npos);
}

TEST(Resilience, TinyBudgetDegradesScratchKernelsToMerge) {
  const auto graph = small_graph();
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  for (const auto algorithm :
       {tc::Algorithm::kForwardHashed, tc::Algorithm::kForwardBitmap,
        tc::Algorithm::kForwardHybrid}) {
    tc::QueryOptions options;
    options.memory_budget_bytes = 64;  // below any scratch estimate
    const auto result = must_attempt(algorithm, graph, options);
    ASSERT_TRUE(result.ok())
        << tc::name(algorithm) << ": " << result.status.to_string();
    EXPECT_EQ(result.result.triangles, expected) << tc::name(algorithm);
  }
}

TEST(Resilience, BudgetWithoutDegradationIsOutOfMemory) {
  tc::QueryOptions options;
  options.memory_budget_bytes = 1024;
  options.allow_degradation = false;
  const auto result =
      must_attempt(tc::Algorithm::kLotus, small_graph(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kOutOfMemory);
}

TEST(Resilience, GenerousBudgetDoesNotDegrade) {
  const auto graph = small_graph();
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  tc::QueryOptions options;
  options.memory_budget_bytes = 1ull << 30;
  options.profile = true;
  const auto result = must_attempt(tc::Algorithm::kLotus, graph, options);
  ASSERT_TRUE(result.profile.has_value());
  const auto& report = *result.profile;
  ASSERT_TRUE(report.status.ok()) << report.status.to_string();
  EXPECT_EQ(report.result.triangles, expected);
  EXPECT_TRUE(report.degradations.empty());
}

TEST(Resilience, AllocFaultDegradesEvenWithoutBudget) {
  const auto graph = small_graph();
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  lotus::util::fault::ScopedFaultPlan plan(lotus::util::fault::single_site_plan(
      lotus::util::fault::Site::kAlloc, 1.0));
  const auto result = must_attempt(tc::Algorithm::kLotus, graph);
  ASSERT_TRUE(result.ok()) << result.status.to_string();
  EXPECT_EQ(result.result.triangles, expected);
}

TEST(Resilience, MergeKernelIsImmuneToAllocFaults) {
  // gap-forward charges nothing, so the alloc site never fires for it —
  // the degradation target must itself be safe under the fault plan.
  const auto graph = small_graph();
  const std::uint64_t expected = lotus::baselines::brute_force(graph);
  lotus::util::fault::ScopedFaultPlan plan(lotus::util::fault::single_site_plan(
      lotus::util::fault::Site::kAlloc, 1.0));
  const auto result = must_attempt(tc::Algorithm::kForwardMerge, graph);
  ASSERT_TRUE(result.ok()) << result.status.to_string();
  EXPECT_EQ(result.result.triangles, expected);
}

TEST(Resilience, VectorizedGapForwardChargesNothing) {
  // The degradation target: no dense side, so no charge and no throw.
  const auto oriented = g::degree_ordered_oriented(small_graph());
  lotus::util::MemoryBudget budget(1);
  lotus::util::ScopedMemoryBudget scoped(&budget);
  EXPECT_EQ(lotus::baselines::forward_merge_prepared(oriented, true),
            lotus::baselines::brute_force(small_graph()));
  EXPECT_EQ(budget.used(), 0u);
}

TEST(Resilience, ResilienceSectionDefaultsToOk) {
  tc::QueryOptions options;
  options.profile = true;
  const auto result =
      must_attempt(tc::Algorithm::kForwardMerge, small_graph(), options);
  ASSERT_TRUE(result.profile.has_value());
  const auto& report = *result.profile;
  ASSERT_TRUE(report.status.ok());
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"resilience\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  const std::string csv = report.metrics().to_csv();
  EXPECT_NE(csv.find("resilience,status,ok"), std::string::npos);
}

}  // namespace
