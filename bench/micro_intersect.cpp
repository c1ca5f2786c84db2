// Micro-benchmark: the four intersection strategies (Sec. 6.3) across list
// size ratios. Justifies LOTUS's kernel choices: merge join wins when lists
// are short and similar (NNN/HNN), galloping when sizes are wildly skewed.
// The BM_MergeU32 rows time the dispatch table's merge at every tier, in
// count mode and in the positional mode the triangle walks use.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "baselines/intersect.hpp"
#include "bench/ablations/intersect.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/intersect.hpp"
#include "util/bitset.hpp"
#include "util/prng.hpp"

namespace {

using namespace lotus::baselines;
using lotus::ablation::intersect_binary_branchfree;
using lotus::ablation::intersect_merge_branchless;

std::vector<std::uint32_t> make_sorted(std::size_t n, std::uint32_t universe,
                                       std::uint64_t seed) {
  lotus::util::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> out;
  out.reserve(n);
  std::uint32_t value = 0;
  const std::uint32_t max_gap = std::max<std::uint32_t>(1, universe / static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    value += 1 + static_cast<std::uint32_t>(rng.next_below(max_gap));
    out.push_back(value);
  }
  return out;
}

void BM_Merge(benchmark::State& state) {
  const auto a = make_sorted(static_cast<std::size_t>(state.range(0)), 1 << 20, 1);
  const auto b = make_sorted(static_cast<std::size_t>(state.range(1)), 1 << 20, 2);
  for (auto _ : state)
    benchmark::DoNotOptimize(intersect_merge<std::uint32_t>(a, b));
  state.SetItemsProcessed(state.iterations() *
                          (state.range(0) + state.range(1)));
}

void BM_Gallop(benchmark::State& state) {
  const auto a = make_sorted(static_cast<std::size_t>(state.range(0)), 1 << 20, 1);
  const auto b = make_sorted(static_cast<std::size_t>(state.range(1)), 1 << 20, 2);
  for (auto _ : state)
    benchmark::DoNotOptimize(intersect_gallop<std::uint32_t>(a, b));
  state.SetItemsProcessed(state.iterations() *
                          (state.range(0) + state.range(1)));
}

void BM_MergeBranchless(benchmark::State& state) {
  const auto a = make_sorted(static_cast<std::size_t>(state.range(0)), 1 << 20, 1);
  const auto b = make_sorted(static_cast<std::size_t>(state.range(1)), 1 << 20, 2);
  for (auto _ : state)
    benchmark::DoNotOptimize(intersect_merge_branchless<std::uint32_t>(a, b));
  state.SetItemsProcessed(state.iterations() *
                          (state.range(0) + state.range(1)));
}

void BM_BinaryBranchfree(benchmark::State& state) {
  const auto a = make_sorted(static_cast<std::size_t>(state.range(0)), 1 << 20, 1);
  const auto b = make_sorted(static_cast<std::size_t>(state.range(1)), 1 << 20, 2);
  for (auto _ : state)
    benchmark::DoNotOptimize(intersect_binary_branchfree<std::uint32_t>(a, b));
  state.SetItemsProcessed(state.iterations() *
                          (state.range(0) + state.range(1)));
}

void BM_Simd(benchmark::State& state) {
  const auto a = make_sorted(static_cast<std::size_t>(state.range(0)), 1 << 20, 1);
  const auto b = make_sorted(static_cast<std::size_t>(state.range(1)), 1 << 20, 2);
  const std::span<const std::uint32_t> sa(a), sb(b);
  for (auto _ : state)
    benchmark::DoNotOptimize(lotus::kernels::intersect(sa, sb));
  state.SetItemsProcessed(state.iterations() *
                          (state.range(0) + state.range(1)));
}

// The dispatch table's merge_u32 at one forced tier: counting (the NNN and
// Forward count paths) or reporting both lists' positions (the triangle
// walks' mode). A tier the host cannot run is skipped, not clamped.
void BM_MergeU32(benchmark::State& state, lotus::kernels::Isa isa,
                 bool positions) {
  const lotus::kernels::KernelTable& table = lotus::kernels::kernel_table(isa);
  if (table.isa != isa) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  const auto a = make_sorted(static_cast<std::size_t>(state.range(0)), 1 << 20, 1);
  const auto b = make_sorted(static_cast<std::size_t>(state.range(1)), 1 << 20, 2);
  const std::size_t slots = std::min(a.size(), b.size()) + lotus::kernels::kMergeSlack;
  std::vector<std::uint32_t> at_a(slots), at_b(slots);
  std::uint32_t* pos_a = positions ? at_a.data() : nullptr;
  std::uint32_t* pos_b = positions ? at_b.data() : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.merge_u32(a.data(), a.size(), b.data(), b.size(), pos_a, pos_b));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          (state.range(0) + state.range(1)));
}

void BM_Hashed(benchmark::State& state) {
  const auto a = make_sorted(static_cast<std::size_t>(state.range(0)), 1 << 20, 1);
  const auto b = make_sorted(static_cast<std::size_t>(state.range(1)), 1 << 20, 2);
  HashedSet<std::uint32_t> set;
  set.build(a);
  for (auto _ : state)
    benchmark::DoNotOptimize(set.count_hits(std::span<const std::uint32_t>(b)));
}

void BM_Bitmap(benchmark::State& state) {
  const auto a = make_sorted(static_cast<std::size_t>(state.range(0)), 1 << 20, 1);
  const auto b = make_sorted(static_cast<std::size_t>(state.range(1)), 1 << 20, 2);
  lotus::util::Bitset bitmap(1 << 21);
  for (auto x : a) bitmap.set(x);
  for (auto _ : state)
    benchmark::DoNotOptimize(count_bitmap_hits<std::uint32_t>(b, bitmap));
}

void SizePairs(benchmark::internal::Benchmark* b) {
  b->Args({64, 64})->Args({64, 4096})->Args({1024, 1024})->Args({16, 65536});
}

// Adds the ~8–24-entry lists of the NNN phase and the walks: {3, 5} and
// {7, 7} fit in one partial block each, and {5, 64} is the short × long
// pair whose long side the partial blocks walk eight entries at a time.
void MergePairs(benchmark::internal::Benchmark* b) {
  b->Args({3, 5})->Args({7, 7})->Args({5, 64})->Args({8, 12})->Args({24, 24})
      ->Apply(SizePairs);
}

BENCHMARK(BM_Merge)->Apply(SizePairs);
BENCHMARK(BM_MergeBranchless)->Apply(SizePairs);
BENCHMARK(BM_Gallop)->Apply(SizePairs);
BENCHMARK(BM_BinaryBranchfree)->Apply(SizePairs);
BENCHMARK(BM_Simd)->Apply(SizePairs);
BENCHMARK_CAPTURE(BM_MergeU32, scalar_count, lotus::kernels::Isa::kScalar, false)
    ->Apply(MergePairs);
BENCHMARK_CAPTURE(BM_MergeU32, scalar_positions, lotus::kernels::Isa::kScalar, true)
    ->Apply(MergePairs);
BENCHMARK_CAPTURE(BM_MergeU32, avx2_count, lotus::kernels::Isa::kAvx2, false)
    ->Apply(MergePairs);
BENCHMARK_CAPTURE(BM_MergeU32, avx2_positions, lotus::kernels::Isa::kAvx2, true)
    ->Apply(MergePairs);
BENCHMARK_CAPTURE(BM_MergeU32, avx512_count, lotus::kernels::Isa::kAvx512, false)
    ->Apply(MergePairs);
BENCHMARK_CAPTURE(BM_MergeU32, avx512_positions, lotus::kernels::Isa::kAvx512, true)
    ->Apply(MergePairs);
BENCHMARK_CAPTURE(BM_MergeU32, neon_count, lotus::kernels::Isa::kNeon, false)
    ->Apply(MergePairs);
BENCHMARK_CAPTURE(BM_MergeU32, neon_positions, lotus::kernels::Isa::kNeon, true)
    ->Apply(MergePairs);
BENCHMARK(BM_Hashed)->Apply(SizePairs);
BENCHMARK(BM_Bitmap)->Apply(SizePairs);

}  // namespace

BENCHMARK_MAIN();
