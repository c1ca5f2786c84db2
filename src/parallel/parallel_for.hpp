// Data-parallel loops over the default thread pool.
//
// `parallel_for` uses dynamic self-scheduling (an atomic cursor handing out
// fixed-size chunks), which matches the schedule(dynamic) idiom of graph
// kernels where per-vertex work is wildly skewed. The pool decides how a
// loop runs: `fn` sees thread indices in [0, num_threads()), so per-thread
// arrays and budget charges are sized with num_threads().
// `parallel_reduce_add` layers per-thread partial sums (padded against false
// sharing) on top.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/counters.hpp"
#include "parallel/exec_context.hpp"
#include "parallel/padded.hpp"
#include "parallel/thread_pool.hpp"

namespace lotus::parallel {

/// Invoke `fn(thread_index, begin_i, end_i)` over dynamic chunks of
/// [begin, end). `grain` is the chunk size handed to a thread per grab.
///
/// Cancellation/deadline (parallel/exec_context.hpp) is honoured at chunk
/// granularity: once check_interrupt() reports an interrupt, remaining
/// chunks are skipped and the loop returns early. Results are then partial;
/// the caller that installed the ExecContext is responsible for re-checking
/// the context and discarding them (tc::query does).
template <typename Fn>
void parallel_for(std::uint64_t begin, std::uint64_t end, std::uint64_t grain,
                  Fn&& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  // Capture the driver's cancellation context once: workers poll the
  // interrupt of exactly this query, not whatever their own thread carries.
  const ExecContext* ctx = current_exec_context();
  ThreadPool& pool = default_pool();
  if (pool.size() == 1 || end - begin <= grain) {
    if (ctx == nullptr) {
      obs::count(obs::Counter::kParallelChunks);
      fn(0u, begin, end);
      return;
    }
    // A context is installed: run chunk by chunk so even single-threaded
    // runs observe cancellation at chunk granularity.
    std::uint64_t chunks = 0;
    for (std::uint64_t b = begin;
         b < end && check_interrupt(ctx) == Interrupt::kNone; b += grain) {
      const std::uint64_t e = b + grain < end ? b + grain : end;
      ++chunks;
      fn(0u, b, e);
    }
    obs::count(obs::Counter::kParallelChunks, chunks);
    return;
  }
  std::atomic<std::uint64_t> cursor{begin};
  pool.execute([&](unsigned thread_index) {
    std::uint64_t chunks = 0;  // dead when LOTUS_OBS=0
    for (;;) {
      if (check_interrupt(ctx) != Interrupt::kNone) break;
      const std::uint64_t chunk_begin =
          cursor.fetch_add(grain, std::memory_order_relaxed);
      if (chunk_begin >= end) break;
      const std::uint64_t chunk_end =
          chunk_begin + grain < end ? chunk_begin + grain : end;
      ++chunks;
      fn(thread_index, chunk_begin, chunk_end);
    }
    obs::count(obs::Counter::kParallelChunks, chunks);
  });
}

/// Sum-reduction over [begin, end): `fn(i)` returns the per-index
/// contribution; partial sums are accumulated per thread.
template <typename T, typename Fn>
T parallel_reduce_add(std::uint64_t begin, std::uint64_t end,
                      std::uint64_t grain, Fn&& fn) {
  std::vector<Padded<T>> partial(num_threads());
  parallel_for(begin, end, grain,
               [&](unsigned thread_index, std::uint64_t b, std::uint64_t e) {
                 T local{};
                 for (std::uint64_t i = b; i < e; ++i) local += fn(i);
                 partial[thread_index].value += local;
               });
  T total{};
  for (const auto& p : partial) total += p.value;
  return total;
}

}  // namespace lotus::parallel
