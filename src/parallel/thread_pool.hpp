// Master–worker thread pool with work stealing.
//
// The paper's implementation (Sec. 5.1.3) uses a pthread master–worker model
// with futex-based synchronization and work stealing over graph partitions.
// This pool reproduces those semantics with std::thread + condition
// variables:
//   * a fixed set of persistent workers (fork–join `execute`),
//   * per-worker task deques with random-victim stealing (`run_tasks`),
//   * per-thread busy-time accounting, from which the idle-time measurements
//     of Table 9 are derived.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "parallel/padded.hpp"

namespace lotus::obs {
class CounterDomain;
class SchedEventLog;
}  // namespace lotus::obs

namespace lotus::parallel {

/// Fixed-size pool of persistent worker threads.
///
/// Thread 0 is the calling (master) thread: `execute(fn)` runs
/// `fn(0) .. fn(size()-1)` concurrently, with `fn(0)` on the caller, and
/// returns when all invocations finish. This fork–join primitive underlies
/// `parallel_for` and the work-stealing task scheduler.
class ThreadPool {
 public:
  /// Starts `num_threads - 1` workers (the caller is thread 0). Worker
  /// construction failure (std::system_error, e.g. EAGAIN under thread
  /// limits, or the `thread_spawn` fault site) is survived: the pool keeps
  /// the threads that did start — never fewer than the caller alone — and
  /// size() reports the actual concurrency.
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Actual thread count (caller + workers that really started).
  [[nodiscard]] unsigned size() const noexcept { return num_threads_; }

  /// Run `fn(thread_index)` once on every thread of the pool; blocks until
  /// all are done. Exceptions thrown by `fn` terminate (counting kernels are
  /// noexcept by design).
  void execute(const std::function<void(unsigned)>& fn);

  /// Query-scoped counter domain mirrored onto the worker threads around
  /// each job (obs/counters.hpp). The query driver installs the same domain
  /// on itself (ScopedCounterDomain) and here; set nullptr to clear. Must
  /// not change while a job is in flight.
  void set_counter_domain(obs::CounterDomain* domain) noexcept {
    counter_domain_.store(domain, std::memory_order_release);
  }

  /// Pool-scoped scheduler-event sink; overrides the process-wide sink
  /// (obs::set_sched_event_sink) for runs driven through this pool, so
  /// concurrent queries record separate timelines. Must not change while a
  /// scheduler run is in flight.
  void set_sched_sink(obs::SchedEventLog* sink) noexcept {
    sched_sink_.store(sink, std::memory_order_release);
  }
  [[nodiscard]] obs::SchedEventLog* sched_sink() const noexcept {
    return sched_sink_.load(std::memory_order_acquire);
  }

 private:
  void worker_loop(unsigned index);

  unsigned num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned remaining_ = 0;
  bool shutting_down_ = false;

  std::atomic<obs::CounterDomain*> counter_domain_{nullptr};
  std::atomic<obs::SchedEventLog*> sched_sink_{nullptr};
};

/// Task list executed with per-worker deques and random-victim stealing.
///
/// Tasks are distributed round-robin at submission; each worker drains its
/// own deque from the front and steals from the back of a random victim when
/// empty. Per-thread busy seconds are recorded so callers can compute idle
/// fractions (Table 9). When a trace sink is installed
/// (obs::set_sched_event_sink), each run also records timestamped
/// task/steal/idle events for the Chrome-trace timeline export.
/// Cancellation/deadline (parallel/exec_context.hpp) is honoured at task
/// granularity: once interrupted, remaining tasks are drained unrun, so
/// run() still returns and no task leaks into a later run.
class WorkStealingScheduler {
 public:
  using Task = std::function<void(unsigned thread_index)>;

  explicit WorkStealingScheduler(ThreadPool& pool) : pool_(pool) {}

  /// Run all tasks to completion; returns per-thread busy time in seconds.
  std::vector<double> run(std::vector<Task> tasks);

 private:
  ThreadPool& pool_;
};

namespace detail {
inline ThreadPool*& scoped_pool_ref() noexcept {
  thread_local ThreadPool* pool = nullptr;
  return pool;
}
}  // namespace detail

/// The pool `default_pool()` resolves to on the calling thread: a scoped
/// override when one is installed (tc::Engine gives each query driver its
/// own pool this way), otherwise the process-wide pool. Size defaults to
/// hardware_concurrency and may be overridden (before first use or between
/// uses) via `set_num_threads`; `set_num_threads` never touches scoped
/// pools.
ThreadPool& default_pool();
void set_num_threads(unsigned num_threads);
unsigned num_threads();

/// Route this thread's `default_pool()` to `pool` for the lifetime of this
/// object. Kernels and parallel_for pick the pool up transparently, which is
/// how one binary runs several isolated counting queries at once.
class ScopedPool {
 public:
  explicit ScopedPool(ThreadPool* pool) : previous_(detail::scoped_pool_ref()) {
    detail::scoped_pool_ref() = pool;
  }
  ~ScopedPool() { detail::scoped_pool_ref() = previous_; }
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  ThreadPool* previous_;
};

}  // namespace lotus::parallel
