// ExecContext: the cancellation/deadline environment of the current query.
//
// tc::query / tc::Engine install a ScopedExecContext on the thread that
// drives a counting run; parallel_for and the work-stealing scheduler
// capture the driver's context when a loop starts and poll it at chunk/task
// granularity (so pool workers observe the interrupt of exactly the query
// they are executing), and the LOTUS pipeline checks it between phases. The
// context latches the first interrupt any poll observes, and every later
// check reports the latch: once one poll has seen the interrupt — and work
// may have been skipped because of it — the between-phase checks and the
// caller's post-run check see it too, even if the token is re-armed
// (CancelToken::reset) in between. A partial count therefore never escapes
// as valid.
//
// Thread-safety: the installed context pointer is thread-local — each query
// driver thread carries its own, which is what lets tc::Engine run several
// queries concurrently without their cancellations cross-firing.
// check_interrupt(ctx) with a captured pointer is safe from any thread as
// long as the context outlives the parallel region (the installing scope
// guarantees that); the latch is an atomic in the per-query context.
// Overhead with no context installed: one thread-local load per chunk.
#pragma once

#include <atomic>

#include "util/cancel.hpp"

namespace lotus::parallel {

/// What, if anything, interrupted the run. Deadline wins ties only when the
/// cancel token is untouched — cancellation is the stronger, explicit signal.
enum class Interrupt { kNone, kCancelled, kDeadlineExceeded };

/// The cancellation environment of one query: either source may be absent.
struct ExecContext {
  const util::CancelToken* cancel = nullptr;
  util::Deadline deadline;
  /// The first interrupt any poll of this context observed; kNone until
  /// then. Set once by check_interrupt, never cleared.
  mutable std::atomic<Interrupt> observed{Interrupt::kNone};
};

namespace detail {
inline const ExecContext*& exec_context_ref() noexcept {
  thread_local const ExecContext* current = nullptr;
  return current;
}
}  // namespace detail

/// The context installed on the calling thread (nullptr = none). Parallel
/// primitives capture this before fanning out so workers poll the right one.
[[nodiscard]] inline const ExecContext* current_exec_context() noexcept {
  return detail::exec_context_ref();
}

/// Poll an explicit (usually captured) context. kNone for nullptr. Returns
/// the latched interrupt if any poll has already observed one; otherwise
/// polls the token and the deadline and latches what it finds.
[[nodiscard]] inline Interrupt check_interrupt(const ExecContext* ctx) noexcept {
  if (ctx == nullptr) return Interrupt::kNone;
  Interrupt latched = ctx->observed.load(std::memory_order_acquire);
  if (latched != Interrupt::kNone) return latched;
  Interrupt now = Interrupt::kNone;
  if (ctx->cancel != nullptr && ctx->cancel->cancelled())
    now = Interrupt::kCancelled;
  else if (ctx->deadline.expired())
    now = Interrupt::kDeadlineExceeded;
  if (now == Interrupt::kNone) return now;
  // First observer wins; a racing poll that latched first keeps its value.
  ctx->observed.compare_exchange_strong(latched, now, std::memory_order_acq_rel,
                                        std::memory_order_acquire);
  return latched == Interrupt::kNone ? now : latched;
}

/// Poll the context installed on this thread. kNone when none is installed.
[[nodiscard]] inline Interrupt check_interrupt() noexcept {
  return check_interrupt(current_exec_context());
}

[[nodiscard]] inline bool interrupted() noexcept {
  return check_interrupt() != Interrupt::kNone;
}

/// Install `context` on the calling thread for the lifetime of this object
/// (pass by pointer; the caller keeps ownership and must outlive the scope).
class ScopedExecContext {
 public:
  explicit ScopedExecContext(const ExecContext* context)
      : previous_(detail::exec_context_ref()) {
    detail::exec_context_ref() = context;
  }
  ~ScopedExecContext() { detail::exec_context_ref() = previous_; }
  ScopedExecContext(const ScopedExecContext&) = delete;
  ScopedExecContext& operator=(const ScopedExecContext&) = delete;

 private:
  const ExecContext* previous_;
};

}  // namespace lotus::parallel
