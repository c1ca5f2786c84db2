// Cooperative cancellation and deadlines.
//
// A CancelToken is flipped by any thread (cancel()) and observed inside the
// parallel loops at chunk granularity (parallel/exec_context.hpp) and
// between LOTUS phases; a Deadline is a fixed point in steady-clock time.
// A token can be re-armed (reset) while a query that holds it is still
// running, so the token itself is not what tells tc::query that work was
// skipped: the query's ExecContext latches the first interrupt any poll
// observed, and the between-phase and post-run checks read that latch
// (parallel/exec_context.hpp).
//
// Thread-safety: CancelToken is fully thread-safe (single atomic flag).
// Deadline is an immutable value after construction and safe to share.
#pragma once

#include <atomic>
#include <chrono>

namespace lotus::util {

/// One-shot cancellation flag shared between a requester thread and the
/// running computation.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Re-arm for reuse. Safe at any time: a run that already observed the
  /// cancellation keeps reporting it (its ExecContext latched it).
  void reset() noexcept { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A point in steady-clock time after which a run must wind down. The
/// default-constructed Deadline never expires.
class Deadline {
 public:
  Deadline() = default;

  /// Deadline `seconds` from now (0 or negative: already expired).
  [[nodiscard]] static Deadline after(double seconds) {
    Deadline d;
    d.has_deadline_ = true;
    d.at_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(seconds));
    return d;
  }

  [[nodiscard]] static Deadline unlimited() { return {}; }

  [[nodiscard]] bool is_unlimited() const noexcept { return !has_deadline_; }

  [[nodiscard]] bool expired() const noexcept {
    return has_deadline_ && std::chrono::steady_clock::now() >= at_;
  }

 private:
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point at_{};
};

}  // namespace lotus::util
