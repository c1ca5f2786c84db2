// MemoryBudget: accounting for the big allocations, with graceful failure.
//
// A budget caps the bytes the library may commit to its large data
// structures (CSX offset/neighbour arrays, relabel buffers, the H2H bit
// array, hash/bitmap intersection scratch). Allocation sites call
// charge_current(bytes, site) *on the master thread, before the allocation*;
// when the installed budget would be exceeded — or the `alloc` fault site
// fires — a BudgetError is thrown, which tc::query's execution core catches to
// degrade to a cheaper algorithm (LOTUS -> degree-ordered forward,
// hash/bitmap intersection -> merge) or to report out_of_memory.
//
// Thread-safety: try_charge/release are atomic and callable from any
// thread, but throwing charge_current sites must stay on the query's driver
// thread (an exception escaping a pool worker would terminate). The
// *installed* budget pointer is thread-local: each query driver (a tc::query
// caller or a tc::Engine worker) installs its own budget, so concurrent
// queries account independently. With no budget installed and no fault plan
// active, charge_current is a thread-local load plus a fault-flag load.
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <string>

#include "util/fault.hpp"

namespace lotus::util {

/// Thrown when a charge would exceed the installed budget (or the `alloc`
/// fault site fires). Derives from bad_alloc so budget-oblivious callers
/// treat it as an ordinary allocation failure.
class BudgetError : public std::bad_alloc {
 public:
  BudgetError(std::string site, std::uint64_t bytes)
      : site_(std::move(site)),
        bytes_(bytes),
        what_("memory budget exceeded at site '" + site_ + "' (" +
              std::to_string(bytes_) + " bytes requested)") {}

  [[nodiscard]] const char* what() const noexcept override { return what_.c_str(); }
  [[nodiscard]] const std::string& site() const noexcept { return site_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  std::string site_;
  std::uint64_t bytes_;
  std::string what_;
};

/// Byte-accounting budget. limit 0 = unlimited (accounting only).
class MemoryBudget {
 public:
  MemoryBudget() = default;
  explicit MemoryBudget(std::uint64_t limit_bytes) : limit_(limit_bytes) {}

  /// Atomically add `bytes`; false (and no charge) when that would exceed
  /// the limit.
  [[nodiscard]] bool try_charge(std::uint64_t bytes) noexcept {
    std::uint64_t used = used_.load(std::memory_order_relaxed);
    for (;;) {
      if (limit_ != 0 && used + bytes > limit_) return false;
      if (used_.compare_exchange_weak(used, used + bytes,
                                      std::memory_order_relaxed))
        return true;
    }
  }

  void release(std::uint64_t bytes) noexcept {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Forget all charges (used when a degraded retry starts from scratch —
  /// the failed attempt's structures were freed during unwinding).
  void reset_used() noexcept { used_.store(0, std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t used() const noexcept {
    return used_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t limit() const noexcept { return limit_; }

 private:
  std::uint64_t limit_ = 0;
  std::atomic<std::uint64_t> used_{0};
};

namespace detail {
inline MemoryBudget*& current_budget_ref() noexcept {
  thread_local MemoryBudget* current = nullptr;
  return current;
}
}  // namespace detail

/// The budget charged by charge_current on this thread (nullptr = none).
[[nodiscard]] inline MemoryBudget* current_memory_budget() noexcept {
  return detail::current_budget_ref();
}

/// Install `budget` as the calling thread's current budget for one query
/// (each query driver thread carries its own; see tc/api.hpp).
class ScopedMemoryBudget {
 public:
  explicit ScopedMemoryBudget(MemoryBudget* budget)
      : previous_(detail::current_budget_ref()) {
    detail::current_budget_ref() = budget;
  }
  ~ScopedMemoryBudget() { detail::current_budget_ref() = previous_; }
  ScopedMemoryBudget(const ScopedMemoryBudget&) = delete;
  ScopedMemoryBudget& operator=(const ScopedMemoryBudget&) = delete;

 private:
  MemoryBudget* previous_;
};

/// charge_current for a site with a cheaper fallback: false (and no charge)
/// where charge_current would throw.
[[nodiscard]] inline bool try_charge_current(std::uint64_t bytes) {
  if (fault::should_fail(fault::Site::kAlloc)) return false;
  MemoryBudget* budget = current_memory_budget();
  return budget == nullptr || budget->try_charge(bytes);
}

/// Charge `bytes` at `site` against the current budget. Throws BudgetError
/// when the budget would be exceeded or the `alloc` fault site fires.
/// Master-thread only (see file comment).
inline void charge_current(std::uint64_t bytes, const char* site) {
  if (!try_charge_current(bytes)) throw BudgetError(site, bytes);
}

/// True when charges can currently fail (budget installed or alloc faults
/// possible) — lets call sites skip estimate computations otherwise.
[[nodiscard]] inline bool memory_accounting_active() {
  fault::detail::init_from_env_once();
  return current_memory_budget() != nullptr ||
         fault::detail::active_flag().load(std::memory_order_relaxed);
}

}  // namespace lotus::util
