// Wall-clock timing helpers used by the benches and the per-phase execution
// breakdown (Fig. 6) and idle-time accounting (Table 9).
#pragma once

#include <chrono>

namespace lotus::util {

/// Monotonic stopwatch. `elapsed_s()` may be read while running.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates busy time across start/stop intervals (per-thread accounting).
class Accumulator {
 public:
  void start() { timer_.reset(); }
  void stop() { total_s_ += timer_.elapsed_s(); }
  [[nodiscard]] double total_s() const { return total_s_; }
  void reset() { total_s_ = 0.0; }

 private:
  Timer timer_;
  double total_s_ = 0.0;
};

}  // namespace lotus::util
