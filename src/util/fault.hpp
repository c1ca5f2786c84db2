// Deterministic, seeded fault injection (the chaos-test backbone).
//
// A FaultPlan assigns each named site a firing probability; whether the
// n-th query of a site fires is a pure function of (seed, site, n) via a
// splitmix64 hash, so a given plan+seed replays the exact same fault
// sequence on every run, independent of thread interleaving at a site.
//
// Plans come from the LOTUS_FAULTS environment variable
// ("site:prob[,site:prob...][,seed=N]", e.g. "alloc:0.5,read_short:1,seed=7")
// or are installed programmatically by tests (ScopedFaultPlan). Sites:
//   alloc        — memory-budget charges fail (util/memory_budget.hpp)
//   read_short   — streamed file reads return short (retried;
//                  util/file_io.hpp read_fully: the external builder's
//                  bucket reads, graph/oocore.cpp)
//   read_fail    — streamed file reads fail hard with an I/O error
//   write_short  — binary graph writes return short (retried;
//                  util/file_io.hpp write_fully)
//   write_fail   — binary graph writes fail hard with an I/O error (the
//                  durability tests assert no torn file survives at the
//                  final path)
//   thread_spawn — std::thread construction fails (parallel/thread_pool.cpp)
//   hwc          — perf_event_open is refused (obs/hwc.cpp)
//   bitflip      — a committed artifact is corrupted: AtomicFileWriter flips
//                  one bit of the temp file (at a hash-derived offset) just
//                  before the rename, simulating storage bit rot on a
//                  successfully published file
//   truncate     — a committed artifact is cut short: AtomicFileWriter
//                  truncates the temp file to a hash-derived fraction before
//                  the rename, simulating a torn write that fsync missed
//   rename_fail  — AtomicFileWriter::commit's rename step fails (the temp
//                  file is discarded; the destination must be untouched)
//
// Thread-safety: should_fail() is lock-free after initialization and safe
// from any thread. Installing/clearing plans must not race with queries
// (tests install before running kernels). Overhead with no plan active:
// one relaxed atomic load.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

namespace lotus::util::fault {

enum class Site : std::size_t {
  kAlloc = 0,
  kReadShort,
  kReadFail,
  kWriteShort,
  kWriteFail,
  kThreadSpawn,
  kHwc,
  kBitflip,
  kTruncate,
  kRenameFail,
  kCount,
};

inline constexpr std::size_t kNumSites = static_cast<std::size_t>(Site::kCount);

[[nodiscard]] constexpr const char* site_name(Site site) noexcept {
  switch (site) {
    case Site::kAlloc: return "alloc";
    case Site::kReadShort: return "read_short";
    case Site::kReadFail: return "read_fail";
    case Site::kWriteShort: return "write_short";
    case Site::kWriteFail: return "write_fail";
    case Site::kThreadSpawn: return "thread_spawn";
    case Site::kHwc: return "hwc";
    case Site::kBitflip: return "bitflip";
    case Site::kTruncate: return "truncate";
    case Site::kRenameFail: return "rename_fail";
    case Site::kCount: break;
  }
  return "unknown";
}

[[nodiscard]] inline std::optional<Site> parse_site(std::string_view name) {
  for (std::size_t i = 0; i < kNumSites; ++i)
    if (name == site_name(static_cast<Site>(i))) return static_cast<Site>(i);
  return std::nullopt;
}

/// Per-site probabilities in [0,1] plus the hash seed.
struct FaultPlan {
  std::array<double, kNumSites> probability{};
  std::uint64_t seed = 1;

  [[nodiscard]] bool any() const noexcept {
    for (double p : probability)
      if (p > 0.0) return true;
    return false;
  }
};

/// Parse a "site:prob[,site:prob...][,seed=N]" spec. On malformed input
/// returns nullopt and, when `error` is non-null, describes the bad token.
[[nodiscard]] inline std::optional<FaultPlan> parse_plan(std::string_view spec,
                                                         std::string* error) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view token = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (token.empty()) continue;
    const std::size_t sep = token.find_first_of(":=");
    if (sep == std::string_view::npos) {
      if (error) *error = "token '" + std::string(token) + "' has no ':'";
      return std::nullopt;
    }
    const std::string_view key = token.substr(0, sep);
    const std::string value(token.substr(sep + 1));
    char* end = nullptr;
    if (key == "seed") {
      const unsigned long long seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        if (error) *error = "bad seed '" + value + "'";
        return std::nullopt;
      }
      plan.seed = seed;
      continue;
    }
    const std::optional<Site> site = parse_site(key);
    if (!site) {
      if (error) *error = "unknown fault site '" + std::string(key) + "'";
      return std::nullopt;
    }
    const double p = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
      if (error) *error = "bad probability '" + value + "' for site '" +
                          std::string(key) + "'";
      return std::nullopt;
    }
    plan.probability[static_cast<std::size_t>(*site)] = p;
  }
  return plan;
}

namespace detail {

struct State {
  FaultPlan plan;
  std::array<std::atomic<std::uint64_t>, kNumSites> next_query{};
  std::array<std::atomic<std::uint64_t>, kNumSites> injected{};
};

inline State& state() {
  static State s;
  return s;
}

/// Active flag, separate from the plan so the inactive fast path is one
/// relaxed load.
inline std::atomic<bool>& active_flag() {
  static std::atomic<bool> active{false};
  return active;
}

inline std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One-time LOTUS_FAULTS pickup; malformed specs are reported once on
/// stderr and ignored — fault injection must never take the process down.
inline void init_from_env_once() {
  static const bool done = [] {
    const char* spec = std::getenv("LOTUS_FAULTS");
    if (spec == nullptr || *spec == '\0') return true;
    std::string error;
    const std::optional<FaultPlan> plan = parse_plan(spec, &error);
    if (!plan) {
      std::cerr << "[fault] ignoring malformed LOTUS_FAULTS='" << spec
                << "': " << error << "\n";
      return true;
    }
    state().plan = *plan;
    active_flag().store(plan->any(), std::memory_order_release);
    return true;
  }();
  (void)done;
}

}  // namespace detail

/// Install a plan programmatically (tests). Overrides any env plan and
/// resets the per-site query counters so sequences replay from the start.
inline void install_plan(const FaultPlan& plan) {
  detail::init_from_env_once();  // claim the env slot so it cannot override us later
  detail::State& s = detail::state();
  s.plan = plan;
  for (auto& counter : s.next_query) counter.store(0, std::memory_order_relaxed);
  for (auto& counter : s.injected) counter.store(0, std::memory_order_relaxed);
  detail::active_flag().store(plan.any(), std::memory_order_release);
}

/// Disable all fault injection (also discards any env plan).
inline void clear() { install_plan(FaultPlan{}); }

/// Number of times a site actually fired since the last install/clear.
[[nodiscard]] inline std::uint64_t injected_count(Site site) {
  return detail::state()
      .injected[static_cast<std::size_t>(site)]
      .load(std::memory_order_relaxed);
}

/// Should the current operation at `site` fail? Deterministic in
/// (seed, site, query index). The inactive fast path is one atomic load.
/// When `draw` is non-null it receives the site's deterministic hash for
/// this query — corruption sites use it to derive *what* to corrupt (bit
/// offset, truncation point) so replays tamper identically.
[[nodiscard]] inline bool should_fail(Site site,
                                      std::uint64_t* draw = nullptr) {
  detail::init_from_env_once();
  if (!detail::active_flag().load(std::memory_order_relaxed)) return false;
  detail::State& s = detail::state();
  const auto index = static_cast<std::size_t>(site);
  const double p = s.plan.probability[index];
  if (p <= 0.0) return false;
  const std::uint64_t n =
      s.next_query[index].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h = detail::splitmix64(
      s.plan.seed * 0x100000001b3ULL + (static_cast<std::uint64_t>(index) << 56) + n);
  if (p < 1.0) {
    // Map the hash to [0,1) with 53-bit precision.
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u >= p) return false;
  }
  if (draw != nullptr) *draw = detail::splitmix64(h);
  s.injected[index].fetch_add(1, std::memory_order_relaxed);
  return true;
}

/// RAII plan installation for tests: install on construction, disable on
/// destruction so no fault plan leaks into later tests.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan) { install_plan(plan); }
  ~ScopedFaultPlan() { clear(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

/// Convenience: a plan with one site at probability `p`.
[[nodiscard]] inline FaultPlan single_site_plan(Site site, double p,
                                                std::uint64_t seed = 1) {
  FaultPlan plan;
  plan.seed = seed;
  plan.probability[static_cast<std::size_t>(site)] = p;
  return plan;
}

}  // namespace lotus::util::fault
