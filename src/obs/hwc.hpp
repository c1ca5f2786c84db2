// Hardware event counting behind a runtime-selectable EventProvider.
//
// The paper's locality evaluation (Sec. 6, Figs. 4-5) is stated in hardware
// events: cycles, instructions, cache/TLB misses, branch mispredictions.
// This header defines the event vocabulary (`Event`, `EventCounts`), the
// `EventProvider` interface that delivers those events for a run, and the
// Linux `perf_event_open` implementation (`HwcProvider`) that reads the real
// PMU. The portable fallback — the src/simcache hardware model exposed as a
// provider — lives in simcache/sim_events.hpp so this layer stays free of
// model dependencies; callers pick a source at runtime (`--events hw|sim|off`).
//
// Per-thread groups: HwcProvider opens one counter group per attached thread
// (`attach_current_thread`, called from each pool thread), self-measuring
// with exclude_kernel so it works at perf_event_paranoid <= 2. `read()` sums
// all attached groups, scaling each counter by its enabled/running time to
// undo kernel multiplexing. On non-Linux builds, or when the syscall is
// denied (EPERM/EACCES under seccomp, ENOSYS), `create()` fails with a
// message and callers degrade to the simulated source — never abort a run.
//
// Thread-safety: attach_current_thread() may be called concurrently from
// pool threads (appends under a mutex); read() may run concurrently with
// counting (the kernel snapshots each fd atomically). One provider instance
// per run; destroying it closes every fd.
//
// Overhead: counters run freely in hardware; the only cost is ~kNumEvents
// read(2) syscalls per attached thread at each sample point (span
// boundaries), nothing on the counting paths themselves.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lotus::obs {

/// The fixed event vocabulary every provider reports. Names are part of the
/// exported schema (docs/METRICS.md, "lotus-metrics/8" hw section).
enum class Event : unsigned {
  kCycles = 0,         // CPU cycles (unhalted, user space)
  kInstructions,       // retired instructions
  kL2Misses,           // requests that missed L2 (measured as LLC accesses)
  kLlcMisses,          // last-level-cache misses (Fig. 4a)
  kDtlbMisses,         // data-TLB read misses (Fig. 4b)
  kBranchMispredicts,  // mispredicted branches (Fig. 5c)
  kCount
};

inline constexpr std::size_t kNumEvents = static_cast<std::size_t>(Event::kCount);

/// Stable schema name of an event ("cycles", "llc_misses", ...).
[[nodiscard]] const char* event_name(Event event) noexcept;

/// Where a run's event numbers came from. Stamped into every report so
/// simulated numbers are never mistaken for measured ones.
enum class EventSource { kOff, kSimulated, kHardware };

/// Schema name of a source: "off", "simulated", "hardware".
[[nodiscard]] const char* event_source_name(EventSource source) noexcept;

/// Parse a CLI spelling: "off", "sim"/"simulated", "hw"/"hardware".
[[nodiscard]] std::optional<EventSource> parse_event_source(std::string_view text);

/// One sample of every event. Providers return cumulative counts; span
/// deltas are differences of two samples.
struct EventCounts {
  std::array<std::uint64_t, kNumEvents> value{};

  [[nodiscard]] std::uint64_t operator[](Event event) const noexcept {
    return value[static_cast<std::size_t>(event)];
  }
  [[nodiscard]] std::uint64_t& operator[](Event event) noexcept {
    return value[static_cast<std::size_t>(event)];
  }

  /// True when any event is nonzero.
  [[nodiscard]] bool any() const noexcept {
    for (const std::uint64_t v : value)
      if (v != 0) return true;
    return false;
  }

  EventCounts& operator+=(const EventCounts& other) noexcept {
    for (std::size_t i = 0; i < kNumEvents; ++i) value[i] += other.value[i];
    return *this;
  }

  /// Saturating per-event difference (counters are monotone, but multiplexer
  /// scaling can jitter a later sample below an earlier one).
  friend EventCounts operator-(const EventCounts& a, const EventCounts& b) noexcept {
    EventCounts out;
    for (std::size_t i = 0; i < kNumEvents; ++i)
      out.value[i] = a.value[i] > b.value[i] ? a.value[i] - b.value[i] : 0;
    return out;
  }
};

/// Source of hardware-event samples for one run. Implementations: the real
/// PMU (HwcProvider, below) and the simcache model
/// (simcache::SimEventProvider). A PhaseTracer with a provider attached
/// samples it at span boundaries so every span carries event deltas.
class EventProvider {
 public:
  virtual ~EventProvider() = default;

  [[nodiscard]] virtual EventSource source() const noexcept = 0;

  /// Human-readable backend tag ("perf_event_open", "simcache:SkyLakeX/÷16").
  [[nodiscard]] virtual std::string backend() const = 0;

  /// Cumulative counts since the provider was created/attached.
  [[nodiscard]] virtual EventCounts read() = 0;
};

/// Linux perf_event_open backend: per-thread self-measuring counter groups.
class HwcProvider final : public EventProvider {
 public:
  /// Probe availability and construct. Returns nullptr (with `*error`
  /// explaining why: EPERM, ENOSYS, non-Linux build, ...) when the first
  /// counter cannot be opened. The `hwc` fault site (util/fault.hpp) makes
  /// this fail deterministically — the hook the degradation tests use to
  /// simulate a locked-down container.
  static std::unique_ptr<HwcProvider> create(std::string* error = nullptr);

  ~HwcProvider() override;
  HwcProvider(const HwcProvider&) = delete;
  HwcProvider& operator=(const HwcProvider&) = delete;

  /// Open this thread's counter group. Call once from every pool thread
  /// (e.g. via ThreadPool::execute). Events the PMU cannot provide are left
  /// unavailable (their totals stay 0); returns false only when no event at
  /// all could be opened for this thread.
  bool attach_current_thread(std::string* error = nullptr);

  /// Number of threads with at least one open counter.
  [[nodiscard]] std::size_t attached_threads() const;

  [[nodiscard]] EventSource source() const noexcept override {
    return EventSource::kHardware;
  }
  [[nodiscard]] std::string backend() const override { return "perf_event_open"; }

  /// Sum over all attached threads, multiplex-scaled per counter.
  [[nodiscard]] EventCounts read() override;

 private:
  HwcProvider() = default;

  struct ThreadGroup {
    std::array<int, kNumEvents> fd;  // -1 = event unavailable on this thread
  };

  mutable std::mutex mutex_;
  std::vector<ThreadGroup> groups_;
};

}  // namespace lotus::obs
