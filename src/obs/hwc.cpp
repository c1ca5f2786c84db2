#include "obs/hwc.hpp"

#include <cstring>

#include "util/fault.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace lotus::obs {

const char* event_name(Event event) noexcept {
  switch (event) {
    case Event::kCycles: return "cycles";
    case Event::kInstructions: return "instructions";
    case Event::kL2Misses: return "l2_misses";
    case Event::kLlcMisses: return "llc_misses";
    case Event::kDtlbMisses: return "dtlb_misses";
    case Event::kBranchMispredicts: return "branch_mispredicts";
    case Event::kCount: break;
  }
  return "unknown";
}

const char* event_source_name(EventSource source) noexcept {
  switch (source) {
    case EventSource::kOff: return "off";
    case EventSource::kSimulated: return "simulated";
    case EventSource::kHardware: return "hardware";
  }
  return "unknown";
}

std::optional<EventSource> parse_event_source(std::string_view text) {
  if (text == "off") return EventSource::kOff;
  if (text == "sim" || text == "simulated") return EventSource::kSimulated;
  if (text == "hw" || text == "hardware") return EventSource::kHardware;
  return std::nullopt;
}

#if defined(__linux__)

namespace {

long sys_perf_event_open(perf_event_attr* attr, pid_t pid, int cpu,
                         int group_fd, unsigned long flags) {
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

/// perf attr (type, config) for each schema event. kL2Misses has no generic
/// perf id; LLC *accesses* are the requests that missed L2, which is the
/// closest portable measurement (documented in docs/PROFILING.md).
bool event_attr(Event event, perf_event_attr& attr) {
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.exclude_kernel = 1;  // self-measurement works at perf_event_paranoid<=2
  attr.exclude_hv = 1;
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  const auto hw_cache = [](std::uint64_t cache, std::uint64_t op,
                           std::uint64_t result) {
    return cache | (op << 8) | (result << 16);
  };
  switch (event) {
    case Event::kCycles:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_CPU_CYCLES;
      return true;
    case Event::kInstructions:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_INSTRUCTIONS;
      return true;
    case Event::kL2Misses:
      attr.type = PERF_TYPE_HW_CACHE;
      attr.config = hw_cache(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
                             PERF_COUNT_HW_CACHE_RESULT_ACCESS);
      return true;
    case Event::kLlcMisses:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_CACHE_MISSES;
      return true;
    case Event::kDtlbMisses:
      attr.type = PERF_TYPE_HW_CACHE;
      attr.config = hw_cache(PERF_COUNT_HW_CACHE_DTLB, PERF_COUNT_HW_CACHE_OP_READ,
                             PERF_COUNT_HW_CACHE_RESULT_MISS);
      return true;
    case Event::kBranchMispredicts:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_BRANCH_MISSES;
      return true;
    case Event::kCount: break;
  }
  return false;
}

/// Open one self-measuring counter on the calling thread; -1 on failure.
int open_event(Event event, int* err_out = nullptr) {
  perf_event_attr attr;
  if (!event_attr(event, attr)) return -1;
  const long fd = sys_perf_event_open(&attr, /*pid=*/0, /*cpu=*/-1,
                                      /*group_fd=*/-1, /*flags=*/0);
  if (fd < 0) {
    if (err_out != nullptr) *err_out = errno;
    return -1;
  }
  return static_cast<int>(fd);
}

/// Read one counter fd, undoing kernel multiplexing via the enabled/running
/// ratio. Returns 0 for unavailable (-1) fds and on short reads.
std::uint64_t read_scaled(int fd) {
  if (fd < 0) return 0;
  std::uint64_t buffer[3] = {0, 0, 0};  // value, time_enabled, time_running
  const ssize_t got = ::read(fd, buffer, sizeof(buffer));
  if (got != static_cast<ssize_t>(sizeof(buffer))) return 0;
  if (buffer[2] == 0) return 0;  // never scheduled onto the PMU
  if (buffer[1] == buffer[2]) return buffer[0];
  const double scale =
      static_cast<double>(buffer[1]) / static_cast<double>(buffer[2]);
  return static_cast<std::uint64_t>(static_cast<double>(buffer[0]) * scale);
}

}  // namespace

std::unique_ptr<HwcProvider> HwcProvider::create(std::string* error) {
  // The `hwc` fault site (LOTUS_FAULTS=hwc:..., util/fault.hpp) pretends
  // the kernel refused the syscall, the way a perf_event_paranoid-locked
  // container does: the degradation tests' deterministic trigger.
  if (util::fault::should_fail(util::fault::Site::kHwc)) {
    if (error != nullptr)
      *error = "injected perf_event_open failure (fault site hwc)";
    return nullptr;
  }
  // Probe with the cycles counter: if the kernel refuses that, nothing else
  // in the group will open either (EPERM/EACCES: perf_event_paranoid or
  // seccomp; ENOSYS: no perf support compiled in).
  int err = 0;
  const int probe = open_event(Event::kCycles, &err);
  if (probe < 0) {
    if (error != nullptr)
      *error = std::string("perf_event_open failed: ") + std::strerror(err);
    return nullptr;
  }
  ::close(probe);
  return std::unique_ptr<HwcProvider>(new HwcProvider());
}

HwcProvider::~HwcProvider() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const ThreadGroup& group : groups_)
    for (const int fd : group.fd)
      if (fd >= 0) ::close(fd);
}

bool HwcProvider::attach_current_thread(std::string* error) {
  ThreadGroup group;
  group.fd.fill(-1);
  int first_err = 0;
  std::size_t opened = 0;
  for (std::size_t i = 0; i < kNumEvents; ++i) {
    int err = 0;
    group.fd[i] = open_event(static_cast<Event>(i), &err);
    if (group.fd[i] >= 0) ++opened;
    else if (first_err == 0) first_err = err;
  }
  if (opened == 0) {
    if (error != nullptr)
      *error = std::string("no hardware event could be opened: ") +
               std::strerror(first_err);
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  groups_.push_back(group);
  return true;
}

std::size_t HwcProvider::attached_threads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return groups_.size();
}

EventCounts HwcProvider::read() {
  std::lock_guard<std::mutex> lock(mutex_);
  EventCounts total;
  for (const ThreadGroup& group : groups_)
    for (std::size_t i = 0; i < kNumEvents; ++i)
      total.value[i] += read_scaled(group.fd[i]);
  return total;
}

#else  // !__linux__

std::unique_ptr<HwcProvider> HwcProvider::create(std::string* error) {
  if (error != nullptr) {
    *error = util::fault::should_fail(util::fault::Site::kHwc)
                 ? "injected perf_event_open failure (fault site hwc)"
                 : "perf_event_open is Linux-only";
  }
  return nullptr;
}

HwcProvider::~HwcProvider() = default;

bool HwcProvider::attach_current_thread(std::string* error) {
  if (error != nullptr) *error = "perf_event_open is Linux-only";
  return false;
}

std::size_t HwcProvider::attached_threads() const { return 0; }

EventCounts HwcProvider::read() { return {}; }

#endif  // __linux__

}  // namespace lotus::obs
