// Per-thread scratch bitmaps over hub-ID space, shared by the LOTUS build
// (sorting long HE lists) and the counting phases (the hub phase's popcount
// path and the HNN bitmap probe).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.hpp"
#include "util/memory_budget.hpp"

namespace lotus::core {

/// ⌈hubs/64⌉ words per thread, at most 8 KiB, so one stays L1-resident. The
/// constructor charges every thread's bitmap to the current memory budget up
/// front, so it must run on the driver thread; each worker allocates its own
/// bitmap on first use. A bitmap is all-zero between uses: callers clear
/// exactly the words they set.
class HubBitmaps {
 public:
  HubBitmaps(graph::VertexId hub_count, unsigned slots, const char* site)
      : words_((static_cast<std::size_t>(hub_count) + 63) / 64), bitmaps_(slots) {
    util::charge_current(
        static_cast<std::uint64_t>(slots) * words_ * sizeof(std::uint64_t), site);
  }

  [[nodiscard]] std::uint64_t* get(unsigned thread_index) {
    std::vector<std::uint64_t>& bitmap = bitmaps_[thread_index];
    if (bitmap.empty()) bitmap.assign(words_, 0);
    return bitmap.data();
  }

 private:
  std::size_t words_;
  std::vector<std::vector<std::uint64_t>> bitmaps_;
};

}  // namespace lotus::core
