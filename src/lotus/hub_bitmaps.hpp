// Per-thread scratch rows: bitmaps over hub-ID space, shared by the LOTUS
// build (sorting long HE lists) and the counting phases (the hub phase's
// popcount path and the HNN bitmap probe), and the rows of hub IDs the
// visiting phases pack their hits into.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.hpp"
#include "util/memory_budget.hpp"

namespace lotus::core {

/// One row of `T` per thread. The constructor charges every thread's row
/// to the current memory budget up front, so it must run on the driver
/// thread; each worker allocates its own row, zeroed, on first use.
template <typename T>
class ThreadRows {
 public:
  ThreadRows(std::size_t row_size, unsigned slots, const char* site)
      : row_size_(row_size), rows_(slots) {
    util::charge_current(static_cast<std::uint64_t>(slots) * row_size_ * sizeof(T),
                         site);
  }

  [[nodiscard]] T* get(unsigned thread_index) {
    std::vector<T>& row = rows_[thread_index];
    if (row.empty()) row.assign(row_size_, T{});
    return row.data();
  }

 private:
  std::size_t row_size_;
  std::vector<std::vector<T>> rows_;
};

/// ⌈hubs/64⌉ words per thread, at most 8 KiB, so one stays L1-resident. A
/// bitmap is all-zero between uses: callers clear exactly the words they
/// set.
class HubBitmaps : public ThreadRows<std::uint64_t> {
 public:
  HubBitmaps(graph::VertexId hub_count, unsigned slots, const char* site)
      : ThreadRows((static_cast<std::size_t>(hub_count) + 63) / 64, slots, site) {}
};

}  // namespace lotus::core
