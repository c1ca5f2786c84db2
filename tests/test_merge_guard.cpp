// merge_u32 never reads past either list, at any tier. Each list ends flush
// against a PROT_NONE page, so a lane loaded past its last entry faults.
// ASan does not instrument SIMD loads made through intrinsics, so this guard
// page is what catches an unmasked partial block. The suite carries the
// `sanitizer` label, so scripts/check_sanitizers.sh runs it under ASan+UBSan
// and TSan as well.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "kernels/dispatch.hpp"
#include "kernels/isa.hpp"

namespace {

namespace k = lotus::kernels;

// Two mapped pages, the second PROT_NONE: a list of n entries placed by
// place() ends at the last readable byte.
class GuardedList {
 public:
  GuardedList() {
    page_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    void* map = mmap(nullptr, 2 * page_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) return;
    base_ = static_cast<char*>(map);
    if (mprotect(base_ + page_, page_, PROT_NONE) != 0) {
      munmap(base_, 2 * page_);
      base_ = nullptr;
    }
  }
  ~GuardedList() {
    if (base_ != nullptr) munmap(base_, 2 * page_);
  }
  GuardedList(const GuardedList&) = delete;
  GuardedList& operator=(const GuardedList&) = delete;

  [[nodiscard]] bool ok() const { return base_ != nullptr; }

  // Copies `values` so that its last entry is the page's last u32.
  const std::uint32_t* place(const std::vector<std::uint32_t>& values) {
    auto* end = reinterpret_cast<std::uint32_t*>(base_ + page_);
    std::copy(values.begin(), values.end(), end - values.size());
    return end - values.size();
  }

 private:
  std::size_t page_ = 0;
  char* base_ = nullptr;
};

struct Result {
  std::uint64_t hits = 0;
  std::vector<std::uint32_t> at_a, at_b;
};

// One merge_u32 call: counting, or with positions for a (and b when
// `both`). Only the first `hits` positions are kept.
Result merge(const k::KernelTable& table, const std::uint32_t* a,
             std::size_t na, const std::uint32_t* b, std::size_t nb,
             bool positions, bool both) {
  Result r;
  if (!positions) {
    r.hits = table.merge_u32(a, na, b, nb, nullptr, nullptr);
    return r;
  }
  const std::size_t slots = std::min(na, nb) + k::kMergeSlack;
  r.at_a.assign(slots, 0);
  r.at_b.assign(slots, 0);
  r.hits = table.merge_u32(a, na, b, nb, r.at_a.data(),
                           both ? r.at_b.data() : nullptr);
  r.at_a.resize(r.hits);
  r.at_b.resize(both ? r.hits : 0);
  return r;
}

TEST(KernelMerge, NeverReadsPastEitherList) {
  GuardedList short_page, long_page;
  ASSERT_TRUE(short_page.ok() && long_page.ok()) << "mmap/mprotect failed";
  // The 40-entry list: evens 0..78. A short list starting at `shift` either
  // ends inside it (0) or runs past its maximum (61), so each list in turn
  // is the one whose last partial block is loaded.
  std::vector<std::uint32_t> long_values(40);
  for (std::uint32_t i = 0; i < 40; ++i) long_values[i] = 2 * i;
  const std::uint32_t* lng = long_page.place(long_values);
  const k::KernelTable& scalar = k::kernel_table(k::Isa::kScalar);

  for (const std::uint32_t shift : {0u, 61u})
    for (std::size_t n = 0; n <= 20; ++n) {
      std::vector<std::uint32_t> short_values(n);
      for (std::size_t i = 0; i < n; ++i)
        short_values[i] = shift + 3 * static_cast<std::uint32_t>(i);
      const std::uint32_t* shrt = short_page.place(short_values);
      for (const k::Isa isa : {k::Isa::kScalar, k::Isa::kNeon, k::Isa::kAvx2,
                               k::Isa::kAvx512}) {
        const k::KernelTable& table = k::kernel_table(isa);
        for (const bool swapped : {false, true}) {
          const std::uint32_t* a = swapped ? lng : shrt;
          const std::uint32_t* b = swapped ? shrt : lng;
          const std::size_t na = swapped ? 40 : n;
          const std::size_t nb = swapped ? n : 40;
          for (const auto& [positions, both] :
               {std::pair{false, false}, {true, false}, {true, true}}) {
            SCOPED_TRACE(std::string(k::isa_name(isa)) +
                         " shift=" + std::to_string(shift) +
                         " n=" + std::to_string(n) +
                         (swapped ? " long first" : " short first") +
                         (positions ? (both ? " a+b" : " a") : " count"));
            const Result want = merge(scalar, a, na, b, nb, positions, both);
            const Result got = merge(table, a, na, b, nb, positions, both);
            EXPECT_EQ(got.hits, want.hits);
            EXPECT_EQ(got.at_a, want.at_a);
            EXPECT_EQ(got.at_b, want.at_b);
          }
        }
      }
    }
}

}  // namespace
