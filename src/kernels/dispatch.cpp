#include "kernels/dispatch.hpp"

#include <cstring>

namespace lotus::kernels {

namespace {

// Scalar reference kernels. The merge is the branch-free loop of
// detail::merge_branchless rather than the branching merge of
// baselines/intersect.hpp: the dispatched fast path has no probe to report
// branches to, so the branchless form is strictly better here. Counts are
// identical.
std::uint64_t merge_u32_scalar(const std::uint32_t* a, std::size_t na,
                               const std::uint32_t* b, std::size_t nb,
                               std::uint32_t* pos_a, std::uint32_t* pos_b) {
  if (pos_b != nullptr)
    return detail::merge_branchless<true, true>(a, na, b, nb, 0, 0, 0, pos_a,
                                                pos_b);
  if (pos_a != nullptr)
    return detail::merge_branchless<true>(a, na, b, nb, 0, 0, 0, pos_a);
  return detail::merge_branchless(a, na, b, nb);
}

std::uint64_t hits_bitset_scalar(const std::uint32_t* keys, std::size_t count,
                                 const std::uint64_t* bits) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < count; ++i)
    total += (bits[keys[i] >> 6] >> (keys[i] & 63)) & 1ULL;
  return total;
}

void checksum_stripes_scalar(std::uint64_t* acc, const unsigned char* data,
                             std::size_t stripes) {
  for (std::size_t s = 0; s < stripes; ++s, data += 64) {
    for (std::size_t j = 0; j < 8; ++j) {
      std::uint64_t x;
      std::memcpy(&x, data + 8 * j, 8);
      const std::uint64_t k = x ^ kChecksumSecret[j];
      acc[j ^ 1] += x;
      acc[j] += (k & 0xffffffffULL) * (k >> 32);
    }
  }
}

constexpr KernelTable kScalarTable = {
    Isa::kScalar,
    &merge_u32_scalar,
    &hits_bitset_scalar,
    &checksum_stripes_scalar,
};

}  // namespace

namespace detail {
const KernelTable& scalar_kernel_table() noexcept { return kScalarTable; }
}  // namespace detail

const KernelTable& kernel_table(Isa isa) noexcept {
  switch (clamp_to_supported(isa)) {
    case Isa::kAvx512:
      if (const KernelTable* t = detail::avx512_kernel_table()) return *t;
      break;
    case Isa::kAvx2:
      if (const KernelTable* t = detail::avx2_kernel_table()) return *t;
      break;
    case Isa::kNeon:
      if (const KernelTable* t = detail::neon_kernel_table()) return *t;
      break;
    case Isa::kScalar:
      break;
  }
  return kScalarTable;
}

const KernelTable& kernel_table() noexcept { return kernel_table(active_isa()); }

}  // namespace lotus::kernels
