// Flat dynamic bitset.
//
// Used by the Latapy-style bitmap intersection baseline and by tests. The
// LOTUS H2H structure has its own triangular bit array (lotus/h2h_bitarray.hpp)
// because its addressing scheme is part of the algorithm.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace lotus::util {

class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::uint64_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  [[nodiscard]] std::uint64_t size() const noexcept { return num_bits_; }

  void set(std::uint64_t i) noexcept { words_[i >> 6] |= 1ULL << (i & 63); }
  void clear(std::uint64_t i) noexcept { words_[i >> 6] &= ~(1ULL << (i & 63)); }
  [[nodiscard]] bool test(std::uint64_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void reset() { std::fill(words_.begin(), words_.end(), 0); }

  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (std::uint64_t w : words_) total += static_cast<std::uint64_t>(__builtin_popcountll(w));
    return total;
  }

 private:
  std::uint64_t num_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace lotus::util
