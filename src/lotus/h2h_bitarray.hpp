// H2H: the triangular hub-to-hub adjacency bit array (Sec. 4.2).
//
// For hubs h1 > h2, bit h1·(h1−1)/2 + h2 records whether the edge (h1, h2)
// exists. The layout is "h1-major": all h2 bits of one h1 are consecutive,
// so the inner loop of HHH/HHN counting walks sequential bits and the base
// offset h1·(h1−1)/2 is computed once per h1 (Sec. 4.4.1).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/types.hpp"
#include "util/array_ref.hpp"

namespace lotus::core {

class TriangularBitArray {
 public:
  TriangularBitArray() = default;

  explicit TriangularBitArray(graph::VertexId hub_count)
      : hub_count_(hub_count),
        num_bits_(static_cast<std::uint64_t>(hub_count) * (hub_count - 1) / 2),
        words_(std::vector<std::uint64_t>((num_bits_ + 63) / 64, 0)) {}

  /// Reconstruct from serialized words (lotus/serialize.*) — owned vector or
  /// a view into an mmap'ed artifact. `words` must be exactly the size the
  /// hub count implies. A view-backed array is read-only: set_atomic may not
  /// be called on it (deserialized H2H bits are final).
  TriangularBitArray(graph::VertexId hub_count,
                     util::ConstArray<std::uint64_t> words)
      : hub_count_(hub_count),
        num_bits_(static_cast<std::uint64_t>(hub_count) * (hub_count - 1) / 2) {
    if (words.size() != (num_bits_ + 63) / 64)
      throw std::invalid_argument("H2H word count does not match hub count");
    words_ = std::move(words);
  }

  /// Raw 64-bit words, for serialization.
  [[nodiscard]] const util::ConstArray<std::uint64_t>& words() const noexcept {
    return words_;
  }

  /// Heap bytes pinned (0 when the words view an mmap'ed artifact).
  [[nodiscard]] std::uint64_t owned_bytes() const noexcept {
    return words_.owned_bytes();
  }

  [[nodiscard]] graph::VertexId hub_count() const noexcept { return hub_count_; }
  [[nodiscard]] std::uint64_t num_bits() const noexcept { return num_bits_; }
  [[nodiscard]] std::uint64_t size_bytes() const noexcept { return words_.size() * 8; }

  /// Bytes a bit array for `hub_count` hubs will occupy — lets callers
  /// charge a memory budget before constructing one.
  [[nodiscard]] static constexpr std::uint64_t size_bytes_for(
      graph::VertexId hub_count) noexcept {
    const std::uint64_t bits =
        static_cast<std::uint64_t>(hub_count) * (hub_count - 1) / 2;
    return (bits + 63) / 64 * 8;
  }

  static constexpr std::uint64_t bit_index(graph::VertexId h1, graph::VertexId h2) noexcept {
    return static_cast<std::uint64_t>(h1) * (h1 - 1) / 2 + h2;
  }

  /// Base offset for row h1; add h2 to address bits of the row (reused
  /// across the inner loop of Alg. 3 line 4).
  static constexpr std::uint64_t row_base(graph::VertexId h1) noexcept {
    return static_cast<std::uint64_t>(h1) * (h1 - 1) / 2;
  }

  /// Thread-safe set; preprocessing writes bits of different vertices that
  /// can share a 64-bit word at row boundaries. Uses std::atomic_ref on the
  /// plain word storage (not a reinterpret_cast, which is UB and invisible
  /// to TSan); plain readers may only run after the writing phase joins.
  /// Owned storage only — a view-backed (mapped) array is read-only.
  void set_atomic(graph::VertexId h1, graph::VertexId h2) noexcept {
    std::uint64_t* mutable_words = words_.mutable_data();
    assert(mutable_words != nullptr && "set_atomic on a mapped H2H array");
    const std::uint64_t bit = bit_index(h1, h2);
    std::atomic_ref<std::uint64_t> word(mutable_words[bit >> 6]);
    word.fetch_or(1ULL << (bit & 63), std::memory_order_relaxed);
  }

  /// Set (h1, h) for every h of `row`, which is sorted ascending with every
  /// h < h1: one atomic OR per touched word instead of one per bit. Rows of
  /// neighbouring hubs share the words at their boundaries, so the ORs stay
  /// atomic. Owned storage only, like set_atomic.
  void set_row_atomic(graph::VertexId h1, std::span<const std::uint16_t> row) noexcept {
    std::uint64_t* mutable_words = words_.mutable_data();
    assert(mutable_words != nullptr && "set_row_atomic on a mapped H2H array");
    const std::uint64_t base = row_base(h1);
    std::uint64_t word_index = 0, bits = 0;
    auto flush = [&] {
      if (bits != 0)
        std::atomic_ref<std::uint64_t>(mutable_words[word_index])
            .fetch_or(bits, std::memory_order_relaxed);
    };
    for (const std::uint16_t h : row) {
      const std::uint64_t bit = base + h;
      if (bit >> 6 != word_index) {
        flush();
        word_index = bit >> 6;
        bits = 0;
      }
      bits |= 1ULL << (bit & 63);
    }
    flush();
  }

  [[nodiscard]] bool test(graph::VertexId h1, graph::VertexId h2) const noexcept {
    return test_bit(bit_index(h1, h2));
  }

  [[nodiscard]] bool test_bit(std::uint64_t bit) const noexcept {
    return (words_[bit >> 6] >> (bit & 63)) & 1ULL;
  }

  /// popcount(row h1 & mask): how many h2 with their bit set in `mask`
  /// (bit h2 at mask[h2 >> 6]) have (h1, h2) set — the word-level form of
  /// testing every member of the mask against row h1, as the HHH/HHN
  /// popcount path does. The mask covers h2 < 64·live_words; it must be
  /// zero at every h2 >= h1 (those bits belong to the next rows), so
  /// live_words <= ⌈h1/64⌉. Row h1 starts at bit row_base(h1), which has no
  /// word alignment, so each window word is stitched from two stored words.
  [[nodiscard]] std::uint64_t row_hits(graph::VertexId h1,
                                       const std::uint64_t* mask,
                                       std::size_t live_words) const noexcept {
    const std::uint64_t offset = row_base(h1);
    const std::uint64_t* words = words_.data() + (offset >> 6);
    const std::size_t words_left = words_.size() - (offset >> 6);
    const unsigned shift = static_cast<unsigned>(offset & 63);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < live_words; ++i) {
      std::uint64_t window = words[i] >> shift;
      // The straddling high half; the last stored word has no successor,
      // and the mask is zero wherever the window runs past the row.
      if (shift != 0 && i + 1 < words_left) window |= words[i + 1] << (64 - shift);
      total += static_cast<std::uint64_t>(__builtin_popcountll(window & mask[i]));
    }
    return total;
  }

  /// Address of the word containing `bit` — what the hardware actually
  /// loads; used by the instrumented replays and cacheline histograms.
  [[nodiscard]] const void* word_address(std::uint64_t bit) const noexcept {
    return &words_[bit >> 6];
  }

  [[nodiscard]] std::uint64_t count_set_bits() const noexcept {
    std::uint64_t total = 0;
    for (std::uint64_t w : words_) total += static_cast<std::uint64_t>(__builtin_popcountll(w));
    return total;
  }

  /// Fraction of 64-byte-aligned blocks whose 512 bits are all zero
  /// (Table 8, column 3).
  [[nodiscard]] double zero_cacheline_fraction() const noexcept {
    if (words_.empty()) return 0.0;
    const std::size_t lines = (words_.size() + 7) / 8;
    std::size_t zero_lines = 0;
    for (std::size_t line = 0; line < lines; ++line) {
      bool all_zero = true;
      for (std::size_t w = line * 8; w < std::min(words_.size(), line * 8 + 8); ++w)
        all_zero &= words_[w] == 0;
      zero_lines += all_zero ? 1u : 0u;
    }
    return static_cast<double>(zero_lines) / static_cast<double>(lines);
  }

 private:
  graph::VertexId hub_count_ = 0;
  std::uint64_t num_bits_ = 0;
  util::ConstArray<std::uint64_t> words_;
};

}  // namespace lotus::core
