// Software prefetch along a chunk's adjacency-entry stream.
//
// The HNN and NNN loops (and the Forward hybrid) walk, for every vertex v of
// a parallel_for chunk, each entry u of v's list and then read u's own list
// from a CSR many times larger than the L2: offsets[u], then the list it
// points at — two dependent loads per entry, each likely a cache miss, for a
// merge of a handful of elements. The entries a chunk visits are one flat
// range k ∈ [offsets[chunk_begin], offsets[chunk_end]) of the stream CSR's
// neighbour array, so the addresses needed D entries from now are already
// known: at entry k the prefetcher requests the offsets entry of the
// neighbour 2·D entries ahead, then the first cache line of the list of the
// neighbour D entries ahead (whose offsets entry the earlier step brought
// in). The lookahead crosses vertex boundaries, which matters because the
// lists are short (the mean NHE list of the SK-S stand-in has ~8 entries).
// It is clamped to the chunk's last entry, so every prefetch address is
// formed from an in-bounds index. Prefetches only warm the cache: counts,
// obs counters and the probed/scalar reference paths are unaffected.
#pragma once

#include <algorithm>
#include <cstdint>

namespace lotus::kernels {

/// Prefetcher over the entries [begin, end) of one chunk of `stream` (a
/// 32-bit neighbour array), targeting the lists of a second CSR given by
/// `target_offsets` / `target_neighbors` — the same CSR for NNN and Forward,
/// the HE lists for HNN's walk over NHE. Call it with each entry index k the
/// loop is about to consume; begin < end must hold whenever it is called.
template <typename TargetT>
class EdgeStreamPrefetcher {
 public:
  /// Lookahead in entries (D). 4–16 measured within noise on the cold
  /// workloads; the offsets prefetch runs 2·D ahead.
  static constexpr std::uint64_t kDistance = 8;

  EdgeStreamPrefetcher(const std::uint32_t* stream, std::uint64_t end,
                       const std::uint64_t* target_offsets,
                       const TargetT* target_neighbors) noexcept
      : stream_(stream),
        end_(end),
        target_offsets_(target_offsets),
        target_neighbors_(target_neighbors) {}

  // Always inlined: a call whose only effect is a prefetch has no
  // observable effect, and GCC's pure-const analysis deletes such calls.
  [[gnu::always_inline]] void operator()(std::uint64_t k) const noexcept {
    const std::uint64_t last = end_ - 1;
    __builtin_prefetch(target_offsets_ + stream_[std::min(k + 2 * kDistance, last)]);
    __builtin_prefetch(target_neighbors_ +
                       target_offsets_[stream_[std::min(k + kDistance, last)]]);
  }

 private:
  const std::uint32_t* stream_;
  std::uint64_t end_;
  const std::uint64_t* target_offsets_;
  const TargetT* target_neighbors_;
};

}  // namespace lotus::kernels
