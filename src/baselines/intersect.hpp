// Sorted-set intersection kernels.
//
// These are the four standard intersection strategies surveyed by the paper
// (Sec. 2.2 / 6.3): merge join, binary/galloping search, hashing, and bitmap
// lookup. Every kernel is templated on a memory probe so the instrumented
// replays (src/tc) can feed the exact access/branch stream into the hardware
// models without duplicating algorithm code; the default NullProbe compiles
// to nothing.
//
// The merge and gallop kernels additionally flush element-comparison and
// fruitless-search totals to the per-thread obs counters (one flush per
// call; see obs/counters.hpp). Building with LOTUS_OBS=0 turns the flush
// into a no-op and the optimizer removes the local accumulators.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/counters.hpp"
#include "util/bitset.hpp"

namespace lotus::baselines {

/// No-op probe: kernels instantiated with it carry zero overhead.
struct NullProbe {
  void read(const void* /*addr*/, std::size_t /*bytes*/) noexcept {}
  void branch(std::uint64_t /*site*/, bool /*taken*/) noexcept {}
  void op(std::uint64_t /*count*/ = 1) noexcept {}
};

inline NullProbe null_probe;  // shared default; stateless by construction

/// No-op triangle visitor, the default of the LOTUS phases
/// (lotus/count.hpp): phases instantiated with it compile to their
/// counting-only form.
struct NoVisit {
  template <typename... Args>
  constexpr void operator()(Args&&... /*args*/) const noexcept {}
};

/// |a ∩ b| by simultaneous scan. The kernel of choice for short, similarly
/// sized lists (LOTUS uses it for NNN and HNN; Sec. 4.4.3). The probed and
/// scalar reference paths call it; the triangle walks take positions from
/// the dispatched kernel (kernels/dispatch.hpp).
template <typename T, typename Probe = NullProbe>
std::uint64_t intersect_merge(std::span<const T> a, std::span<const T> b,
                              Probe& probe = null_probe) {
  std::uint64_t count = 0;
  std::uint64_t comparisons = 0;  // dead when LOTUS_OBS=0
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    probe.read(&a[i], sizeof(T));
    probe.read(&b[j], sizeof(T));
    probe.op();
    ++comparisons;
    const bool less = a[i] < b[j];
    probe.branch(0, less);
    if (less) {
      ++i;
    } else {
      const bool greater = a[i] > b[j];
      probe.branch(1, greater);
      if (greater) {
        ++j;
      } else {
        ++count;
        ++i;
        ++j;
      }
    }
  }
  obs::count(obs::Counter::kIntersectComparisons, comparisons);
  if (count == 0 && comparisons > 0)
    obs::count(obs::Counter::kFruitlessSearches);
  return count;
}

/// |a ∩ b| with galloping (exponential + binary) search of each element of
/// the shorter list in the longer one — the GPU-favoured strategy of [31].
template <typename T, typename Probe = NullProbe>
std::uint64_t intersect_gallop(std::span<const T> a, std::span<const T> b,
                               Probe& probe = null_probe) {
  if (a.size() > b.size()) return intersect_gallop(b, a, probe);
  std::uint64_t count = 0;
  std::uint64_t comparisons = 0;  // dead when LOTUS_OBS=0
  std::size_t lo = 0;
  for (const T& x : a) {
    probe.read(&x, sizeof(T));
    // Gallop to bracket x, then binary-search the bracket.
    std::size_t step = 1, hi = lo;
    while (hi < b.size()) {
      probe.read(&b[hi], sizeof(T));
      probe.op();
      ++comparisons;
      const bool keep_going = b[hi] < x;
      probe.branch(2, keep_going);
      if (!keep_going) break;
      lo = hi + 1;
      hi += step;
      step <<= 1;
    }
    std::size_t right = hi < b.size() ? hi + 1 : b.size();
    while (lo < right) {
      const std::size_t mid = lo + (right - lo) / 2;
      probe.read(&b[mid], sizeof(T));
      probe.op();
      ++comparisons;
      const bool go_right = b[mid] < x;
      probe.branch(3, go_right);
      if (go_right)
        lo = mid + 1;
      else
        right = mid;
    }
    if (lo < b.size()) {
      probe.read(&b[lo], sizeof(T));
      ++comparisons;
      if (b[lo] == x) {
        ++count;
        ++lo;
      }
    } else {
      break;  // every remaining a element exceeds b's maximum
    }
  }
  obs::count(obs::Counter::kIntersectComparisons, comparisons);
  if (count == 0 && comparisons > 0)
    obs::count(obs::Counter::kFruitlessSearches);
  return count;
}

/// Open-addressing hash set sized for one neighbour list; reused across
/// probes of the same list (forward-hashed of Schank & Wagner).
///
/// The empty-slot sentinel is the all-ones 64-bit value. Keys narrower than
/// 64 bits (the vertex-ID instantiations) widen to values that can never
/// equal the sentinel; a 64-bit key equal to ~0 would be indistinguishable
/// from an empty slot and silently unstorable, so build() rejects it with
/// std::invalid_argument instead of corrupting the table.
template <typename T>
class HashedSet {
 public:
  void build(std::span<const T> keys) {
    std::size_t cap = 16;
    while (cap < keys.size() * 2) cap <<= 1;
    mask_ = cap - 1;
    slots_.assign(cap, kEmpty);
    for (const T& k : keys) {
      if constexpr (sizeof(T) >= sizeof(std::uint64_t))
        if (static_cast<std::uint64_t>(k) == kEmpty)
          throw std::invalid_argument(
              "HashedSet: key ~0 collides with the empty-slot sentinel");
      insert(k);
    }
  }

  template <typename Probe = NullProbe>
  [[nodiscard]] bool contains(T key, Probe& probe = null_probe) const {
    // Default-constructed set: no slots, nothing is a member. Without this
    // guard mask_ == 0 would index slots_[0] of an empty vector.
    if (slots_.empty()) return false;
    std::size_t slot = hash(key) & mask_;
    for (;;) {
      probe.read(&slots_[slot], sizeof(std::uint64_t));
      probe.op();
      const std::uint64_t s = slots_[slot];
      if (s == kEmpty) return false;
      if (static_cast<T>(s) == key) return true;
      slot = (slot + 1) & mask_;
    }
  }

  template <typename Probe = NullProbe>
  [[nodiscard]] std::uint64_t count_hits(std::span<const T> queries,
                                         Probe& probe = null_probe) const {
    std::uint64_t count = 0;
    for (const T& q : queries) {
      probe.read(&q, sizeof(T));
      count += contains(q, probe) ? 1u : 0u;
    }
    return count;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  static std::size_t hash(T key) noexcept {
    std::uint64_t x = static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(x >> 32);
  }

  void insert(T key) {
    std::size_t slot = hash(key) & mask_;
    while (slots_[slot] != kEmpty) {
      if (static_cast<T>(slots_[slot]) == key) return;
      slot = (slot + 1) & mask_;
    }
    slots_[slot] = static_cast<std::uint64_t>(key);
  }

  std::size_t mask_ = 0;
  std::vector<std::uint64_t> slots_;
};

/// Bitmap membership: caller sets bits for the reference list, then counts
/// hits of query lists (Latapy's new-vertex-listing).
template <typename T, typename Probe = NullProbe>
std::uint64_t count_bitmap_hits(std::span<const T> queries,
                                const util::Bitset& bitmap,
                                Probe& probe = null_probe) {
  std::uint64_t count = 0;
  for (const T& q : queries) {
    probe.read(&q, sizeof(T));
    probe.op();
    count += bitmap.test(q) ? 1u : 0u;
  }
  return count;
}

}  // namespace lotus::baselines
