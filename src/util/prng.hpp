// Deterministic, fast pseudo-random number generation.
//
// All synthetic workloads in this repository are seeded explicitly so that
// every test, bench, and example is reproducible run-to-run. xoshiro256** is
// the workhorse generator; splitmix64 seeds it and hashes integers.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace lotus::util {

/// SplitMix64 step: hashes `state` forward and returns a 64-bit value.
/// Useful both as a standalone integer hash and as a seed expander.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 — public-domain generator by Blackman & Vigna.
/// Satisfies the C++ UniformRandomBitGenerator concept.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift reduction.
  constexpr std::uint64_t next_below(std::uint64_t bound) noexcept {
    // 128-bit multiply keeps the bias negligible for the bounds we use.
    const auto wide = static_cast<unsigned __int128>((*this)()) * bound;
    return static_cast<std::uint64_t>(wide >> 64);
  }

  /// Jump equivalent to 2^128 generator steps; yields independent streams.
  constexpr void long_jump() noexcept {
    constexpr std::array<std::uint64_t, 4> kJump = {
        0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL,
        0x77710069854ee241ULL, 0x39109bb02acbe635ULL};
    std::array<std::uint64_t, 4> acc = {0, 0, 0, 0};
    for (std::uint64_t word : kJump) {
      for (int bit = 0; bit < 64; ++bit) {
        if (word & (1ULL << bit)) {
          for (int i = 0; i < 4; ++i) acc[static_cast<std::size_t>(i)] ^= state_[static_cast<std::size_t>(i)];
        }
        (*this)();
      }
    }
    state_ = acc;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace lotus::util
