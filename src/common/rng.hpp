// Deterministic pseudo-random number generation.
//
// The simulator must be bit-reproducible across runs and platforms, so we
// avoid std::mt19937's unspecified distribution implementations and ship
// xoshiro256** with explicit distribution code.
#pragma once

#include <array>
#include <cstdint>

namespace mtr {

/// SplitMix64 — used to seed xoshiro and for cheap hash mixing.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 by Blackman & Vigna; public-domain reference algorithm.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed);

  std::uint64_t next();

  /// Uniform in [0, bound). bound must be nonzero.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Exponentially distributed double with the given mean (> 0).
  double next_exponential(double mean);

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace mtr
