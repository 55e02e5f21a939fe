// Deterministic, fast pseudo-random number generation for graph
// generation and experiment seeding.
//
// We avoid <random> engines for the hot generator paths: R-MAT generation
// draws billions of variates and mersenne twister state is needlessly
// large. xoshiro256** is the generator used by several Graph500
// implementations' generators and has good statistical quality for this
// purpose. splitmix64 is used to expand a single user seed into full
// generator state (the construction recommended by the xoshiro authors).
#pragma once

#include <cstdint>

namespace dbfs::util {

/// Single-pass seed expander; also usable as a cheap hash of 64-bit keys.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless mix of a 64-bit value (e.g. for hashing vertex ids).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference code).
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    step(state_);
    return result;
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() noexcept {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method
  /// simplified to the rejection-free 128-bit multiply).
  constexpr std::uint64_t next_below(std::uint64_t bound) noexcept {
    const unsigned __int128 wide =
        static_cast<unsigned __int128>(operator()()) * bound;
    return static_cast<std::uint64_t>(wide >> 64);
  }

  /// Jump the stream by a fixed large stride so parallel generators drawing
  /// from the same seed never overlap (per-rank streams in the simulator).
  constexpr void jump() noexcept {
    constexpr std::uint64_t kJump[] = {0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                                       0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::uint64_t word : kJump) {
      for (int b = 0; b < 64; ++b) {
        if (word & (std::uint64_t{1} << b)) {
          s0 ^= state_[0];
          s1 ^= state_[1];
          s2 ^= state_[2];
          s3 ^= state_[3];
        }
        operator()();
      }
    }
    state_[0] = s0;
    state_[1] = s1;
    state_[2] = s2;
    state_[3] = s3;
  }

  /// Skip the next `steps` draws exactly: afterwards the stream is where
  /// `steps` calls of operator() would leave it. The state update is
  /// linear over GF(2), so this applies T^(2^i) for each set bit i of
  /// `steps` — at most 64 products of a 256×256 bit matrix with the
  /// state. The 64 powers (512 KiB, static storage) are built once per
  /// process on first use. Lets parallel workers start at any draw of
  /// one stream (see graph::generate_rmat).
  void advance(std::uint64_t steps) noexcept;

 private:
  friend struct JumpPowers;

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  /// The state update of one draw, without its output.
  static constexpr void step(std::uint64_t (&s)[4]) noexcept {
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
  }

  std::uint64_t state_[4]{};
};

}  // namespace dbfs::util
