#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace dbfs::util {
namespace {

TEST(Splitmix64, DeterministicSequence) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  }
}

TEST(Splitmix64, AdvancesState) {
  std::uint64_t s = 42;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

TEST(Mix64, StatelessAndInjectiveOnSmallSet) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t x = 0; x < 1000; ++x) {
    outputs.insert(mix64(x));
  }
  EXPECT_EQ(outputs.size(), 1000u);
  EXPECT_EQ(mix64(7), mix64(7));
}

TEST(Xoshiro256, SameSeedSameStream) {
  Xoshiro256 a{123};
  Xoshiro256 b{123};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a{1};
  Xoshiro256 b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Xoshiro256, NextDoubleInUnitInterval) {
  Xoshiro256 rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Xoshiro256, NextDoubleRoughlyUniform) {
  Xoshiro256 rng{11};
  const int buckets = 10;
  std::vector<int> histogram(buckets, 0);
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) {
    ++histogram[static_cast<int>(rng.next_double() * buckets)];
  }
  for (int count : histogram) {
    EXPECT_NEAR(count, samples / buckets, samples / buckets / 5);
  }
}

TEST(Xoshiro256, AdvanceMatchesRepeatedDraws) {
  for (std::uint64_t k : {0ULL, 1ULL, 63ULL, 64ULL, 65ULL, 1000ULL,
                          (1ULL << 20) + 3}) {
    Xoshiro256 drawn{99};
    for (std::uint64_t i = 0; i < k; ++i) drawn();
    Xoshiro256 jumped{99};
    jumped.advance(k);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(jumped(), drawn()) << "k = " << k;
  }
  // advance(a) then advance(b) lands where advance(a + b) does.
  const std::uint64_t a = 0x123456789ULL;
  const std::uint64_t b = 0xfedcba987654ULL;
  Xoshiro256 split{5};
  split.advance(a);
  split.advance(b);
  Xoshiro256 whole{5};
  whole.advance(a + b);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(split(), whole());
}

TEST(Xoshiro256, NextBelowRespectsBound) {
  Xoshiro256 rng{13};
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Xoshiro256, NextBelowCoversAllResidues) {
  Xoshiro256 rng{17};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro256, JumpDecorrelatesStreams) {
  Xoshiro256 a{99};
  Xoshiro256 b{99};
  b.jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

}  // namespace
}  // namespace dbfs::util
