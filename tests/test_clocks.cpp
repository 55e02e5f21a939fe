#include "model/clocks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/prng.hpp"

namespace dbfs::model {
namespace {

TEST(VirtualClocks, StartAtZero) {
  VirtualClocks c{4};
  EXPECT_EQ(c.ranks(), 4);
  for (int r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(c.now(r), 0.0);
    EXPECT_DOUBLE_EQ(c.comm_time(r), 0.0);
    EXPECT_DOUBLE_EQ(c.compute_time(r), 0.0);
  }
}

TEST(VirtualClocks, ComputeAdvancesOneRank) {
  VirtualClocks c{2};
  c.advance_compute(0, 1.5);
  EXPECT_DOUBLE_EQ(c.now(0), 1.5);
  EXPECT_DOUBLE_EQ(c.compute_time(0), 1.5);
  EXPECT_DOUBLE_EQ(c.now(1), 0.0);
}

TEST(VirtualClocks, CollectiveSynchronizesToSlowest) {
  VirtualClocks c{3};
  c.advance_compute(0, 1.0);
  c.advance_compute(1, 3.0);
  // rank 2 did nothing.
  const std::vector<int> group{0, 1, 2};
  c.collective(group, 0.5);
  // All leave at max(3.0) + 0.5.
  for (int r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(c.now(r), 3.5);
  // Waiting + transfer charged as comm: rank 0 waited 2.0 + 0.5 transfer.
  EXPECT_DOUBLE_EQ(c.comm_time(0), 2.5);
  EXPECT_DOUBLE_EQ(c.comm_time(1), 0.5);
  EXPECT_DOUBLE_EQ(c.comm_time(2), 3.5);
}

TEST(VirtualClocks, SubgroupCollectiveLeavesOthersUntouched) {
  VirtualClocks c{4};
  c.advance_compute(3, 9.0);
  const std::vector<int> group{0, 1};
  c.collective(group, 1.0);
  EXPECT_DOUBLE_EQ(c.now(0), 1.0);
  EXPECT_DOUBLE_EQ(c.now(1), 1.0);
  EXPECT_DOUBLE_EQ(c.now(2), 0.0);
  EXPECT_DOUBLE_EQ(c.now(3), 9.0);
}

TEST(VirtualClocks, MaxNow) {
  VirtualClocks c{3};
  c.advance_compute(1, 7.0);
  EXPECT_DOUBLE_EQ(c.max_now(), 7.0);
}

TEST(VirtualClocks, SplitsCommAndCompute) {
  VirtualClocks c{2};
  c.advance_compute(0, 2.0);
  c.advance_compute(1, 2.0);
  const std::vector<int> group{0, 1};
  c.collective(group, 1.0);
  c.advance_compute(0, 1.0);
  EXPECT_DOUBLE_EQ(c.compute_time(0), 3.0);
  EXPECT_DOUBLE_EQ(c.comm_time(0), 1.0);
  EXPECT_DOUBLE_EQ(c.now(0), 4.0);
}

TEST(VirtualClocks, ResetZeroesEverything) {
  VirtualClocks c{2};
  c.advance_compute(0, 2.0);
  const std::vector<int> group{0, 1};
  c.collective(group, 1.0);
  c.reset();
  EXPECT_DOUBLE_EQ(c.max_now(), 0.0);
  EXPECT_DOUBLE_EQ(c.comm_time(1), 0.0);
  EXPECT_DOUBLE_EQ(c.compute_time(0), 0.0);
}

TEST(VirtualClocks, RepeatedCollectivesAccumulateWaits) {
  VirtualClocks c{2};
  const std::vector<int> group{0, 1};
  for (int i = 0; i < 10; ++i) {
    c.advance_compute(0, 1.0);  // rank 1 always idles
    c.collective(group, 0.1);
  }
  EXPECT_NEAR(c.comm_time(1), 10.0 * 1.1, 1e-9);
  EXPECT_NEAR(c.comm_time(0), 10.0 * 0.1, 1e-9);
}

// max_now() is a running maximum kept by every clock-moving method; a
// seeded random mix of all of them (empty groups, zero costs, seeds below
// and above the clocks, resets) must leave it equal to a full scan after
// every single step.
TEST(VirtualClocks, RunningMaxEqualsScanAfterEveryStep) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Xoshiro256 rng(seed);
    const int ranks = 1 + static_cast<int>(rng.next_below(9));
    VirtualClocks c{ranks};
    const auto pick = [&](std::uint64_t n) {
      return static_cast<int>(rng.next_below(n));
    };
    const auto cost = [&] {
      return pick(3) == 0 ? 0.0 : rng.next_double();
    };
    for (int step = 0; step < 500; ++step) {
      std::vector<int> group;
      for (int r = 0; r < ranks; ++r) {
        if (pick(2) == 0) group.push_back(r);
      }
      const int op = pick(20);
      if (op < 8) {
        c.advance_compute(pick(static_cast<std::uint64_t>(ranks)), cost());
      } else if (op < 17) {
        c.collective(group, cost());
      } else if (op < 19) {
        // Half the seeds land below the furthest clock, half beyond it.
        c.seed(c.max_now() * 2.0 * rng.next_double());
      } else {
        c.reset();
      }
      const std::vector<double>& now = c.all_now();
      ASSERT_EQ(c.max_now(), *std::max_element(now.begin(), now.end()))
          << "seed " << seed << ", step " << step << ", op " << op;
    }
  }
}

}  // namespace
}  // namespace dbfs::model
