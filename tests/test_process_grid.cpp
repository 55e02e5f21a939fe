#include "simmpi/process_grid.hpp"

#include <gtest/gtest.h>

#include <set>

namespace dbfs::simmpi {
namespace {

TEST(ProcessGrid, SquareBasics) {
  const ProcessGrid g{4};
  EXPECT_EQ(g.pr(), 4);
  EXPECT_EQ(g.pc(), 4);
  EXPECT_EQ(g.ranks(), 16);
  EXPECT_TRUE(g.is_square());
}

TEST(ProcessGrid, RankRoundTrip) {
  const ProcessGrid g{3, 5};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 5; ++j) {
      const int r = g.rank_of(i, j);
      EXPECT_EQ(g.row_of(r), i);
      EXPECT_EQ(g.col_of(r), j);
    }
  }
}

TEST(ProcessGrid, RowGroupMembers) {
  const ProcessGrid g{3};
  const auto row1 = g.row_group(1);
  ASSERT_EQ(row1.size(), 3u);
  EXPECT_EQ(row1[0], g.rank_of(1, 0));
  EXPECT_EQ(row1[2], g.rank_of(1, 2));
}

// Bfs2D's fold hands exchange_candidates every row at once, which numbers
// the members row after row; it indexes them by rank, so the rows laid
// end to end must list the ranks in order.
TEST(ProcessGrid, RowsLaidEndToEndListTheRanksInOrder) {
  const ProcessGrid g{4};
  int next = 0;
  for (int i = 0; i < g.pr(); ++i) {
    for (int r : g.row_group(i)) EXPECT_EQ(r, next++);
  }
  EXPECT_EQ(next, g.ranks());
}

TEST(ProcessGrid, ColGroupMembers) {
  const ProcessGrid g{3};
  const auto col2 = g.col_group(2);
  ASSERT_EQ(col2.size(), 3u);
  EXPECT_EQ(col2[0], g.rank_of(0, 2));
  EXPECT_EQ(col2[2], g.rank_of(2, 2));
}

TEST(ProcessGrid, GroupsPartitionWorld) {
  const ProcessGrid g{4};
  std::set<int> seen;
  for (int i = 0; i < 4; ++i) {
    for (int r : g.row_group(i)) {
      EXPECT_TRUE(seen.insert(r).second);
    }
  }
  EXPECT_EQ(seen.size(), 16u);
  EXPECT_EQ(g.world().size(), 16u);
}

TEST(ProcessGrid, TransposePartnerInvolution) {
  const ProcessGrid g{5};
  for (int r = 0; r < g.ranks(); ++r) {
    EXPECT_EQ(g.transpose_partner(g.transpose_partner(r)), r);
  }
  EXPECT_EQ(g.transpose_partner(g.rank_of(2, 2)), g.rank_of(2, 2));
  EXPECT_EQ(g.transpose_partner(g.rank_of(1, 3)), g.rank_of(3, 1));
}

TEST(ProcessGrid, ClosestSquareMatchesPaperConfigs) {
  // §6: "the closest square processor grid".
  EXPECT_EQ(ProcessGrid::closest_square(1024).pr(), 32);
  EXPECT_EQ(ProcessGrid::closest_square(2025).pr(), 45);
  EXPECT_EQ(ProcessGrid::closest_square(4096).pr(), 64);
  // 5040 cores -> 70^2 = 4900 ranks used.
  EXPECT_EQ(ProcessGrid::closest_square(5040).pr(), 70);
  // Hybrid: 40000 cores at 6 threads -> 6666 ranks -> 81x81.
  EXPECT_EQ(ProcessGrid::closest_square(40000, 6).pr(), 81);
}

TEST(ProcessGrid, ClosestSquareDegenerate) {
  EXPECT_EQ(ProcessGrid::closest_square(1).ranks(), 1);
  EXPECT_EQ(ProcessGrid::closest_square(3).pr(), 1);
  EXPECT_THROW(ProcessGrid::closest_square(0), std::invalid_argument);
}

TEST(ProcessGrid, RejectsBadDimensions) {
  EXPECT_THROW(ProcessGrid(0, 4), std::invalid_argument);
  EXPECT_THROW(ProcessGrid(4, -1), std::invalid_argument);
}

}  // namespace
}  // namespace dbfs::simmpi
