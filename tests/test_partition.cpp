#include <gtest/gtest.h>

#include "dist/partition1d.hpp"
#include "dist/partition2d.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"

namespace dbfs::dist {
namespace {

TEST(BlockPartition, EvenSplit) {
  const BlockPartition p{100, 4};
  EXPECT_EQ(p.block_size(), 25);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(p.size(r), 25);
  EXPECT_EQ(p.owner(0), 0);
  EXPECT_EQ(p.owner(24), 0);
  EXPECT_EQ(p.owner(25), 1);
  EXPECT_EQ(p.owner(99), 3);
}

TEST(BlockPartition, RemainderGoesToLastRank) {
  const BlockPartition p{10, 3};  // floor(10/3)=3: sizes 3,3,4
  EXPECT_EQ(p.size(0), 3);
  EXPECT_EQ(p.size(1), 3);
  EXPECT_EQ(p.size(2), 4);
  EXPECT_EQ(p.owner(9), 2);
}

TEST(BlockPartition, OwnerMatchesRanges) {
  const BlockPartition p{1000, 7};
  for (vid_t v = 0; v < 1000; ++v) {
    const int r = p.owner(v);
    EXPECT_GE(v, p.begin(r));
    EXPECT_LT(v, p.end(r));
  }
}

TEST(BlockPartition, LocalGlobalRoundTrip) {
  const BlockPartition p{100, 8};
  for (vid_t v = 0; v < 100; ++v) {
    const int r = p.owner(v);
    EXPECT_EQ(p.to_global(r, p.to_local(v)), v);
  }
}

TEST(BlockPartition, MoreRanksThanVertices) {
  const BlockPartition p{3, 8};
  // Trailing ranks own empty ranges; every vertex still has an owner.
  vid_t covered = 0;
  for (int r = 0; r < 8; ++r) covered += p.size(r);
  EXPECT_EQ(covered, 3);
  EXPECT_EQ(p.owner(2), 2);
}

TEST(BlockPartition, RejectsInvalid) {
  EXPECT_THROW(BlockPartition(-1, 4), std::invalid_argument);
  EXPECT_THROW(BlockPartition(10, 0), std::invalid_argument);
}

TEST(Partition2D, TotalNnzMatchesDedupedEdges) {
  graph::RmatParams params;
  params.scale = 8;
  params.edge_factor = 8;
  auto edges = graph::generate_rmat(params);
  const simmpi::ProcessGrid grid{3};
  const Partition2D part{graph::CsrGraph::from_edges(edges), grid};
  edges.sort_and_dedup();
  EXPECT_EQ(part.total_nnz(), edges.num_edges());
}

TEST(Partition2D, EntriesLandInCorrectBlocks) {
  graph::EdgeList e{12};
  e.add(1, 10);   // matrix entry (row 10, col 1) -> block (2, 0) on 3x3/4
  e.add(11, 2);   // entry (row 2, col 11) -> block (0, 2)
  const simmpi::ProcessGrid grid{3};
  const Partition2D part{graph::CsrGraph::from_edges(e), grid};
  const auto& blocks = part.blocks();
  EXPECT_EQ(blocks.block_size(), 4);

  // Edge u->v becomes entry (v, u): v=10 row-block 2, u=1 col-block 0.
  const auto& b20 = part.block(grid.rank_of(2, 0));
  EXPECT_EQ(b20.nnz(), 1);
  EXPECT_EQ(b20.column(1).size(), 1u);   // local col = 1 - 0
  EXPECT_EQ(b20.column(1)[0], 2);        // local row = 10 - 8

  const auto& b02 = part.block(grid.rank_of(0, 2));
  EXPECT_EQ(b02.nnz(), 1);
  EXPECT_EQ(b02.column(3)[0], 2);        // col 11-8, row 2-0
}

TEST(Partition2D, RequiresSquareGrid) {
  const auto g = graph::CsrGraph::from_edges(graph::EdgeList{4});
  EXPECT_THROW(Partition2D(g, simmpi::ProcessGrid(2, 3)),
               std::invalid_argument);
}

TEST(Partition2D, EdgeListFormCutsTheListsCsr) {
  graph::RmatParams params;
  params.scale = 7;
  const auto edges = graph::generate_rmat(params);  // duplicates, loops
  const simmpi::ProcessGrid grid{3};
  const Partition2D want{graph::CsrGraph::from_edges(edges), grid};
  const Partition2D got{edges, edges.num_vertices(), grid};
  for (int r = 0; r < grid.ranks(); ++r) {
    EXPECT_EQ(got.block(r).jc(), want.block(r).jc());
    EXPECT_EQ(got.block(r).cp(), want.block(r).cp());
    EXPECT_EQ(got.block(r).ir(), want.block(r).ir());
  }
  EXPECT_THROW(Partition2D(edges, edges.num_vertices() + 1, grid),
               std::invalid_argument);
}

}  // namespace
}  // namespace dbfs::dist
