// Tests for boundary-mode BlockPartition and the edge-balanced 1D
// partitioner (the deterministic alternative to the §4.4 shuffle).
#include <gtest/gtest.h>

#include "bfs/bfs1d.hpp"
#include "bfs/serial.hpp"
#include "dist/local_graph1d.hpp"
#include "dist/partition1d.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace dbfs::dist {
namespace {

TEST(BoundaryPartition, BasicOwnership) {
  const auto p = BlockPartition::from_boundaries({0, 3, 3, 10});
  EXPECT_EQ(p.parts(), 3);
  EXPECT_EQ(p.n(), 10);
  EXPECT_FALSE(p.uniform());
  EXPECT_EQ(p.owner(0), 0);
  EXPECT_EQ(p.owner(2), 0);
  EXPECT_EQ(p.owner(3), 2);  // rank 1 owns the empty range [3,3)
  EXPECT_EQ(p.owner(9), 2);
  EXPECT_EQ(p.size(1), 0);
  EXPECT_EQ(p.size(2), 7);
}

TEST(BoundaryPartition, OwnerMatchesRanges) {
  const auto p = BlockPartition::from_boundaries({0, 1, 4, 9, 20});
  for (vid_t v = 0; v < 20; ++v) {
    const int r = p.owner(v);
    EXPECT_GE(v, p.begin(r));
    EXPECT_LT(v, p.end(r));
    EXPECT_EQ(p.to_global(r, p.to_local(v)), v);
  }
}

TEST(BoundaryPartition, RejectsInvalidBoundaries) {
  EXPECT_THROW(BlockPartition::from_boundaries({0}), std::invalid_argument);
  EXPECT_THROW(BlockPartition::from_boundaries({1, 5}),
               std::invalid_argument);
  EXPECT_THROW(BlockPartition::from_boundaries({0, 5, 3}),
               std::invalid_argument);
}

TEST(EdgeBalanced, EqualDegreesGiveUniformBlocks) {
  const std::vector<eid_t> degrees(100, 4);
  const auto p = BlockPartition::edge_balanced(degrees, 4);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(p.size(r), 25);
}

TEST(EdgeBalanced, HubsGetSmallBlocks) {
  // Vertex 0 holds half of all edges: its block should be nearly alone.
  std::vector<eid_t> degrees(100, 1);
  degrees[0] = 99;
  const auto p = BlockPartition::edge_balanced(degrees, 4);
  EXPECT_LT(p.size(0), 25);
  // The hub alone carries half the edges, so max/mean = 2 is the best any
  // partition can do; the balancer must reach that floor.
  std::vector<double> loads;
  for (int r = 0; r < 4; ++r) {
    double load = 0;
    for (vid_t v = p.begin(r); v < p.end(r); ++v) {
      load += static_cast<double>(degrees[static_cast<std::size_t>(v)]);
    }
    loads.push_back(load);
  }
  EXPECT_LE(util::imbalance(loads), 2.0 + 1e-9);
}

TEST(EdgeBalanced, BalancesNaturalOrderRmat) {
  graph::RmatParams params;
  params.scale = 12;
  params.edge_factor = 16;
  graph::BuildOptions build;
  build.shuffle = false;
  const auto built = graph::build_graph(graph::generate_rmat(params), build);
  const int ranks = 16;

  std::vector<eid_t> degrees(static_cast<std::size_t>(built.csr.num_vertices()));
  for (vid_t v = 0; v < built.csr.num_vertices(); ++v) {
    degrees[static_cast<std::size_t>(v)] = built.csr.degree(v);
  }
  auto imbalance_of = [&](const BlockPartition& p) {
    std::vector<double> loads(static_cast<std::size_t>(ranks), 0.0);
    for (vid_t v = 0; v < built.csr.num_vertices(); ++v) {
      loads[static_cast<std::size_t>(p.owner(v))] +=
          static_cast<double>(degrees[static_cast<std::size_t>(v)]);
    }
    return util::imbalance(loads);
  };

  const double uniform =
      imbalance_of(BlockPartition(built.csr.num_vertices(), ranks));
  const double balanced =
      imbalance_of(BlockPartition::edge_balanced(degrees, ranks));
  EXPECT_GT(uniform, 2.0);    // natural-order R-MAT is badly skewed
  EXPECT_LT(balanced, 1.5);   // boundaries fix it
}

TEST(EdgeBalanced, LocalGraphBuildsWithCustomPartition) {
  const auto built = test::rmat_graph(9);
  const vid_t n = built.csr.num_vertices();
  std::vector<eid_t> degrees(static_cast<std::size_t>(n), 0);
  for (const graph::Edge& e : built.edges.edges()) {
    ++degrees[static_cast<std::size_t>(e.u)];
  }
  const auto lg = LocalGraph1D::build_with_partition(
      built.edges, BlockPartition::edge_balanced(degrees, 8));
  eid_t total = 0;
  for (int r = 0; r < 8; ++r) total += lg.local_edges(r);
  EXPECT_EQ(total, built.edges.num_edges());
}

TEST(EdgeBalanced, BfsStillCorrect) {
  const auto built = test::rmat_graph(10);
  const vid_t n = built.csr.num_vertices();
  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kOneDFlat;
  opts.cores = 8;
  opts.partition_mode = bfs::PartitionMode::kEdgeBalanced;
  bfs::Bfs1D bfs{built.edges, n, opts};
  const vid_t source = test::hub_source(built.csr);
  const auto serial = bfs::serial_bfs(built.csr, source);
  const auto out = bfs.run(source);
  EXPECT_EQ(out.level, serial.level);
  EXPECT_FALSE(bfs.partition().uniform());
}

TEST(EdgeBalanced, CountsBothEndpointsOnUnsymmetrizedInput) {
  // Regression: the 1D partitioner's degree count used to look only at
  // edge sources, so on an unsymmetrized input a pure-sink hub (all
  // in-edges, no out-edges) was invisible and its rank received the same
  // uniform vertex block as everyone else despite absorbing every
  // candidate. In-star: every vertex points at 0, nothing points back.
  const vid_t n = 64;
  graph::EdgeList edges{n};
  for (vid_t v = 1; v < n; ++v) edges.add(v, 0);  // no symmetrize()
  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kOneDFlat;
  opts.cores = 4;
  opts.partition_mode = bfs::PartitionMode::kEdgeBalanced;
  bfs::Bfs1D bfs{edges, n, opts};
  const auto& p = bfs.partition();
  EXPECT_FALSE(p.uniform());
  // The hub carries half of all endpoint work (63 of 126), so its block
  // must be far below the uniform 16 vertices.
  EXPECT_EQ(p.owner(0), 0);
  EXPECT_LT(p.size(0), 8);
}

TEST(EdgeBalanced, MoreRanksThanVertices) {
  const std::vector<eid_t> degrees{5, 5};
  const auto p = BlockPartition::edge_balanced(degrees, 8);
  EXPECT_EQ(p.parts(), 8);
  vid_t covered = 0;
  for (int r = 0; r < 8; ++r) covered += p.size(r);
  EXPECT_EQ(covered, 2);
}

}  // namespace
}  // namespace dbfs::dist
