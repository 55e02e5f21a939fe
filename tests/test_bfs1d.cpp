#include "bfs/bfs1d.hpp"

#include <gtest/gtest.h>

#include "bfs/serial.hpp"
#include "graph/validator.hpp"
#include "test_helpers.hpp"

namespace dbfs::bfs {
namespace {

core::EngineOptions opts_with(int ranks, int threads = 1) {
  core::EngineOptions o;
  o.algorithm = threads > 1 ? core::Algorithm::kOneDHybrid
                            : core::Algorithm::kOneDFlat;
  o.cores = ranks * threads;
  o.threads_per_rank = threads;
  o.machine = model::franklin();
  return o;
}

class Bfs1DRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(Bfs1DRankSweep, MatchesSerialOnRmat) {
  const auto built = test::rmat_graph(10);
  const vid_t n = built.csr.num_vertices();
  Bfs1D bfs{built.edges, n, opts_with(GetParam())};
  const auto out = bfs.run(0);
  const auto serial = serial_bfs(built.csr, 0);
  EXPECT_EQ(out.level, serial.level);
}

TEST_P(Bfs1DRankSweep, PassesValidation) {
  const auto built = test::rmat_graph(10, 8, 7);
  const vid_t n = built.csr.num_vertices();
  Bfs1D bfs{built.edges, n, opts_with(GetParam())};
  const auto out = bfs.run(3);
  const auto v = graph::validate_bfs_tree(
      built.csr, 3, out.parent, graph::reference_levels(built.csr, 3));
  EXPECT_TRUE(v.ok) << "ranks=" << GetParam() << ": " << v.error;
}

INSTANTIATE_TEST_SUITE_P(Ranks, Bfs1DRankSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 64));

TEST(Bfs1D, PathGraphManyLevels) {
  const auto edges = test::path_edges(64);
  Bfs1D bfs{edges, 64, opts_with(4)};
  const auto out = bfs.run(0);
  for (vid_t v = 0; v < 64; ++v) EXPECT_EQ(out.level[v], v);
  EXPECT_EQ(out.report.levels.size(), 64u);
}

TEST(Bfs1D, DisconnectedComponentUnreached) {
  const auto edges = test::two_triangles();
  Bfs1D bfs{edges, 7, opts_with(3)};
  const auto out = bfs.run(0);
  EXPECT_EQ(out.level[3], kUnreached);
  EXPECT_EQ(out.parent[6], kNoVertex);
  EXPECT_EQ(out.level[1], 1);
}

TEST(Bfs1D, SourceOnNonZeroRank) {
  const auto edges = test::path_edges(40);
  Bfs1D bfs{edges, 40, opts_with(4)};
  const auto out = bfs.run(35);  // owned by the last rank
  EXPECT_EQ(out.level[35], 0);
  EXPECT_EQ(out.level[0], 35);
  EXPECT_EQ(out.parent[35], 35);
}

TEST(Bfs1D, HybridMatchesFlat) {
  const auto built = test::rmat_graph(10);
  const vid_t n = built.csr.num_vertices();
  Bfs1D flat{built.edges, n, opts_with(8, 1)};
  Bfs1D hybrid{built.edges, n, opts_with(2, 4)};
  EXPECT_EQ(flat.run(0).level, hybrid.run(0).level);
}

TEST(Bfs1D, HybridReducesCommTime) {
  // Same core count, fewer ranks: smaller collective groups => the hybrid
  // code's communication advantage (paper Fig 6/8).
  const auto built = test::rmat_graph(11, 16);
  const vid_t n = built.csr.num_vertices();
  Bfs1D flat{built.edges, n, opts_with(64, 1)};
  Bfs1D hybrid{built.edges, n, opts_with(16, 4)};
  const vid_t source = test::hub_source(built.csr);
  const auto flat_out = flat.run(source);
  const auto hybrid_out = hybrid.run(source);
  EXPECT_LT(hybrid_out.report.comm_seconds_mean,
            flat_out.report.comm_seconds_mean);
}

TEST(Bfs1D, ReportAccountingConsistent) {
  const auto built = test::rmat_graph(10);
  const vid_t n = built.csr.num_vertices();
  Bfs1D bfs{built.edges, n, opts_with(8)};
  const auto out = bfs.run(test::hub_source(built.csr));
  const auto& r = out.report;
  EXPECT_EQ(r.ranks, 8);
  EXPECT_GT(r.total_seconds, 0.0);
  EXPECT_GT(r.comm_seconds_mean, 0.0);
  EXPECT_GT(r.comp_seconds_mean, 0.0);
  EXPECT_GE(r.comm_seconds_max, r.comm_seconds_mean);
  EXPECT_EQ(r.per_rank_comm.size(), 8u);
  // Simulated wall clock bounds any single rank's busy+wait time.
  for (int rank = 0; rank < 8; ++rank) {
    EXPECT_LE(r.per_rank_comm[rank] + r.per_rank_comp[rank],
              r.total_seconds + 1e-12);
  }
  // Per-level walls sum to the total.
  double level_sum = 0.0;
  for (const auto& l : r.levels) level_sum += l.wall_seconds;
  EXPECT_NEAR(level_sum, r.total_seconds, 1e-9);
}

TEST(Bfs1D, EdgesScannedIsTwiceUndirectedEdges) {
  // Every adjacency of the connected component is scanned exactly once.
  const auto edges = test::path_edges(32);
  Bfs1D bfs{edges, 32, opts_with(4)};
  const auto out = bfs.run(0);
  EXPECT_EQ(out.report.edges_traversed, 2 * 31);
}

TEST(Bfs1D, MoreRanksShiftTimeTowardComm) {
  const auto built = test::rmat_graph(10, 16);
  const vid_t n = built.csr.num_vertices();
  Bfs1D small{built.edges, n, opts_with(4)};
  Bfs1D large{built.edges, n, opts_with(64)};
  const vid_t source = test::hub_source(built.csr);
  const double frac_small = small.run(source).report.comm_fraction();
  const double frac_large = large.run(source).report.comm_fraction();
  EXPECT_GT(frac_large, frac_small);
}

TEST(Bfs1D, ChunkedModeSameAnswerHigherCost) {
  // The Graph 500 reference code moves the same candidates as flat 1D,
  // priced as 4 KiB messages instead of one aggregated Alltoallv.
  const auto built = test::rmat_graph(11, 16);
  const vid_t n = built.csr.num_vertices();
  auto chunked_opts = opts_with(8);
  chunked_opts.algorithm = core::Algorithm::kGraph500Ref;
  Bfs1D aggregated{built.edges, n, opts_with(8)};
  Bfs1D chunked{built.edges, n, chunked_opts};
  const vid_t source = test::hub_source(built.csr);
  const auto agg_out = aggregated.run(source);
  const auto chk_out = chunked.run(source);
  EXPECT_EQ(agg_out.level, chk_out.level);
  EXPECT_GT(chk_out.report.comm_seconds_mean,
            agg_out.report.comm_seconds_mean);
}

TEST(Bfs1D, ChunkedPricingSurvivesMoreRanksThanMessages) {
  // Regression: the chunked/per-edge pricing used to average messages and
  // bytes over the ranks in integer arithmetic. On a high-diameter level
  // a rank ships fewer messages than there are ranks, so both means
  // truncated to zero and the entire exchange was priced as free. A path
  // graph on many ranks ships exactly one 16-byte candidate per level;
  // with alpha_net zeroed the only surviving term is the (truncatable)
  // byte term, which must still come out positive.
  const auto edges = test::path_edges(64);
  auto opts = opts_with(48);
  opts.algorithm = core::Algorithm::kGraph500Ref;
  opts.machine.alpha_net = 0.0;
  Bfs1D bfs{edges, 64, opts};
  const auto out = bfs.run(0);
  EXPECT_GT(out.report.alltoall_seconds, 0.0);
}

TEST(Bfs1D, PerEdgeSendsCostMoreThanChunked) {
  // Regression: per-edge mode used to fall through to the chunked
  // coalescing, so it priced one message per chunk instead of one per
  // candidate and was indistinguishable from the chunked baseline. PBGL
  // sends one message per candidate, the reference code one per 4 KiB.
  const auto built = test::rmat_graph(10, 16);
  const vid_t n = built.csr.num_vertices();
  auto chunked_opts = opts_with(8);
  chunked_opts.algorithm = core::Algorithm::kGraph500Ref;
  auto per_edge_opts = opts_with(8);
  per_edge_opts.algorithm = core::Algorithm::kPbglLike;
  Bfs1D chunked{built.edges, n, chunked_opts};
  Bfs1D per_edge{built.edges, n, per_edge_opts};
  const vid_t source = test::hub_source(built.csr);
  const auto chk_out = chunked.run(source);
  const auto pe_out = per_edge.run(source);
  EXPECT_EQ(chk_out.level, pe_out.level);
  EXPECT_GT(pe_out.report.alltoall_seconds,
            chk_out.report.alltoall_seconds);
}

TEST(Bfs1D, RepeatedRunsAreIndependent) {
  const auto built = test::rmat_graph(9);
  const vid_t n = built.csr.num_vertices();
  Bfs1D bfs{built.edges, n, opts_with(4)};
  const auto first = bfs.run(0);
  const auto second = bfs.run(0);
  EXPECT_EQ(first.level, second.level);
  EXPECT_NEAR(first.report.total_seconds, second.report.total_seconds,
              1e-12);
}

TEST(Bfs1D, RejectsBadInput) {
  const auto edges = test::path_edges(4);
  Bfs1D bfs{edges, 4, opts_with(2)};
  EXPECT_THROW(bfs.run(-1), std::out_of_range);
  EXPECT_THROW(bfs.run(4), std::out_of_range);
}

}  // namespace
}  // namespace dbfs::bfs
