#include "bfs/bfs2d.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "bfs/serial.hpp"
#include "graph/validator.hpp"
#include "test_helpers.hpp"

namespace dbfs::bfs {
namespace {

// The driver keeps a reference to the graph it reads, so a temporary
// graph must not bind to it.
static_assert(std::is_constructible_v<Bfs2D, const graph::CsrGraph&,
                                      const core::EngineOptions&>);
static_assert(!std::is_constructible_v<Bfs2D, graph::CsrGraph&&,
                                       const core::EngineOptions&>);

core::EngineOptions opts_with(int cores, int threads = 1) {
  core::EngineOptions o;
  o.algorithm = threads > 1 ? core::Algorithm::kTwoDHybrid
                            : core::Algorithm::kTwoDFlat;
  o.cores = cores;
  o.threads_per_rank = threads;
  o.machine = model::franklin();
  return o;
}

class Bfs2DCoreSweep : public ::testing::TestWithParam<int> {};

TEST_P(Bfs2DCoreSweep, MatchesSerialOnRmat) {
  const auto built = test::rmat_graph(10);
  Bfs2D bfs{built.csr, opts_with(GetParam())};
  const auto out = bfs.run(0);
  const auto serial = serial_bfs(built.csr, 0);
  EXPECT_EQ(out.level, serial.level) << "cores=" << GetParam();
}

TEST_P(Bfs2DCoreSweep, PassesValidation) {
  const auto built = test::rmat_graph(10, 8, 5);
  Bfs2D bfs{built.csr, opts_with(GetParam())};
  const auto out = bfs.run(11);
  const auto v = graph::validate_bfs_tree(
      built.csr, 11, out.parent, graph::reference_levels(built.csr, 11));
  EXPECT_TRUE(v.ok) << "cores=" << GetParam() << ": " << v.error;
}

INSTANTIATE_TEST_SUITE_P(Cores, Bfs2DCoreSweep,
                         ::testing::Values(1, 4, 9, 16, 64, 121, 256));

class Bfs2DBackendSweep
    : public ::testing::TestWithParam<sparse::SpmsvBackend> {};

TEST_P(Bfs2DBackendSweep, BackendsAgree) {
  const auto built = test::rmat_graph(9);
  auto opts = opts_with(16);
  opts.backend = GetParam();
  Bfs2D bfs{built.csr, opts};
  const auto out = bfs.run(0);
  const auto serial = serial_bfs(built.csr, 0);
  EXPECT_EQ(out.level, serial.level);
}

INSTANTIATE_TEST_SUITE_P(Backends, Bfs2DBackendSweep,
                         ::testing::Values(sparse::SpmsvBackend::kAuto,
                                           sparse::SpmsvBackend::kSpa,
                                           sparse::SpmsvBackend::kHeap),
                         [](const auto& info) {
                           return sparse::to_string(info.param);
                         });

TEST(Bfs2D, PathGraphManyLevels) {
  const auto g = graph::CsrGraph::from_edges(test::path_edges(50));
  Bfs2D bfs{g, opts_with(9)};
  const auto out = bfs.run(0);
  for (vid_t v = 0; v < 50; ++v) EXPECT_EQ(out.level[v], v);
}

TEST(Bfs2D, DisconnectedComponentUnreached) {
  const auto g = graph::CsrGraph::from_edges(test::two_triangles());
  Bfs2D bfs{g, opts_with(4)};
  const auto out = bfs.run(3);
  EXPECT_EQ(out.level[0], kUnreached);
  EXPECT_EQ(out.level[4], 1);
  EXPECT_EQ(out.parent[3], 3);
}

TEST(Bfs2D, SourceAnywhereOnGrid) {
  const auto built = test::rmat_graph(8);
  const vid_t n = built.csr.num_vertices();
  Bfs2D bfs{built.csr, opts_with(9)};
  for (vid_t source : {vid_t{0}, n / 2, n - 1}) {
    const auto out = bfs.run(source);
    const auto serial = serial_bfs(built.csr, source);
    EXPECT_EQ(out.level, serial.level) << "source=" << source;
  }
}

TEST(Bfs2D, GridRoundsDownToSquare) {
  const auto g = graph::CsrGraph::from_edges(test::path_edges(32));
  Bfs2D bfs{g, opts_with(12)};  // 3x3 grid, 9 cores used
  EXPECT_EQ(bfs.grid().pr(), 3);
  EXPECT_EQ(bfs.cores_used(), 9);
}

TEST(Bfs2D, HybridMatchesFlat) {
  const auto built = test::rmat_graph(9);
  Bfs2D flat{built.csr, opts_with(16, 1)};
  Bfs2D hybrid{built.csr, opts_with(64, 4)};  // same 4x4 grid
  const auto f = flat.run(0);
  const auto h = hybrid.run(0);
  EXPECT_EQ(f.level, h.level);
  // The max-parent merge makes parents independent of how a rank's rows
  // are split among its threads.
  EXPECT_EQ(f.parent, h.parent);
}

TEST(Bfs2D, HybridRanksMultiplyOncePerThreadWindow) {
  // Fig 2: every top-down level, each of a hybrid rank's t threads runs
  // one SpMSV over its row window; a flat rank runs one.
  const auto built = test::rmat_graph(9);
  for (int t : {1, 4}) {
    Bfs2D bfs{built.csr, opts_with(16 * t, t)};
    const auto out = bfs.run(test::hub_source(built.csr));
    const auto levels = static_cast<std::int64_t>(out.report.levels.size());
    ASSERT_GT(levels, 1);
    EXPECT_EQ(out.report.spmsv_spa_calls + out.report.spmsv_heap_calls,
              std::int64_t{t} * bfs.grid().ranks() * levels)
        << out.report.algorithm;
  }
}

TEST(Bfs2D, DiagonalVectorDistributionSameAnswer) {
  const auto built = test::rmat_graph(9);
  auto opts = opts_with(16);
  opts.vector_dist = dist::VectorDistKind::kDiagonal;
  Bfs2D diag{built.csr, opts};
  const auto out = diag.run(0);
  const auto serial = serial_bfs(built.csr, 0);
  EXPECT_EQ(out.level, serial.level);
}

TEST(Bfs2D, DiagonalDistributionIdlesOffDiagonalRanks) {
  // The Figure 4 mechanism: off-diagonal ranks wait while diagonals merge.
  const auto built = test::rmat_graph(10, 16);
  auto opts = opts_with(16);
  opts.vector_dist = dist::VectorDistKind::kDiagonal;
  Bfs2D diag{built.csr, opts};
  const auto out = diag.run(test::hub_source(built.csr));
  const auto& grid = diag.grid();
  double diag_comm = 0.0;
  double off_comm = 0.0;
  int off_count = 0;
  for (int r = 0; r < grid.ranks(); ++r) {
    if (grid.row_of(r) == grid.col_of(r)) {
      diag_comm += out.report.per_rank_comm[r];
    } else {
      off_comm += out.report.per_rank_comm[r];
      ++off_count;
    }
  }
  diag_comm /= grid.pr();
  off_comm /= off_count;
  EXPECT_GT(off_comm, diag_comm);
}

TEST(Bfs2D, TwoDVectorDistributionIsBalanced) {
  const auto built = test::rmat_graph(10, 16);
  Bfs2D bfs{built.csr, opts_with(16)};
  const auto out = bfs.run(test::hub_source(built.csr));
  // §4.3: "almost no load imbalance" — bounded MPI-time spread.
  double min_comm = 1e30;
  double max_comm = 0.0;
  for (double c : out.report.per_rank_comm) {
    min_comm = std::min(min_comm, c);
    max_comm = std::max(max_comm, c);
  }
  EXPECT_LT(max_comm / std::max(min_comm, 1e-30), 2.0);
}

TEST(Bfs2D, ReportHasExpandAndFoldTraffic) {
  const auto built = test::rmat_graph(10);
  Bfs2D bfs{built.csr, opts_with(16)};
  const auto out = bfs.run(test::hub_source(built.csr));
  EXPECT_GT(out.report.allgather_bytes, 0u);
  EXPECT_GT(out.report.alltoall_bytes, 0u);
  EXPECT_GT(out.report.transpose_bytes, 0u);
  EXPECT_GT(out.report.total_seconds, 0.0);
}

TEST(Bfs2D, BackendCountersPopulated) {
  const auto built = test::rmat_graph(9);
  auto opts = opts_with(16);
  opts.backend = sparse::SpmsvBackend::kSpa;
  Bfs2D bfs{built.csr, opts};
  const auto out = bfs.run(test::hub_source(built.csr));
  EXPECT_GT(out.report.spmsv_spa_calls, 0);
  EXPECT_EQ(out.report.spmsv_heap_calls, 0);
}

TEST(Bfs2D, SingleRankDegenerateGrid) {
  const auto built = test::rmat_graph(8);
  Bfs2D bfs{built.csr, opts_with(1)};
  const auto serial = serial_bfs(built.csr, 0);
  EXPECT_EQ(bfs.run(0).level, serial.level);
}

TEST(Bfs2D, RejectsBadSource) {
  const auto g = graph::CsrGraph::from_edges(test::path_edges(4));
  Bfs2D bfs{g, opts_with(4)};
  EXPECT_THROW(bfs.run(99), std::out_of_range);
}

}  // namespace
}  // namespace dbfs::bfs
