// Tests for the §7 triangular-storage optimization: half the matrix
// memory, same BFS answers, via a scan-based transpose product per level.
#include <gtest/gtest.h>

#include "bfs/bfs2d.hpp"
#include "bfs/serial.hpp"
#include "dist/partition2d.hpp"
#include "graph/validator.hpp"
#include "sparse/spmsv.hpp"
#include "test_helpers.hpp"
#include "util/prng.hpp"

namespace dbfs {
namespace {

TEST(TriangularPartition, StoresHalfTheEntries) {
  const auto built = test::rmat_graph(10);
  const simmpi::ProcessGrid grid{4};
  const dist::Partition2D full{built.csr, grid};
  const dist::Partition2D tri{built.csr, grid,
                              /*triangular=*/true};
  // Symmetric, loop-free input: exactly half the entries survive.
  EXPECT_EQ(tri.total_nnz() * 2, full.total_nnz());
  EXPECT_LT(tri.memory_bytes(), full.memory_bytes() * 2 / 3);
  EXPECT_TRUE(tri.triangular());
  EXPECT_FALSE(full.triangular());
}

TEST(TriangularPartition, KeepsOnlyUpperWedge) {
  const auto built = test::rmat_graph(8);
  const simmpi::ProcessGrid grid{3};
  const dist::Partition2D tri{built.csr, grid,
                              true};
  const auto& blocks = tri.blocks();
  for (int rank = 0; rank < grid.ranks(); ++rank) {
    const int i = grid.row_of(rank);
    const int j = grid.col_of(rank);
    const auto& b = tri.block(rank);
    if (i > j) {
      EXPECT_EQ(b.nnz(), 0) << "lower-wedge block (" << i << "," << j
                            << ") must be empty";
    }
    if (i == j) {
      // Diagonal blocks: strictly upper local triangle (row < col).
      for (vid_t k = 0; k < b.nzc(); ++k) {
        const vid_t col = b.nonzero_column_id(k);
        for (vid_t row : b.nonzero_column(k)) {
          EXPECT_LT(row, col);
        }
      }
    }
    (void)blocks;
  }
}

TEST(SpmsvTranspose, MatchesExplicitTranspose) {
  // y = A^T x computed by the scan must equal the normal product with the
  // explicitly transposed matrix.
  util::Xoshiro256 rng{5};
  std::vector<sparse::Triple> triples;
  std::vector<sparse::Triple> transposed;
  for (int i = 0; i < 300; ++i) {
    const auto r = static_cast<vid_t>(rng.next_below(50));
    const auto c = static_cast<vid_t>(rng.next_below(50));
    triples.push_back(sparse::Triple{r, c});
    transposed.push_back(sparse::Triple{c, r});
  }
  const auto a = sparse::DcscMatrix::from_triples(50, 50, triples);
  const auto at = sparse::DcscMatrix::from_triples(50, 50, transposed);

  std::vector<vid_t> xval(50, kNoVertex);
  std::vector<sparse::SvEntry<vid_t>> xe;
  for (vid_t v = 0; v < 50; v += 3) {
    xval[static_cast<std::size_t>(v)] = v + 100;
    xe.push_back({v, v + 100});
  }
  const auto x = sparse::SparseVector<vid_t>::from_sorted(50, xe);

  auto mul = [](vid_t, vid_t, vid_t fv) { return fv; };
  auto comb = [](vid_t p, vid_t q) { return std::max(p, q); };

  const auto scan = sparse::spmsv_transpose<vid_t>(
      a,
      [&xval](vid_t row) -> const vid_t* {
        const vid_t* v = &xval[static_cast<std::size_t>(row)];
        return *v == kNoVertex ? nullptr : v;
      },
      mul, comb);
  sparse::Spa<vid_t> spa{50};
  const auto direct = sparse::spmsv<vid_t>(at, x, mul, comb,
                                           sparse::SpmsvBackend::kAuto, &spa);
  EXPECT_EQ(scan.entries(), direct.entries());
}

TEST(SpmsvTranspose, ScansEveryStoredNonzero) {
  const auto a = sparse::DcscMatrix::from_triples(
      8, 8, {{0, 1}, {2, 1}, {4, 6}, {5, 6}, {7, 7}});
  sparse::SpmsvStats st;
  const auto y = sparse::spmsv_transpose<vid_t>(
      a, [](vid_t) -> const vid_t* { return nullptr; },
      [](vid_t, vid_t, vid_t v) { return v; },
      [](vid_t p, vid_t q) { return std::max(p, q); }, &st);
  EXPECT_EQ(y.nnz(), 0);
  // The §7 tradeoff: the scan touches all nnz even with an empty frontier.
  EXPECT_EQ(st.flops, a.nnz());
}

class TriangularBfsSweep : public ::testing::TestWithParam<int> {};

TEST_P(TriangularBfsSweep, MatchesSerial) {
  const auto built = test::rmat_graph(10);
  core::EngineOptions opts;
  opts.cores = GetParam();
  opts.machine = model::franklin();
  opts.triangular_storage = true;
  bfs::Bfs2D bfs{built.csr, opts};
  const vid_t source = test::hub_source(built.csr);
  const auto out = bfs.run(source);
  const auto serial = bfs::serial_bfs(built.csr, source);
  EXPECT_EQ(out.level, serial.level) << "cores=" << GetParam();
}

TEST_P(TriangularBfsSweep, PassesValidation) {
  const auto built = test::rmat_graph(9, 8, 13);
  core::EngineOptions opts;
  opts.cores = GetParam();
  opts.machine = model::hopper();
  opts.triangular_storage = true;
  bfs::Bfs2D bfs{built.csr, opts};
  const vid_t source = test::hub_source(built.csr);
  const auto out = bfs.run(source);
  const auto v = graph::validate_bfs_tree(
      built.csr, source, out.parent,
      graph::reference_levels(built.csr, source));
  EXPECT_TRUE(v.ok) << v.error;
}

INSTANTIATE_TEST_SUITE_P(Cores, TriangularBfsSweep,
                         ::testing::Values(1, 4, 16, 64));

TEST(TriangularBfs, HighDiameterGraph) {
  const auto g = graph::CsrGraph::from_edges(test::path_edges(40));
  core::EngineOptions opts;
  opts.cores = 9;
  opts.triangular_storage = true;
  bfs::Bfs2D bfs{g, opts};
  const auto out = bfs.run(0);
  for (vid_t v = 0; v < 40; ++v) EXPECT_EQ(out.level[v], v);
}

TEST(TriangularBfs, HybridMode) {
  const auto built = test::rmat_graph(9);
  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kTwoDHybrid;
  opts.cores = 64;
  opts.threads_per_rank = 4;
  opts.triangular_storage = true;
  bfs::Bfs2D bfs{built.csr, opts};
  const vid_t source = test::hub_source(built.csr);
  const auto serial = bfs::serial_bfs(built.csr, source);
  EXPECT_EQ(bfs.run(source).level, serial.level);
}

TEST(TriangularBfs, RejectsDiagonalDistribution) {
  const auto g = graph::CsrGraph::from_edges(test::path_edges(8));
  core::EngineOptions opts;
  opts.cores = 4;
  opts.triangular_storage = true;
  opts.vector_dist = dist::VectorDistKind::kDiagonal;
  EXPECT_THROW(bfs::Bfs2D(g, opts), std::invalid_argument);
}

TEST(TriangularBfs, SlowerButSameTrafficOrder) {
  // The space optimization costs compute (the per-level scan), and adds
  // pairwise transpose traffic; it must not explode communication.
  const auto built = test::rmat_graph(11, 16);
  core::EngineOptions full;
  full.cores = 64;
  full.machine = model::franklin();
  core::EngineOptions tri = full;
  tri.triangular_storage = true;
  bfs::Bfs2D bf{built.csr, full};
  bfs::Bfs2D bt{built.csr, tri};
  const vid_t source = test::hub_source(built.csr);
  const auto rf = bf.run(source).report;
  const auto rt = bt.run(source).report;
  EXPECT_GT(rt.comp_seconds_mean, rf.comp_seconds_mean);
  EXPECT_LT(rt.total_seconds, rf.total_seconds * 10);
  EXPECT_NE(rt.algorithm.find("-tri"), std::string::npos);
}

}  // namespace
}  // namespace dbfs
