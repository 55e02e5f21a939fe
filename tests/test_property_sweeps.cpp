// Cross-module property sweeps (parameterized): invariants that must hold
// for every configuration in a family, not just hand-picked examples.
#include <gtest/gtest.h>

#include "dist/partition2d.hpp"
#include "graph/generators.hpp"
#include "model/cost.hpp"
#include "sparse/csc_matrix.hpp"
#include "sparse/dcsc_matrix.hpp"
#include "sparse/merge.hpp"
#include "test_helpers.hpp"
#include "util/prng.hpp"

namespace dbfs {
namespace {

// ---- Partition2D conserves nonzeros for every grid size ----

class GridSweep : public ::testing::TestWithParam<int> {};

TEST_P(GridSweep, Partition2DConservesNnz) {
  auto built = test::rmat_graph(9, 8, 17);
  const simmpi::ProcessGrid grid{GetParam()};
  const dist::Partition2D part{built.edges, built.csr.num_vertices(), grid};
  EXPECT_EQ(part.total_nnz(), built.edges.num_edges());
}

TEST_P(GridSweep, Partition2DBlocksCoverDisjointRanges) {
  auto built = test::rmat_graph(8, 4, 3);
  const simmpi::ProcessGrid grid{GetParam()};
  const dist::Partition2D part{built.edges, built.csr.num_vertices(), grid};
  const auto& blocks = part.blocks();
  // Every block's dimensions match its (row, col) ranges.
  for (int rank = 0; rank < grid.ranks(); ++rank) {
    const int i = grid.row_of(rank);
    const int j = grid.col_of(rank);
    EXPECT_EQ(part.block(rank).nrows(), blocks.size(i));
    EXPECT_EQ(part.block(rank).ncols(), blocks.size(j));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GridSweep, ::testing::Values(1, 2, 3, 5, 8, 13));

// ---- DCSC equals CSC on random matrices across densities ----

class DensitySweep : public ::testing::TestWithParam<int> {};

TEST_P(DensitySweep, DcscMatchesCscEverywhere) {
  util::Xoshiro256 rng{static_cast<std::uint64_t>(GetParam())};
  const vid_t dim = 96;
  std::vector<sparse::Triple> triples;
  const int nnz = GetParam() * 37;
  for (int i = 0; i < nnz; ++i) {
    triples.push_back(sparse::Triple{
        static_cast<vid_t>(rng.next_below(dim)),
        static_cast<vid_t>(rng.next_below(dim))});
  }
  const auto csc = sparse::CscMatrix::from_triples(dim, dim, triples);
  const auto dcsc = sparse::DcscMatrix::from_triples(dim, dim, triples);
  EXPECT_EQ(csc.nnz(), dcsc.nnz());
  for (vid_t c = 0; c < dim; ++c) {
    const auto a = csc.column(c);
    const auto b = dcsc.column(c);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

INSTANTIATE_TEST_SUITE_P(Nnz, DensitySweep,
                         ::testing::Values(1, 4, 16, 64, 128));

// ---- Cost-model monotonicity on every machine preset ----

class MachineSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(MachineSweep, AlltoallvMonotoneInGroupAndBytes) {
  const auto m = model::preset(GetParam());
  double prev = 0.0;
  for (int g : {2, 8, 64, 512, 4096}) {
    const double c = model::cost_alltoallv(m, g, 1 << 16);
    EXPECT_GT(c, prev) << GetParam() << " g=" << g;
    prev = c;
  }
  EXPECT_LT(model::cost_alltoallv(m, 64, 1 << 10),
            model::cost_alltoallv(m, 64, 1 << 20));
}

TEST_P(MachineSweep, AlphaLocalMonotone) {
  const auto m = model::preset(GetParam());
  double prev = 0.0;
  for (double bytes = 256; bytes < 1e12; bytes *= 8) {
    const double a = m.alpha_local(bytes);
    EXPECT_GE(a, prev) << GetParam() << " bytes=" << bytes;
    prev = a;
  }
}

TEST_P(MachineSweep, ThreadEfficiencyWithinBounds) {
  const auto m = model::preset(GetParam());
  for (int t : {1, 2, 4, 6, 8, 16}) {
    const double e = m.thread_efficiency(t);
    EXPECT_GT(e, 0.0);
    EXPECT_LE(e, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Presets, MachineSweep,
                         ::testing::Values("franklin", "hopper", "carver",
                                           "generic"));

// ---- KaryHeap arity sweep ----

template <int Arity>
struct ArityTag {
  static constexpr int value = Arity;
};

template <typename Tag>
class HeapAritySweep : public ::testing::Test {};

using Arities = ::testing::Types<ArityTag<2>, ArityTag<3>, ArityTag<4>,
                                 ArityTag<8>>;
TYPED_TEST_SUITE(HeapAritySweep, Arities);

TYPED_TEST(HeapAritySweep, SortsRandomInput) {
  struct Less {
    bool operator()(int a, int b) const { return a < b; }
  };
  sparse::KaryHeap<int, Less, TypeParam::value> heap;
  util::Xoshiro256 rng{42};
  std::vector<int> values;
  for (int i = 0; i < 2000; ++i) {
    const int v = static_cast<int>(rng.next_below(500));
    values.push_back(v);
    heap.push(v);
  }
  std::sort(values.begin(), values.end());
  for (int expected : values) {
    ASSERT_EQ(heap.top(), expected);
    heap.pop();
  }
  EXPECT_TRUE(heap.empty());
}

}  // namespace
}  // namespace dbfs
