#include "sparse/spmsv.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "util/prng.hpp"

namespace dbfs::sparse {
namespace {

vid_t col_id_mul(vid_t /*row*/, vid_t col, vid_t /*xval*/) { return col; }
vid_t max_combine(vid_t a, vid_t b) { return std::max(a, b); }

DcscMatrix tiny_matrix() {
  // 4x4, columns: 0 -> rows {1,2}; 2 -> rows {0,1}; 3 -> row {3}.
  return DcscMatrix::from_triples(
      4, 4, {{1, 0}, {2, 0}, {0, 2}, {1, 2}, {3, 3}});
}

TEST(Spmsv, EmptyVectorGivesEmptyResult) {
  const auto a = tiny_matrix();
  SparseVector<vid_t> x{4};
  Spa<vid_t> spa{4};
  SpmsvStats st;
  const auto y = spmsv<vid_t>(a, x, col_id_mul, max_combine,
                              SpmsvBackend::kAuto, &spa, &st);
  EXPECT_EQ(y.nnz(), 0);
  EXPECT_EQ(st.flops, 0);
}

TEST(Spmsv, SingleColumnSelection) {
  const auto a = tiny_matrix();
  auto x = SparseVector<vid_t>::from_sorted(4, {{0, 0}});
  Spa<vid_t> spa{4};
  const auto y =
      spmsv<vid_t>(a, x, col_id_mul, max_combine, SpmsvBackend::kSpa, &spa);
  ASSERT_EQ(y.nnz(), 2);
  EXPECT_EQ(y.entries()[0].index, 1);
  EXPECT_EQ(y.entries()[1].index, 2);
  EXPECT_EQ(y.entries()[0].value, 0);  // parent = column id
}

TEST(Spmsv, MaxSemiringPicksLargestColumn) {
  const auto a = tiny_matrix();
  // Row 1 is hit by columns 0 and 2; (select, max) keeps 2.
  auto x = SparseVector<vid_t>::from_sorted(4, {{0, 0}, {2, 2}});
  for (auto backend : {SpmsvBackend::kSpa, SpmsvBackend::kHeap}) {
    Spa<vid_t> spa{4};
    const auto y = spmsv<vid_t>(a, x, col_id_mul, max_combine, backend, &spa);
    const vid_t* row1 = y.find(1);
    ASSERT_NE(row1, nullptr);
    EXPECT_EQ(*row1, 2);
  }
}

TEST(Spmsv, BackendsAgreeOnRandomInputs) {
  util::Xoshiro256 rng{31};
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Triple> triples;
    const int nnz = 200;
    for (int i = 0; i < nnz; ++i) {
      triples.push_back(
          Triple{static_cast<vid_t>(rng.next_below(64)),
                 static_cast<vid_t>(rng.next_below(64))});
    }
    const auto a = DcscMatrix::from_triples(64, 64, triples);
    std::vector<SvEntry<vid_t>> xe;
    for (vid_t c = 0; c < 64; ++c) {
      if (rng.next_double() < 0.3) xe.push_back({c, c});
    }
    const auto x = SparseVector<vid_t>::from_sorted(64, xe);

    Spa<vid_t> spa{64};
    SpmsvStats st_spa;
    SpmsvStats st_heap;
    const auto y_spa = spmsv<vid_t>(a, x, col_id_mul, max_combine,
                                    SpmsvBackend::kSpa, &spa, &st_spa);
    const auto y_heap = spmsv<vid_t>(a, x, col_id_mul, max_combine,
                                     SpmsvBackend::kHeap, nullptr, &st_heap);
    ASSERT_EQ(y_spa.nnz(), y_heap.nnz()) << "trial " << trial;
    EXPECT_EQ(y_spa.entries(), y_heap.entries());
    EXPECT_EQ(st_spa.flops, st_heap.flops);
    EXPECT_EQ(st_spa.used, SpmsvBackend::kSpa);
    EXPECT_EQ(st_heap.used, SpmsvBackend::kHeap);
  }
}

TEST(Spmsv, MatchesDenseReference) {
  util::Xoshiro256 rng{47};
  std::vector<Triple> triples;
  for (int i = 0; i < 500; ++i) {
    triples.push_back(Triple{static_cast<vid_t>(rng.next_below(100)),
                             static_cast<vid_t>(rng.next_below(100))});
  }
  const auto a = DcscMatrix::from_triples(100, 100, triples);
  std::vector<SvEntry<vid_t>> xe;
  for (vid_t c = 0; c < 100; c += 3) xe.push_back({c, c});
  const auto x = SparseVector<vid_t>::from_sorted(100, xe);

  // Dense reference on the same semiring.
  std::map<vid_t, vid_t> expected;
  for (const auto& e : x.entries()) {
    for (vid_t row : a.column(e.index)) {
      auto [it, inserted] = expected.emplace(row, e.index);
      if (!inserted) it->second = std::max(it->second, e.index);
    }
  }

  Spa<vid_t> spa{100};
  const auto y =
      spmsv<vid_t>(a, x, col_id_mul, max_combine, SpmsvBackend::kAuto, &spa);
  ASSERT_EQ(static_cast<std::size_t>(y.nnz()), expected.size());
  for (const auto& e : y.entries()) {
    EXPECT_EQ(e.value, expected.at(e.index));
  }
}

TEST(Spmsv, AutoWithoutWorkspaceFallsBackToHeap) {
  const auto a = tiny_matrix();
  auto x = SparseVector<vid_t>::from_sorted(4, {{0, 0}, {2, 2}, {3, 3}});
  SpmsvStats st;
  const auto y = spmsv<vid_t>(a, x, col_id_mul, max_combine,
                              SpmsvBackend::kSpa, nullptr, &st);
  EXPECT_EQ(st.used, SpmsvBackend::kHeap);
  EXPECT_EQ(y.nnz(), 4);
}

TEST(Spmsv, AlternativeSemiringCountsContributions) {
  const auto a = tiny_matrix();
  auto x = SparseVector<vid_t>::from_sorted(4, {{0, 1}, {2, 1}});
  Spa<vid_t> spa{4};
  // (+, *1): counts how many selected columns hit each row.
  const auto y = spmsv<vid_t>(
      a, x, [](vid_t, vid_t, vid_t xval) { return xval; },
      [](vid_t p, vid_t q) { return p + q; }, SpmsvBackend::kSpa, &spa);
  EXPECT_EQ(*y.find(1), 2);  // columns 0 and 2 both hit row 1
  EXPECT_EQ(*y.find(0), 1);
  EXPECT_EQ(*y.find(2), 1);
}

TEST(ChooseBackend, DenseSelectsSpaSparsePicksHeap) {
  EXPECT_EQ(choose_backend(1000, 1000), SpmsvBackend::kSpa);
  EXPECT_EQ(choose_backend(10, 100000), SpmsvBackend::kHeap);
  EXPECT_EQ(choose_backend(0, 0), SpmsvBackend::kHeap);
}

/// Fig 2's thread pieces as separate blocks, the reference for the row
/// windows: rows_per = max(1, nrows / t) rows each, the last piece takes
/// the rest, and pieces past the last row are empty.
struct Piece {
  vid_t base;
  DcscMatrix block;
};

std::vector<Piece> reference_pieces(vid_t nrows, vid_t ncols,
                                    const std::vector<Triple>& triples,
                                    int t) {
  const vid_t rows_per = std::max<vid_t>(1, nrows / t);
  std::vector<std::vector<Triple>> buckets(static_cast<std::size_t>(t));
  for (const Triple& e : triples) {
    const vid_t piece = std::min<vid_t>(e.row / rows_per, t - 1);
    buckets[static_cast<std::size_t>(piece)].push_back(
        Triple{e.row - piece * rows_per, e.col});
  }
  std::vector<Piece> pieces;
  for (int k = 0; k < t; ++k) {
    const vid_t base = static_cast<vid_t>(k) * rows_per;
    const vid_t rows = k == t - 1 ? nrows - base : rows_per;
    pieces.push_back(Piece{
        base, DcscMatrix::from_triples(
                  std::max<vid_t>(rows, 0), ncols,
                  std::move(buckets[static_cast<std::size_t>(k)]))});
  }
  return pieces;
}

/// Runs t windows over the whole block and checks each window's entries
/// and stats against plain spmsv on the matching piece. Returns the back
/// ends the windows ran.
std::vector<SpmsvBackend> expect_windows_match_pieces(
    vid_t nrows, vid_t ncols, const std::vector<Triple>& triples,
    const SparseVector<vid_t>& x, int t, SpmsvBackend backend,
    bool with_workspace) {
  const auto block = DcscMatrix::from_triples(nrows, ncols, triples);
  const auto pieces = reference_pieces(nrows, ncols, triples, t);
  Spa<vid_t> spa;
  std::vector<SpmsvStats> stats(static_cast<std::size_t>(t));
  const auto y = spmsv_windows<vid_t>(block, x, t, col_id_mul, max_combine,
                                      backend,
                                      with_workspace ? &spa : nullptr, stats);
  EXPECT_EQ(y.dim(), nrows);
  EXPECT_TRUE(y.invariants_hold());

  std::vector<SpmsvBackend> used;
  std::size_t next = 0;
  for (int w = 0; w < t; ++w) {
    const Piece& piece = pieces[static_cast<std::size_t>(w)];
    Spa<vid_t> piece_spa;
    SpmsvStats want;
    const auto expected =
        spmsv<vid_t>(piece.block, x, col_id_mul, max_combine, backend,
                     with_workspace ? &piece_spa : nullptr, &want);
    std::vector<SvEntry<vid_t>> got;
    const vid_t end = piece.base + piece.block.nrows();
    for (; next < y.entries().size() && y.entries()[next].index < end;
         ++next) {
      const SvEntry<vid_t>& e = y.entries()[next];
      got.push_back(SvEntry<vid_t>{e.index - piece.base, e.value});
    }
    const SpmsvStats& st = stats[static_cast<std::size_t>(w)];
    EXPECT_EQ(got, expected.entries()) << "window " << w << " of " << t;
    EXPECT_EQ(st.flops, want.flops) << "window " << w << " of " << t;
    EXPECT_EQ(st.output_nnz, want.output_nnz) << "window " << w;
    EXPECT_EQ(st.used, want.used) << "window " << w << " of " << t;
    used.push_back(st.used);
  }
  EXPECT_EQ(next, y.entries().size()) << "entries past the last window";
  return used;
}

TEST(Spmsv, WindowsMatchThePieces) {
  util::Xoshiro256 rng{59};
  struct Shape {
    vid_t nrows;
    vid_t ncols;
    int nnz;
  };
  // Square, tall and hypersparse (kAuto picks the heap there), and fewer
  // rows than most thread counts.
  const Shape shapes[] = {{100, 40, 500}, {37, 64, 90}, {3000, 64, 60},
                          {4, 12, 20}};
  std::vector<SpmsvBackend> auto_used;
  for (const Shape& shape : shapes) {
    std::vector<Triple> triples;
    for (int k = 0; k < shape.nnz; ++k) {
      triples.push_back(Triple{
          static_cast<vid_t>(
              rng.next_below(static_cast<std::uint64_t>(shape.nrows))),
          static_cast<vid_t>(
              rng.next_below(static_cast<std::uint64_t>(shape.ncols)))});
    }
    // x selects about a third of the columns, empty ones included.
    std::vector<SvEntry<vid_t>> xe;
    for (vid_t c = 0; c < shape.ncols; ++c) {
      if (rng.next_double() < 0.35) xe.push_back({c, c});
    }
    const auto x = SparseVector<vid_t>::from_sorted(shape.ncols, xe);
    const SparseVector<vid_t> empty_x{shape.ncols};
    for (int t : {1, 2, 3, 6, 9}) {
      for (auto backend : {SpmsvBackend::kAuto, SpmsvBackend::kSpa,
                           SpmsvBackend::kHeap}) {
        SCOPED_TRACE(::testing::Message()
                     << shape.nrows << "x" << shape.ncols << " t=" << t
                     << " backend=" << to_string(backend));
        const auto used = expect_windows_match_pieces(
            shape.nrows, shape.ncols, triples, x, t, backend, true);
        if (backend == SpmsvBackend::kAuto) {
          auto_used.insert(auto_used.end(), used.begin(), used.end());
        }
        expect_windows_match_pieces(shape.nrows, shape.ncols, triples,
                                    empty_x, t, backend, true);
      }
      SCOPED_TRACE(::testing::Message() << shape.nrows << "x" << shape.ncols
                                        << " t=" << t << " spa, no workspace");
      expect_windows_match_pieces(shape.nrows, shape.ncols, triples, x, t,
                                  SpmsvBackend::kSpa, false);
    }
  }
  // kAuto chose each back end somewhere, so both window paths ran.
  EXPECT_NE(std::count(auto_used.begin(), auto_used.end(), SpmsvBackend::kSpa),
            0);
  EXPECT_NE(
      std::count(auto_used.begin(), auto_used.end(), SpmsvBackend::kHeap), 0);

  // The multiply sees rows of the whole block, not of its window.
  const auto a = tiny_matrix();
  const auto all = SparseVector<vid_t>::from_sorted(
      4, {{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  for (int t : {1, 3}) {
    for (auto backend : {SpmsvBackend::kSpa, SpmsvBackend::kHeap}) {
      Spa<vid_t> spa;
      const auto y = spmsv_windows<vid_t>(
          a, all, t, [](vid_t row, vid_t, vid_t) { return row; },
          max_combine, backend, &spa, {});
      ASSERT_EQ(y.nnz(), 4);
      for (const auto& e : y.entries()) EXPECT_EQ(e.value, e.index);
    }
  }

  EXPECT_THROW(spmsv_windows<vid_t>(a, all, 0, col_id_mul, max_combine,
                                    SpmsvBackend::kAuto, nullptr, {}),
               std::invalid_argument);
}

TEST(Spmsv, WorkspaceGrowsOnDemand) {
  const auto a = tiny_matrix();
  auto x = SparseVector<vid_t>::from_sorted(4, {{0, 0}});
  Spa<vid_t> spa{1};  // smaller than a.nrows()
  const auto y =
      spmsv<vid_t>(a, x, col_id_mul, max_combine, SpmsvBackend::kSpa, &spa);
  EXPECT_EQ(y.nnz(), 2);
  EXPECT_GE(spa.dim(), 4);
}

}  // namespace
}  // namespace dbfs::sparse
