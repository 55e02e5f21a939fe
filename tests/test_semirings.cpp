#include "sparse/semirings.hpp"

#include <gtest/gtest.h>

#include "sparse/spmsv.hpp"

namespace dbfs::sparse {
namespace {

DcscMatrix tiny() {
  // columns: 0 -> rows {1,2}; 2 -> rows {1,3}.
  return DcscMatrix::from_triples(4, 4, {{1, 0}, {2, 0}, {1, 2}, {3, 2}});
}

TEST(Semirings, BfsParentSelectsMaxGlobalColumn) {
  const auto a = tiny();
  auto x = SparseVector<vid_t>::from_sorted(4, {{0, 0}, {2, 2}});
  Spa<vid_t> spa{4};
  const BfsParentSemiring sr{100};  // block starts at global column 100
  const auto y = spmsv<vid_t>(a, x, sr.multiply(), sr.combine(),
                              SpmsvBackend::kAuto, &spa);
  EXPECT_EQ(*y.find(1), 102);  // columns 0 and 2 hit row 1; max wins
  EXPECT_EQ(*y.find(2), 100);
  EXPECT_EQ(*y.find(3), 102);
}

TEST(Semirings, BackendsAgreeUnderEverySemiring) {
  const auto a = tiny();
  auto x = SparseVector<vid_t>::from_sorted(4, {{0, 3}, {2, 9}});
  Spa<vid_t> spa{4};
  const BfsParentSemiring sr{0};
  const auto spa_y = spmsv<vid_t>(a, x, sr.multiply(), sr.combine(),
                                  SpmsvBackend::kSpa, &spa);
  const auto heap_y = spmsv<vid_t>(a, x, sr.multiply(), sr.combine(),
                                   SpmsvBackend::kHeap, nullptr);
  EXPECT_EQ(spa_y.entries(), heap_y.entries());
}

}  // namespace
}  // namespace dbfs::sparse
