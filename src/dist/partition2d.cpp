#include "dist/partition2d.hpp"

#include <stdexcept>

#include "util/parallel.hpp"

namespace dbfs::dist {

Partition2D::Partition2D(const graph::EdgeList& edges, vid_t n,
                         const simmpi::ProcessGrid& grid, bool triangular) {
  if (!grid.is_square()) {
    throw std::invalid_argument(
        "Partition2D: the 2D BFS uses square grids (paper §6)");
  }
  const int s = grid.pr();
  blocks_ = BlockPartition(n, s);
  triangular_ = triangular;

  const std::vector<graph::Edge>& list = edges.edges();
  const auto ranks = static_cast<std::size_t>(grid.ranks());
  const std::size_t slots = util::counting_slots(list.size(), ranks);
  const auto for_each_entry = [&](std::size_t slot, auto&& entry) {
    const auto [first, last] = util::slot_range(list.size(), slots, slot);
    for (std::size_t k = first; k < last; ++k) {
      // Edge u -> v lands at matrix entry (row v, col u): pre-transposed.
      const vid_t row = list[k].v;
      const vid_t col = list[k].u;
      // Triangular storage keeps only the upper wedge: a symmetric input
      // carries both {u,v} and {v,u}; the one whose entry falls strictly
      // below the diagonal is dropped (its mirror is kept by the other
      // orientation).
      if (triangular && row > col) continue;
      const int i = blocks_.owner(row);
      const int j = blocks_.owner(col);
      entry(static_cast<std::size_t>(grid.rank_of(i, j)),
            sparse::Triple{row - blocks_.begin(i), col - blocks_.begin(j)});
    }
  };

  // Count each slot's entries per rank, size every rank's triples
  // exactly, then place each slot's entries in input order: sorted input
  // gives every block its triples already in (col, row) order.
  std::vector<eid_t> cursor(slots * ranks, 0);
  util::for_each_slot(slots, [&](std::size_t slot) {
    eid_t* count = cursor.data() + slot * ranks;
    for_each_entry(slot, [count](std::size_t r, const sparse::Triple&) {
      ++count[r];
    });
  });
  const std::vector<eid_t> totals = util::slot_starts(cursor, slots);
  std::vector<std::vector<sparse::Triple>> triples(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    triples[r].resize(static_cast<std::size_t>(totals[r]));
  }
  util::for_each_slot(slots, [&](std::size_t slot) {
    eid_t* next = cursor.data() + slot * ranks;
    for_each_entry(slot, [&](std::size_t r, const sparse::Triple& t) {
      triples[r][static_cast<std::size_t>(next[r]++)] = t;
    });
  });

  blocks_dcsc_.reserve(ranks);
  for (int rank = 0; rank < grid.ranks(); ++rank) {
    const int i = grid.row_of(rank);
    const int j = grid.col_of(rank);
    blocks_dcsc_.push_back(sparse::DcscMatrix::from_triples(
        blocks_.size(i), blocks_.size(j),
        std::move(triples[static_cast<std::size_t>(rank)])));
  }
}

eid_t Partition2D::total_nnz() const noexcept {
  eid_t sum = 0;
  for (const auto& b : blocks_dcsc_) sum += b.nnz();
  return sum;
}

std::size_t Partition2D::memory_bytes() const noexcept {
  std::size_t sum = 0;
  for (const auto& b : blocks_dcsc_) sum += b.memory_bytes();
  return sum;
}

}  // namespace dbfs::dist
