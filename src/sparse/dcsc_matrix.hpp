// Doubly-compressed sparse columns (DCSC), Buluç & Gilbert's hypersparse
// format (paper §4.1, Fig 2): storage is O(nnz + nzc), independent of the
// matrix dimension — exactly what a 2D-partitioned sub-matrix needs, since
// after a p-way 2D split each block has far fewer nonzero columns than
// total columns. Fig 2's per-thread pieces of a block are row windows of
// it, cut during the multiply (spmsv_windows in spmsv.hpp).
//
// Arrays:
//   jc[0..nzc)   — ids of columns that have at least one nonzero, sorted
//   cp[0..nzc]   — column pointers into ir (parallel to jc)
//   ir[0..nnz)   — row ids, sorted within each column
//   aux          — chunked accelerator over jc giving near-O(1) column
//                  lookup during SpMSV (the "fast indexing support" §4.1)
#pragma once

#include <span>
#include <vector>

#include "sparse/csc_matrix.hpp"
#include "util/types.hpp"

namespace dbfs::sparse {

class DcscMatrix {
 public:
  DcscMatrix() = default;

  static DcscMatrix from_triples(vid_t nrows, vid_t ncols,
                                 std::vector<Triple> triples);

  vid_t nrows() const noexcept { return nrows_; }
  vid_t ncols() const noexcept { return ncols_; }
  eid_t nnz() const noexcept { return static_cast<eid_t>(ir_.size()); }
  /// Number of columns holding at least one nonzero.
  vid_t nzc() const noexcept { return static_cast<vid_t>(jc_.size()); }

  /// Sorted row ids of column `col`; empty span when the column is empty.
  /// Uses the aux accelerator: expected O(nnz/nzc)-bounded probe.
  std::span<const vid_t> column(vid_t col) const noexcept;

  /// k-th nonzero column: its id and row span (for full-matrix scans).
  vid_t nonzero_column_id(vid_t k) const noexcept { return jc_[k]; }
  std::span<const vid_t> nonzero_column(vid_t k) const noexcept {
    return {ir_.data() + cp_[k], static_cast<std::size_t>(cp_[k + 1] - cp_[k])};
  }

  /// Actual resident bytes — compared against CSC in tests to verify the
  /// O(nnz + nzc) claim.
  std::size_t memory_bytes() const noexcept;

  const std::vector<vid_t>& jc() const noexcept { return jc_; }
  const std::vector<eid_t>& cp() const noexcept { return cp_; }
  const std::vector<vid_t>& ir() const noexcept { return ir_; }

 private:
  void build_aux();

  vid_t nrows_ = 0;
  vid_t ncols_ = 0;
  std::vector<vid_t> jc_;
  std::vector<eid_t> cp_;
  std::vector<vid_t> ir_;
  // aux[b] = first jc position whose column id lands at or beyond bucket b;
  // bucket width = ceil(ncols / nzc), so expected one jc entry per bucket.
  std::vector<vid_t> aux_;
  vid_t bucket_width_ = 1;
};

}  // namespace dbfs::sparse
