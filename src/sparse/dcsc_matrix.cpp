#include "sparse/dcsc_matrix.hpp"

#include <algorithm>
#include <stdexcept>

namespace dbfs::sparse {

DcscMatrix DcscMatrix::from_triples(vid_t nrows, vid_t ncols,
                                    std::vector<Triple> triples) {
  for (const Triple& t : triples) {
    if (t.row < 0 || t.row >= nrows || t.col < 0 || t.col >= ncols) {
      throw std::invalid_argument("DcscMatrix: triple out of range");
    }
  }
  const auto by_col_row = [](const Triple& a, const Triple& b) {
    return a.col != b.col ? a.col < b.col : a.row < b.row;
  };
  // Partition2D places the CSR's sorted arcs stably, so its triples
  // arrive in order and skip the sort.
  if (!std::is_sorted(triples.begin(), triples.end(), by_col_row)) {
    std::sort(triples.begin(), triples.end(), by_col_row);
  }
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());

  DcscMatrix m;
  m.nrows_ = nrows;
  m.ncols_ = ncols;
  m.ir_.reserve(triples.size());
  for (const Triple& t : triples) {
    if (m.jc_.empty() || m.jc_.back() != t.col) {
      m.jc_.push_back(t.col);
      m.cp_.push_back(static_cast<eid_t>(m.ir_.size()));
    }
    m.ir_.push_back(t.row);
  }
  m.cp_.push_back(static_cast<eid_t>(m.ir_.size()));
  m.build_aux();
  return m;
}

void DcscMatrix::build_aux() {
  const vid_t nzc_count = nzc();
  if (nzc_count == 0 || ncols_ == 0) {
    aux_.assign(2, 0);
    bucket_width_ = std::max<vid_t>(ncols_, 1);
    return;
  }
  bucket_width_ = std::max<vid_t>(1, (ncols_ + nzc_count - 1) / nzc_count);
  const vid_t buckets = (ncols_ + bucket_width_ - 1) / bucket_width_;
  aux_.assign(static_cast<std::size_t>(buckets) + 1, nzc_count);
  // One sweep over jc fills the first-position-of-bucket table.
  for (vid_t k = nzc_count - 1; k >= 0; --k) {
    aux_[static_cast<std::size_t>(jc_[k] / bucket_width_)] = k;
  }
  // Back-fill empty buckets so aux[b] <= aux[b+1] everywhere.
  for (std::size_t b = aux_.size() - 1; b-- > 0;) {
    aux_[b] = std::min(aux_[b], aux_[b + 1]);
  }
}

std::span<const vid_t> DcscMatrix::column(vid_t col) const noexcept {
  if (col < 0 || col >= ncols_ || jc_.empty()) return {};
  const auto bucket = static_cast<std::size_t>(col / bucket_width_);
  const vid_t begin = aux_[bucket];
  const vid_t end = aux_[bucket + 1];
  // Expected O(1) probes: each bucket holds ~1 nonzero column on average.
  for (vid_t k = begin; k < end; ++k) {
    if (jc_[k] == col) return nonzero_column(k);
    if (jc_[k] > col) break;
  }
  return {};
}

std::vector<DcscMatrix> DcscMatrix::split_rowwise(int pieces) const {
  if (pieces < 1) throw std::invalid_argument("split_rowwise: pieces < 1");
  const vid_t rows_per = std::max<vid_t>(1, nrows_ / pieces);
  std::vector<std::vector<Triple>> buckets(static_cast<std::size_t>(pieces));
  for (vid_t k = 0; k < nzc(); ++k) {
    const vid_t col = jc_[k];
    for (vid_t row : nonzero_column(k)) {
      const auto piece = static_cast<std::size_t>(
          std::min<vid_t>(row / rows_per, pieces - 1));
      const vid_t base = static_cast<vid_t>(piece) * rows_per;
      buckets[piece].push_back(Triple{row - base, col});
    }
  }
  std::vector<DcscMatrix> out;
  out.reserve(static_cast<std::size_t>(pieces));
  for (int piece = 0; piece < pieces; ++piece) {
    const vid_t base = static_cast<vid_t>(piece) * rows_per;
    const vid_t piece_rows =
        (piece == pieces - 1) ? nrows_ - base : rows_per;
    out.push_back(from_triples(std::max<vid_t>(piece_rows, 0), ncols_,
                               std::move(buckets[static_cast<std::size_t>(piece)])));
  }
  return out;
}

std::size_t DcscMatrix::memory_bytes() const noexcept {
  return jc_.capacity() * sizeof(vid_t) + cp_.capacity() * sizeof(eid_t) +
         ir_.capacity() * sizeof(vid_t) + aux_.capacity() * sizeof(vid_t);
}

}  // namespace dbfs::sparse
