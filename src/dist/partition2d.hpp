// 2D checkerboard decomposition of the adjacency matrix (paper §3.2,
// Eq. 1): on an s×s grid, block (i,j) holds the sub-matrix with rows in
// row-block R_i and columns in column-block C_j, stored hypersparse
// (DCSC). Entry (r, c) is nonzero iff the graph has edge c -> r, i.e. the
// matrix is stored pre-transposed exactly as §3.2 assumes, so one BFS
// level is y = A ⊗ x with x indexed by frontier vertices (columns).
#pragma once

#include <vector>

#include "dist/partition1d.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "simmpi/process_grid.hpp"
#include "sparse/dcsc_matrix.hpp"

namespace dbfs::dist {

class Partition2D {
 public:
  Partition2D() = default;

  /// Decompose the graph's arcs over a square grid. Row and column blocks
  /// share the same boundaries (BlockPartition of n over s). Keeps no
  /// reference to `csr`.
  ///
  /// With `triangular` set (requires a symmetric input), only the upper
  /// wedge is stored: entry {u,v} lands once, in block
  /// (min(bi,bj), max(bi,bj)) — and within diagonal blocks only the local
  /// upper triangle is kept. This is the paper's §7 space optimization
  /// ("one can save 50% space by storing only the upper triangle"); the
  /// BFS must then run a transpose product per level to cover the
  /// mirrored direction (see core::EngineOptions::triangular_storage).
  Partition2D(const graph::CsrGraph& csr, const simmpi::ProcessGrid& grid,
              bool triangular = false);

  /// The partition of CsrGraph::from_edges(edges); `n` must be the list's
  /// vertex count. Kept for bench/e2e's SpMSV probe, which builds its
  /// blocks from an edge list; it goes with that benchmark's next change.
  Partition2D(const graph::EdgeList& edges, vid_t n,
              const simmpi::ProcessGrid& grid, bool triangular = false);

  const BlockPartition& blocks() const noexcept { return blocks_; }

  bool triangular() const noexcept { return triangular_; }

  /// Total resident bytes across all local blocks — the quantity the §7
  /// optimization halves (see bench/ablation_triangular).
  std::size_t memory_bytes() const noexcept;

  /// Local hypersparse block of rank (i,j); row/col ids are local to
  /// (R_i, C_j).
  const sparse::DcscMatrix& block(int rank) const noexcept {
    return blocks_dcsc_[static_cast<std::size_t>(rank)];
  }

  /// Aggregate nonzeros across blocks (= edge count after dedup).
  eid_t total_nnz() const noexcept;

 private:
  BlockPartition blocks_;
  std::vector<sparse::DcscMatrix> blocks_dcsc_;
  bool triangular_ = false;
};

}  // namespace dbfs::dist
