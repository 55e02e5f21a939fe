// Distributed BFS with 2D matrix partitioning (paper Algorithm 3).
//
// The adjacency matrix is checkerboard-partitioned over a square process
// grid; each BFS level is one sparse matrix–sparse vector multiply on the
// (select, max) semiring, realized as:
//   TransposeVector  -> pairwise exchange of frontier pieces
//   Allgatherv       -> "expand" over processor columns (pr participants)
//   local SpMSV      -> DCSC blocks, SPA or heap back end (§4.2); a
//                       hybrid rank's t threads take row windows (Fig 2)
//   Alltoallv        -> "fold" over processor rows (pc participants)
// followed by element-wise filtering against the parents array and the
// parents update (lines 9-10).
//
// The vector distribution is selectable: the scalable 2D distribution, or
// the diagonal-only ("1D") distribution whose fold-side serialization
// produces the idle-time imbalance of Figure 4.
#pragma once

#include <memory>

#include "bfs/options.hpp"
#include "bfs/report.hpp"
#include "graph/csr_graph.hpp"
#include "obs/observers.hpp"
#include "simmpi/process_grid.hpp"

namespace dbfs::bfs {

class Bfs2D {
 public:
  /// Partition the arcs of `csr` over the closest square grid of
  /// cores / threads ranks (§6) for a 2D `opts.algorithm`. The driver
  /// keeps a reference to `csr`, which must outlive it: the direction
  /// heuristic reads its degrees, and a shrink re-partitions from it. The
  /// observers see the pr×pc grid, so the atlas splits row/column traffic
  /// (expand, fold) from grid-wide traffic — the 2D locality contrast of
  /// §6.
  Bfs2D(const graph::CsrGraph& csr, const core::EngineOptions& opts,
        obs::Observers observers = {});
  Bfs2D(graph::CsrGraph&&, const core::EngineOptions&,
        obs::Observers = {}) = delete;
  ~Bfs2D();

  Bfs2D(const Bfs2D&) = delete;
  Bfs2D& operator=(const Bfs2D&) = delete;

  BfsOutput run(vid_t source);

  const simmpi::ProcessGrid& grid() const;
  /// Cores actually used: ranks * threads (<= opts.cores when the square
  /// grid doesn't divide the request evenly).
  int cores_used() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dbfs::bfs
