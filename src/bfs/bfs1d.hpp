// Distributed BFS with 1D vertex partitioning (paper Algorithm 2).
//
// Each simulated rank owns a contiguous vertex range and the out-edges of
// those vertices, read in place from the one CSR (§4.1). A level
// proceeds as: scan the local frontier's adjacencies, bucket each
// (neighbor, parent) candidate by owner rank, exchange everything in one
// Alltoallv, then let owners apply distance checks and build the next
// local frontier. The hybrid variant models
// t-way intra-node threading in the cost model (four thread barriers per
// level as in Algorithm 2). Its thread-local buffers would merge into the
// same owner-ordered send buffer the flat variant packs, so both variants
// pack that buffer directly. The exchange and the owners' merge are
// bfs/exchange.hpp, shared with Bfs2D's fold.
//
// The Graph 500 reference code and PBGL (§6, Table 2) are the same
// level-synchronous BFS with a costlier exchange and inner loop; Bfs1D
// runs them from a per-algorithm table (bfs1d.cpp) that prices their
// unaggregated messages and heavier loops over identical data movement.
#pragma once

#include <memory>

#include "bfs/options.hpp"
#include "bfs/report.hpp"
#include "dist/partition1d.hpp"
#include "graph/csr_graph.hpp"
#include "obs/observers.hpp"

namespace dbfs::bfs {

class Bfs1D {
 public:
  /// Partition the vertices of `csr` (already shuffled/symmetrized as
  /// desired) over max(1, cores / threads) ranks for a 1D
  /// `opts.algorithm` (flat, hybrid or a baseline). Rank r scans
  /// `csr.neighbors(u)` of the vertices its block owns, so the driver
  /// keeps a reference to `csr`, which must outlive it. The observers see
  /// a 1×p grid, so the atlas's subcommunicator locality share is 0 (the
  /// paper's 1D contrast).
  Bfs1D(const graph::CsrGraph& csr, const core::EngineOptions& opts,
        obs::Observers observers = {});
  Bfs1D(graph::CsrGraph&&, const core::EngineOptions&,
        obs::Observers = {}) = delete;
  ~Bfs1D();

  Bfs1D(const Bfs1D&) = delete;
  Bfs1D& operator=(const Bfs1D&) = delete;

  /// Run one BFS; returns global parent/level arrays plus the report.
  BfsOutput run(vid_t source);

  const dist::BlockPartition& partition() const;
  int ranks() const;
  /// ranks() * threads per rank.
  int cores_used() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dbfs::bfs
