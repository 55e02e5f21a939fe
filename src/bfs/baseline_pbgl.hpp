// Baseline: Parallel Boost Graph Library-style BFS (paper Table 2, where
// the paper's Flat 2D is up to 16× faster on Carver).
//
// PBGL lifts the sequential BGL visitor algorithm onto distributed
// adjacency lists: every cross-rank edge triggers a small "discover"
// message through a generic message buffer, and vertex properties live in
// allocation-heavy distributed property maps. We reproduce those costs
// structurally: one message per candidate, plus a large per-edge constant
// for the property-map machinery.
#pragma once

#include "bfs/bfs1d.hpp"

namespace dbfs::bfs {

struct PbglLikeOptions {
  int ranks = 4;
  model::MachineModel machine = model::generic();
};

/// Configure a Bfs1D instance that behaves like PBGL's distributed BFS.
Bfs1DOptions pbgl_like_options(const PbglLikeOptions& opts);

}  // namespace dbfs::bfs
