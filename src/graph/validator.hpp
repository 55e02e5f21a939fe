// Graph500-style BFS output validation (the benchmark's "kernel 2
// validation" step). Every distributed BFS variant in this repo is run
// through these checks in tests and in the graph500_runner example.
//
// Checks, per the Graph500 specification:
//  1. parent[source] == source.
//  2. The parent array encodes a tree: following parents from any visited
//     vertex reaches the source without cycles.
//  3. Every tree edge (v, parent[v]) exists in the graph.
//  4. For every graph edge {u,v}: if one endpoint is visited both are, and
//     their BFS levels differ by at most one.
//  5. If reference distances are supplied, levels derived from the parent
//     tree must equal them exactly (parents give *shortest* paths).
//
// Checks 2-4 run on the host threads (util::for_each_slot) in two phases:
// one over vertex ranges (checks 2 and 3), one over vertex ranges cut at
// equal arc shares (check 4). The verdict, levels and counts do not depend
// on the number of threads, and a failure reported is the one a serial
// scan of the checks in order, each over the vertices in id order, meets
// first.
#pragma once

#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "util/types.hpp"

namespace dbfs::graph {

struct ValidationResult {
  bool ok = true;
  std::string error;  ///< empty when ok

  /// Structured failure report: which invariant broke (a stable
  /// identifier like "tree-edge-missing") and one offending vertex, so
  /// drivers and post-mortem tooling don't have to parse `error`.
  std::string failed_check;  ///< empty when ok
  vid_t sample_vertex = -1;  ///< -1 when ok or no single vertex applies

  /// Levels derived from the parent tree (kUnreached for unvisited).
  std::vector<level_t> levels;
  vid_t visited_count = 0;
  /// Arcs whose endpoints are both visited: each undirected edge of the
  /// traversed component counts twice, once per direction.
  eid_t traversed_edges = 0;
};

/// Validate a BFS parent array against a symmetric graph.
/// `reference_levels` may be empty to skip check 5.
ValidationResult validate_bfs_tree(
    const CsrGraph& g, vid_t source, const std::vector<vid_t>& parent,
    const std::vector<level_t>& reference_levels = {});

/// Serial reference distances (levels) used as ground truth in tests.
std::vector<level_t> reference_levels(const CsrGraph& g, vid_t source);

}  // namespace dbfs::graph
