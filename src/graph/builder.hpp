// High-level graph construction pipeline: generator output -> (optional
// vertex shuffle) -> (optional symmetrization) -> CSR. This mirrors the
// Graph500 "kernel 1" construction step and the paper's §4.4 load
// balancing practice (random relabeling before partitioning). Every
// stage but the Fisher–Yates shuffle itself runs on the host threads,
// and the result does not depend on how many there are.
#pragma once

#include <cstdint>

#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"

namespace dbfs::graph {

struct BuildOptions {
  bool symmetrize = true;    ///< model undirected input (Graph500 practice)
  bool shuffle = true;       ///< random vertex relabeling (§4.4)
  std::uint64_t shuffle_seed = 0x5eedULL;
};

struct BuiltGraph {
  CsrGraph csr;                     ///< the traversal structure
  EdgeList edges;                   ///< post-shuffle, post-symmetrize edges
  std::vector<vid_t> new_to_old;    ///< relabeling applied (empty if none)
  eid_t directed_edge_count = 0;    ///< edges before symmetrization; the
                                    ///< TEPS denominator per Graph500 rules
};

/// Run the full pipeline. The input edge list is consumed. The result is
/// what symmetrize + sort_and_dedup + CsrGraph::from_edges would give,
/// built without the doubled list or a global sort: the CSR kernel
/// mirrors each non-loop edge as it counts, and `edges` is read back off
/// the CSR.
BuiltGraph build_graph(EdgeList input, const BuildOptions& opts = {});

struct DegreeStats {
  eid_t max_degree = 0;
  double mean_degree = 0.0;
  vid_t isolated = 0;  ///< vertices with degree 0
};

DegreeStats degree_stats(const CsrGraph& g);

}  // namespace dbfs::graph
