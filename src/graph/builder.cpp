#include "graph/builder.hpp"

#include <algorithm>
#include <utility>

#include "graph/permutation.hpp"
#include "util/parallel.hpp"

namespace dbfs::graph {

BuiltGraph build_graph(EdgeList input, const BuildOptions& opts) {
  BuiltGraph out;
  out.directed_edge_count = input.num_edges();

  if (opts.shuffle) {
    Permutation perm =
        Permutation::random(input.num_vertices(), opts.shuffle_seed);
    apply_permutation(input, perm);
    out.new_to_old = perm.inverse().mapping();
  }
  // Deduplicate once here so every downstream structure (serial CSR, 1D
  // local CSRs, 2D DCSC blocks) sees the identical edge multiset — edge
  // counts and TEPS denominators then agree across algorithms. The CSR
  // kernel mirrors, sorts and deduplicates; the edge list is read back
  // off it, sorted by (u, v) with no self-loops.
  out.csr = opts.symmetrize ? CsrGraph::symmetric_from_edges(input)
                            : CsrGraph::from_edges(input);
  out.edges = EdgeList{input.num_vertices()};
  input = EdgeList{};

  const std::vector<eid_t>& off = out.csr.offsets();
  const std::vector<vid_t>& adj = out.csr.adjacency();
  std::vector<Edge>& list = out.edges.edges();
  list.resize(adj.size());
  const auto slots = static_cast<std::size_t>(util::host_threads());
  util::for_each_slot(slots, [&](std::size_t s) {
    const auto [first, last] = util::slot_range(list.size(), slots, s);
    if (first == last) return;
    // The vertex whose block holds edge `first`.
    auto u = static_cast<vid_t>(
        std::upper_bound(off.begin(), off.end(), static_cast<eid_t>(first)) -
        off.begin() - 1);
    for (std::size_t i = first; i < last; ++i) {
      while (off[static_cast<std::size_t>(u) + 1] <= static_cast<eid_t>(i)) {
        ++u;
      }
      list[i] = Edge{u, adj[i]};
    }
  });
  return out;
}

DegreeStats degree_stats(const CsrGraph& g) {
  DegreeStats s;
  const vid_t n = g.num_vertices();
  for (vid_t v = 0; v < n; ++v) {
    const eid_t d = g.degree(v);
    if (d == 0) ++s.isolated;
    if (d > s.max_degree) s.max_degree = d;
  }
  s.mean_degree =
      n == 0 ? 0.0
             : static_cast<double>(g.num_edges()) / static_cast<double>(n);
  return s;
}

}  // namespace dbfs::graph
