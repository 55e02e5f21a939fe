#include "graph/builder.hpp"

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
  // Deduplicate once here so every downstream structure (the engine's
  // CSR, which the 1D scan reads and the 2D blocks are cut from) sees the
  // identical edge multiset — edge counts and TEPS denominators then
  // agree across algorithms. The CSR kernel mirrors, sorts and
  // deduplicates; the edge list is read back off it, sorted by (u, v)
  // with no self-loops.
  out.csr = opts.symmetrize ? CsrGraph::symmetric_from_edges(input)
                            : CsrGraph::from_edges(input);
  out.edges = EdgeList{input.num_vertices()};
  input = EdgeList{};

  std::vector<Edge>& list = out.edges.edges();
  list.resize(static_cast<std::size_t>(out.csr.num_edges()));
  const auto slots = static_cast<std::size_t>(util::host_threads());
  util::for_each_slot(slots, [&](std::size_t s) {
    const auto [first, last] = util::slot_range(list.size(), slots, s);
    Edge* next = list.data() + first;
    out.csr.for_each_arc(static_cast<eid_t>(first), static_cast<eid_t>(last),
                         [&next](vid_t u, vid_t v) { *next++ = Edge{u, v}; });
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
