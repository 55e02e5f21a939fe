// Compressed-sparse-row adjacency structure (paper §4.1).
//
// All adjacencies of a vertex are sorted and stored contiguously; an
// (n+1)-entry offset array indexes the start of each vertex's block.
// Vertex ids are 64-bit. The structure is immutable after construction.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace dbfs::graph {

class EdgeList;

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Build from an edge list interpreted as *directed* adjacencies
  /// (call EdgeList::symmetrize first for undirected graphs). Duplicate
  /// edges are kept unless `dedup`; self-loops kept unless `drop_loops`.
  /// Runs on the host threads (util::for_each_slot); the result does not
  /// depend on their number.
  static CsrGraph from_edges(const EdgeList& edges, bool dedup = true,
                             bool drop_loops = true);

  /// The CSR of `edges` with each non-loop edge's mirror (v,u) added,
  /// deduplicated and without self-loops: from_edges after
  /// EdgeList::symmetrize, without building the doubled list.
  static CsrGraph symmetric_from_edges(const EdgeList& edges);

  vid_t num_vertices() const noexcept {
    return offsets_.empty() ? 0 : static_cast<vid_t>(offsets_.size()) - 1;
  }
  eid_t num_edges() const noexcept {
    return static_cast<eid_t>(adjacency_.size());
  }

  eid_t degree(vid_t v) const noexcept { return offsets_[v + 1] - offsets_[v]; }

  /// Sorted adjacency block of vertex v.
  std::span<const vid_t> neighbors(vid_t v) const noexcept {
    return {adjacency_.data() + offsets_[v],
            static_cast<std::size_t>(degree(v))};
  }

  const std::vector<eid_t>& offsets() const noexcept { return offsets_; }
  const std::vector<vid_t>& adjacency() const noexcept { return adjacency_; }

  /// Calls arc(u, v) for the arcs stored at positions [first, last), in
  /// storage order: by source, each source's targets sorted. Lets a slot
  /// of util::for_each_slot walk its share of the arcs.
  template <typename Fn>
  void for_each_arc(eid_t first, eid_t last, Fn&& arc) const {
    if (first >= last) return;
    // The vertex whose block holds arc `first`.
    auto u = static_cast<std::size_t>(
        std::upper_bound(offsets_.begin(), offsets_.end(), first) -
        offsets_.begin() - 1);
    for (eid_t i = first; i < last; ++i) {
      while (offsets_[u + 1] <= i) ++u;
      arc(static_cast<vid_t>(u), adjacency_[static_cast<std::size_t>(i)]);
    }
  }

  /// True if for every edge (u,v) the reverse (v,u) exists too.
  bool is_symmetric() const;

  eid_t max_degree() const noexcept;

 private:
  /// The one kernel behind both builders: count → prefix → place →
  /// per-vertex sort (and unique). Edges are cut into contiguous slots
  /// with their own counters and placed stably, so no result depends on
  /// which thread ran which slot.
  static CsrGraph build(const EdgeList& edges, bool dedup, bool drop_loops,
                        bool mirror);

  std::vector<eid_t> offsets_;   // size n+1
  std::vector<vid_t> adjacency_; // size m, sorted per block
};

}  // namespace dbfs::graph
