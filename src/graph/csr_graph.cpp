#include "graph/csr_graph.hpp"

#include <algorithm>

#include "graph/edge_list.hpp"
#include "util/parallel.hpp"

namespace dbfs::graph {

CsrGraph CsrGraph::from_edges(const EdgeList& edges, bool dedup,
                              bool drop_loops) {
  return build(edges, dedup, drop_loops, /*mirror=*/false);
}

CsrGraph CsrGraph::symmetric_from_edges(const EdgeList& edges) {
  return build(edges, /*dedup=*/true, /*drop_loops=*/true, /*mirror=*/true);
}

CsrGraph CsrGraph::build(const EdgeList& edges, bool dedup, bool drop_loops,
                         bool mirror) {
  const auto n = static_cast<std::size_t>(edges.num_vertices());
  const std::vector<Edge>& list = edges.edges();
  const std::size_t m = list.size();
  const std::size_t slots = util::counting_slots(m, n);
  const auto for_each_arc = [&](std::size_t slot, auto&& arc) {
    const auto [first, last] = util::slot_range(m, slots, slot);
    for (std::size_t i = first; i < last; ++i) {
      const Edge e = list[i];
      if (e.u == e.v) {
        if (!drop_loops) arc(e.u, e.v);
        continue;
      }
      arc(e.u, e.v);
      if (mirror) arc(e.v, e.u);
    }
  };

  // Count: cursor[s·n + v] = arcs of slot s leaving v; then each slot's
  // first position within v's block.
  std::vector<eid_t> cursor(slots * n, 0);
  util::for_each_slot(slots, [&](std::size_t s) {
    eid_t* count = cursor.data() + s * n;
    for_each_arc(s, [count](vid_t u, vid_t) { ++count[u]; });
  });
  const std::vector<eid_t> degree = util::slot_starts(cursor, slots);

  CsrGraph g;
  g.offsets_.resize(n + 1);
  for (std::size_t v = 0; v < n; ++v) {
    g.offsets_[v + 1] = g.offsets_[v] + degree[v];
  }

  // Place: every slot writes its arcs in input order into its own
  // stretch of each block.
  g.adjacency_.resize(static_cast<std::size_t>(g.offsets_[n]));
  vid_t* adj = g.adjacency_.data();
  const eid_t* off = g.offsets_.data();
  util::for_each_slot(slots, [&](std::size_t s) {
    eid_t* next = cursor.data() + s * n;
    for_each_arc(s, [=](vid_t u, vid_t v) { adj[off[u] + next[u]++] = v; });
  });
  cursor = {};

  // Sort (and unique) each block over vertex ranges cut at equal edge
  // shares; a block placed from sorted input is already in order and
  // skips the sort. Deduplicated blocks are packed to the front of each
  // range, then the ranges are slid down in order.
  const auto parts = static_cast<std::size_t>(util::host_threads());
  const eid_t total = g.offsets_[n];
  std::vector<std::size_t> cut(parts + 1, n);
  for (std::size_t t = 0; t < parts; ++t) {
    const auto share = static_cast<eid_t>(
        util::slot_range(static_cast<std::size_t>(total), parts, t).first);
    cut[t] = static_cast<std::size_t>(
        std::lower_bound(g.offsets_.begin(), g.offsets_.end() - 1, share) -
        g.offsets_.begin());
  }
  std::vector<eid_t> kept(dedup ? n : 0);
  util::for_each_slot(parts, [&](std::size_t t) {
    eid_t write = off[cut[t]];
    for (std::size_t v = cut[t]; v < cut[t + 1]; ++v) {
      vid_t* begin = adj + off[v];
      vid_t* end = adj + off[v + 1];
      if (!std::is_sorted(begin, end)) std::sort(begin, end);
      if (!dedup) continue;
      end = std::unique(begin, end);
      kept[v] = end - begin;
      if (adj + write != begin) std::copy(begin, end, adj + write);
      write += kept[v];
    }
  });
  if (dedup) {
    eid_t write = 0;
    for (std::size_t t = 0; t < parts; ++t) {
      const eid_t from = g.offsets_[cut[t]];
      const eid_t start = write;
      for (std::size_t v = cut[t]; v < cut[t + 1]; ++v) {
        g.offsets_[v] = write;
        write += kept[v];
      }
      if (start != from) {
        std::copy(adj + from, adj + from + (write - start), adj + start);
      }
    }
    g.offsets_[n] = write;
    g.adjacency_.resize(static_cast<std::size_t>(write));
  }
  return g;
}

bool CsrGraph::is_symmetric() const {
  const vid_t n = num_vertices();
  for (vid_t u = 0; u < n; ++u) {
    for (vid_t v : neighbors(u)) {
      const auto block = neighbors(v);
      if (!std::binary_search(block.begin(), block.end(), u)) return false;
    }
  }
  return true;
}

eid_t CsrGraph::max_degree() const noexcept {
  eid_t best = 0;
  for (vid_t v = 0; v < num_vertices(); ++v) best = std::max(best, degree(v));
  return best;
}

}  // namespace dbfs::graph
