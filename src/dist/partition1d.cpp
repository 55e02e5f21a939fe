// BlockPartition is header-only; this file anchors the dist target and
// hosts the 1D local-graph builder.
#include "dist/partition1d.hpp"

#include <algorithm>

#include "dist/local_graph1d.hpp"
#include "util/parallel.hpp"

namespace dbfs::dist {

BlockPartition BlockPartition::from_boundaries(std::vector<vid_t> boundaries) {
  if (boundaries.size() < 2 || boundaries.front() != 0 ||
      !std::is_sorted(boundaries.begin(), boundaries.end())) {
    throw std::invalid_argument("BlockPartition: invalid boundaries");
  }
  BlockPartition p;
  p.n_ = boundaries.back();
  p.parts_ = static_cast<int>(boundaries.size()) - 1;
  p.boundaries_ = std::move(boundaries);
  return p;
}

BlockPartition BlockPartition::edge_balanced(
    std::span<const eid_t> out_degrees, int parts) {
  if (parts < 1) {
    throw std::invalid_argument("edge_balanced: parts must be positive");
  }
  const auto n = static_cast<vid_t>(out_degrees.size());
  eid_t total = 0;
  for (eid_t d : out_degrees) total += d;

  // Greedy sweep: close a block once it reaches the remaining-average
  // edge load, so trailing ranks are never starved by early hubs.
  std::vector<vid_t> boundaries{0};
  eid_t accumulated = 0;
  eid_t consumed = 0;
  for (vid_t v = 0; v < n && static_cast<int>(boundaries.size()) < parts;
       ++v) {
    accumulated += out_degrees[static_cast<std::size_t>(v)];
    const int blocks_left =
        parts - static_cast<int>(boundaries.size()) + 1;
    const double target = static_cast<double>(total - consumed) /
                          static_cast<double>(blocks_left);
    if (static_cast<double>(accumulated) >= target) {
      boundaries.push_back(v + 1);
      consumed += accumulated;
      accumulated = 0;
    }
  }
  while (static_cast<int>(boundaries.size()) < parts) {
    boundaries.push_back(n);
  }
  boundaries.push_back(n);
  return from_boundaries(std::move(boundaries));
}

LocalGraph1D LocalGraph1D::build(const graph::EdgeList& edges, vid_t n,
                                 int ranks) {
  return build_with_partition(edges, BlockPartition(n, ranks));
}

LocalGraph1D LocalGraph1D::build_with_partition(const graph::EdgeList& edges,
                                                BlockPartition partition) {
  LocalGraph1D lg;
  const auto ranks = static_cast<std::size_t>(partition.parts());
  lg.partition_ = std::move(partition);
  const BlockPartition& part = lg.partition_;
  const std::vector<graph::Edge>& list = edges.edges();
  const auto n = static_cast<std::size_t>(part.n());

  // Count each slot's out-edges per vertex, size every rank's arrays
  // exactly, then place each slot's edges in input order: a vertex's
  // adjacency keeps the order its edges have in `edges`.
  const std::size_t slots = util::counting_slots(list.size(), n);
  std::vector<eid_t> cursor(slots * n, 0);
  util::for_each_slot(slots, [&](std::size_t s) {
    eid_t* count = cursor.data() + s * n;
    const auto [first, last] = util::slot_range(list.size(), slots, s);
    for (std::size_t i = first; i < last; ++i) ++count[list[i].u];
  });
  const std::vector<eid_t> degree = util::slot_starts(cursor, slots);

  lg.offsets_.resize(ranks);
  lg.adjacency_.resize(ranks);
  for (int r = 0; r < part.parts(); ++r) {
    const auto begin = static_cast<std::size_t>(part.begin(r));
    auto& off = lg.offsets_[static_cast<std::size_t>(r)];
    off.resize(static_cast<std::size_t>(part.size(r)) + 1);
    for (std::size_t local = 0; local + 1 < off.size(); ++local) {
      off[local + 1] = off[local] + degree[begin + local];
    }
    lg.adjacency_[static_cast<std::size_t>(r)].resize(
        static_cast<std::size_t>(off.back()));
  }
  util::for_each_slot(slots, [&](std::size_t s) {
    eid_t* next = cursor.data() + s * n;
    const auto [first, last] = util::slot_range(list.size(), slots, s);
    for (std::size_t i = first; i < last; ++i) {
      const graph::Edge e = list[i];
      const int r = part.owner(e.u);
      const auto local = static_cast<std::size_t>(e.u - part.begin(r));
      const auto ri = static_cast<std::size_t>(r);
      lg.adjacency_[ri][static_cast<std::size_t>(
          lg.offsets_[ri][local] + next[e.u]++)] = e.v;
    }
  });
  return lg;
}

}  // namespace dbfs::dist
