#include "dist/partition1d.hpp"

#include <algorithm>
#include <utility>

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

}  // namespace dbfs::dist
