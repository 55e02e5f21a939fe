#include "graph/components.hpp"

#include <algorithm>

#include "util/prng.hpp"

namespace dbfs::graph {

Components connected_components(const CsrGraph& g) {
  const vid_t n = g.num_vertices();
  Components out;
  out.label.assign(static_cast<std::size_t>(n), kNoVertex);

  std::vector<vid_t> queue;
  for (vid_t root = 0; root < n; ++root) {
    if (out.label[root] != kNoVertex) continue;
    ++out.count;
    vid_t size = 0;
    queue.clear();
    queue.push_back(root);
    out.label[root] = root;
    while (!queue.empty()) {
      const vid_t u = queue.back();
      queue.pop_back();
      ++size;
      for (vid_t v : g.neighbors(u)) {
        if (out.label[v] == kNoVertex) {
          out.label[v] = root;
          queue.push_back(v);
        }
      }
    }
    if (size > out.largest_size) {
      out.largest_size = size;
      out.largest_label = root;
    }
  }
  return out;
}

std::vector<vid_t> sample_sources(const CsrGraph& g, const Components& comps,
                                  int count, std::uint64_t seed) {
  std::vector<vid_t> candidates;
  const vid_t n = g.num_vertices();
  for (vid_t v = 0; v < n; ++v) {
    if (comps.label[v] == comps.largest_label && g.degree(v) > 0) {
      candidates.push_back(v);
    }
  }
  util::Xoshiro256 rng{seed};
  std::vector<vid_t> sources;
  const int want = std::min<int>(count, static_cast<int>(candidates.size()));
  for (int i = 0; i < want; ++i) {
    // Partial Fisher-Yates: draw without replacement.
    const auto j = static_cast<std::size_t>(i) +
                   static_cast<std::size_t>(rng.next_below(
                       candidates.size() - static_cast<std::size_t>(i)));
    std::swap(candidates[static_cast<std::size_t>(i)], candidates[j]);
    sources.push_back(candidates[static_cast<std::size_t>(i)]);
  }
  return sources;
}

}  // namespace dbfs::graph
