#include "graph/permutation.hpp"

#include <numeric>
#include <utility>

#include "util/parallel.hpp"
#include "util/prng.hpp"

namespace dbfs::graph {

Permutation::Permutation(std::vector<vid_t> old_to_new)
    : map_(std::move(old_to_new)) {}

Permutation Permutation::identity(vid_t n) {
  std::vector<vid_t> map(static_cast<std::size_t>(n));
  std::iota(map.begin(), map.end(), vid_t{0});
  return Permutation{std::move(map)};
}

Permutation Permutation::random(vid_t n, std::uint64_t seed) {
  Permutation p = identity(n);
  util::Xoshiro256 rng{seed};
  for (vid_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<vid_t>(
        rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(p.map_[i], p.map_[j]);
  }
  return p;
}

Permutation Permutation::inverse() const {
  std::vector<vid_t> inv(map_.size());
  for (std::size_t old_id = 0; old_id < map_.size(); ++old_id) {
    inv[static_cast<std::size_t>(map_[old_id])] = static_cast<vid_t>(old_id);
  }
  return Permutation{std::move(inv)};
}

bool Permutation::is_valid() const {
  std::vector<bool> seen(map_.size(), false);
  for (vid_t v : map_) {
    if (v < 0 || v >= size() || seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = true;
  }
  return true;
}

void apply_permutation(EdgeList& edges, const Permutation& perm) {
  std::vector<Edge>& list = edges.edges();
  const auto slots = static_cast<std::size_t>(util::host_threads());
  util::for_each_slot(slots, [&](std::size_t s) {
    const auto [first, last] = util::slot_range(list.size(), slots, s);
    for (std::size_t i = first; i < last; ++i) {
      list[i].u = perm(list[i].u);
      list[i].v = perm(list[i].v);
    }
  });
}

}  // namespace dbfs::graph
