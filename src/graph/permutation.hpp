// Vertex relabeling (paper §4.4): a random permutation of vertex ids is
// applied before partitioning so that every process receives roughly the
// same number of vertices and edges regardless of degree skew — the same
// strategy the Graph500 benchmark uses.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.hpp"
#include "util/types.hpp"

namespace dbfs::graph {

/// A bijection old-id -> new-id over [0, n).
class Permutation {
 public:
  Permutation() = default;
  explicit Permutation(std::vector<vid_t> old_to_new);

  /// Identity permutation of size n.
  static Permutation identity(vid_t n);

  /// Fisher–Yates shuffle seeded deterministically.
  static Permutation random(vid_t n, std::uint64_t seed);

  vid_t size() const noexcept { return static_cast<vid_t>(map_.size()); }
  vid_t operator()(vid_t old_id) const noexcept { return map_[old_id]; }

  Permutation inverse() const;

  const std::vector<vid_t>& mapping() const noexcept { return map_; }

  /// True iff the mapping is a bijection over [0, n).
  bool is_valid() const;

 private:
  std::vector<vid_t> map_;
};

/// Relabel both endpoints of every edge in place, on the host threads.
void apply_permutation(EdgeList& edges, const Permutation& perm);

}  // namespace dbfs::graph
