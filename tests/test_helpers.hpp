// Shared fixtures for the BFS correctness tests: small structured graphs
// with known answers, plus generated graphs validated against the serial
// reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"

namespace dbfs::test {

/// Undirected path 0-1-2-...-(n-1).
inline graph::EdgeList path_edges(vid_t n) {
  graph::EdgeList e{n};
  for (vid_t v = 0; v + 1 < n; ++v) e.add(v, v + 1);
  e.symmetrize();
  return e;
}

/// Undirected star: center 0 with n-1 leaves.
inline graph::EdgeList star_edges(vid_t n) {
  graph::EdgeList e{n};
  for (vid_t v = 1; v < n; ++v) e.add(0, v);
  e.symmetrize();
  return e;
}

/// Two disconnected triangles: {0,1,2} and {3,4,5}, plus isolated 6.
inline graph::EdgeList two_triangles() {
  graph::EdgeList e{7};
  e.add(0, 1);
  e.add(1, 2);
  e.add(2, 0);
  e.add(3, 4);
  e.add(4, 5);
  e.add(5, 3);
  e.symmetrize();
  return e;
}

/// A guaranteed-useful BFS source: the maximum-degree vertex (a hub,
/// inside the giant component for any connected-enough instance). Tests
/// must not use vertex 0 on shuffled graphs — it may be isolated.
inline vid_t hub_source(const graph::CsrGraph& g) {
  vid_t best = 0;
  for (vid_t v = 1; v < g.num_vertices(); ++v) {
    if (g.degree(v) > g.degree(best)) best = v;
  }
  return best;
}

/// Symmetrized, shuffled R-MAT test instance.
inline graph::BuiltGraph rmat_graph(int scale, int edge_factor = 8,
                                    std::uint64_t seed = 1) {
  graph::RmatParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  params.seed = seed;
  graph::BuildOptions build;
  build.shuffle_seed = seed + 1000;
  return graph::build_graph(graph::generate_rmat(params), build);
}

/// An artifact pinned as an FNV-1a digest plus its byte length.
struct Pin {
  std::uint64_t fnv;
  std::size_t bytes;
};

inline Pin pin_of(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) h = (h ^ c) * 0x100000001b3ULL;
  return {h, text.size()};
}

/// The most host threads the executor tests ask for: 4 under OpenMP,
/// 1 without it.
#ifdef _OPENMP
inline constexpr int kMaxHostThreads = 4;
#else
inline constexpr int kMaxHostThreads = 1;
#endif

/// Sets the OpenMP thread count for one scope and restores the previous
/// count on exit; a no-op without OpenMP.
class HostThreads {
 public:
  explicit HostThreads(int threads) {
#ifdef _OPENMP
    previous_ = omp_get_max_threads();
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
  }
  ~HostThreads() {
#ifdef _OPENMP
    omp_set_num_threads(previous_);
#endif
  }
  HostThreads(const HostThreads&) = delete;
  HostThreads& operator=(const HostThreads&) = delete;

 private:
  int previous_ = 1;
};

}  // namespace dbfs::test
