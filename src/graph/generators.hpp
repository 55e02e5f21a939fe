// Synthetic graph generators.
//
// * R-MAT with the Graph500 parameters (a,b,c,d) = (.59,.19,.19,.05) is
//   the paper's primary workload (§6).
// * Erdős–Rényi gives the regular-degree contrast case (the regime Yoo
//   et al.'s BlueGene/L code assumed).
// * `webcrawl` is our stand-in for the uk-union crawl: a long chain of
//   power-law communities producing diameter ≈ `target_diameter` with a
//   low average degree, exercising the many-iterations regime of Fig 11.
#pragma once

#include <cstdint>

#include "graph/edge_list.hpp"

namespace dbfs::graph {

struct RmatParams {
  int scale = 16;             ///< n = 2^scale vertices
  int edge_factor = 16;       ///< m = edge_factor * n directed edges
  double a = 0.59;            ///< Graph500 defaults
  double b = 0.19;
  double c = 0.19;
  // d = 1 - a - b - c
  std::uint64_t seed = 1;
  bool noise = true;          ///< Graph500-style per-level parameter jitter
};

/// Generate an R-MAT edge list (directed; callers typically symmetrize).
/// Edge i is drawn from draws [i·d, (i+1)·d) of one xoshiro256** stream
/// seeded by `seed`, where d = scale, or 5·scale with noise (one draw per
/// level plus four jitters). The edges are generated in fixed chunks of
/// 2^15 on the host threads, each chunk jumping its own copy of the
/// stream to its first draw (Xoshiro256::advance), so the output is that
/// one stream's, bit for bit, at any thread count. Throws
/// std::invalid_argument for a scale outside [1, 40], probabilities that
/// are negative or sum past 1, or a negative edge_factor.
EdgeList generate_rmat(const RmatParams& params);

struct ErdosRenyiParams {
  vid_t num_vertices = 1 << 16;
  double edge_probability = 1e-4;
  std::uint64_t seed = 1;
};

/// G(n, p) via geometric skipping, O(m) expected time.
EdgeList generate_erdos_renyi(const ErdosRenyiParams& params);

struct WebcrawlParams {
  vid_t num_vertices = 1 << 18;
  int target_diameter = 140;     ///< uk-union's observed diameter (§6)
  double intra_edge_factor = 6;  ///< avg intra-community degree
  double power_law_exponent = 2.1;
  std::uint64_t seed = 1;
};

/// High-diameter synthetic web crawl: communities strung along a backbone.
EdgeList generate_webcrawl(const WebcrawlParams& params);

}  // namespace dbfs::graph
