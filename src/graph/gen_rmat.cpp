#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/generators.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"

namespace dbfs::graph {

namespace {

/// Edges per generation chunk: each chunk jumps its own copy of the
/// stream to its first draw, so the chunks run on any thread in any
/// order and the output stays the single stream's, bit for bit.
constexpr std::size_t kRmatChunk = std::size_t{1} << 15;

// One R-MAT edge: descend `scale` levels of the recursive quadrant
// subdivision. With `noise` enabled the quadrant probabilities are
// jittered multiplicatively per level (as the Graph500 generator does) to
// avoid the exact self-similarity artifacts of pure R-MAT.
Edge rmat_edge(const RmatParams& p, util::Xoshiro256& rng) {
  double a = p.a;
  double b = p.b;
  double c = p.c;
  double d = 1.0 - a - b - c;
  vid_t row = 0;
  vid_t col = 0;
  for (int level = 0; level < p.scale; ++level) {
    const double r = rng.next_double();
    row <<= 1;
    col <<= 1;
    if (r < a) {
      // top-left quadrant: no bits set
    } else if (r < a + b) {
      col |= 1;
    } else if (r < a + b + c) {
      row |= 1;
    } else {
      row |= 1;
      col |= 1;
    }
    if (p.noise) {
      // +-5% multiplicative jitter, renormalized.
      auto jitter = [&rng](double x) {
        return x * (0.95 + 0.1 * rng.next_double());
      };
      a = jitter(a);
      b = jitter(b);
      c = jitter(c);
      d = jitter(d);
      const double norm = a + b + c + d;
      a /= norm;
      b /= norm;
      c /= norm;
      d /= norm;
    }
  }
  return Edge{row, col};
}

}  // namespace

EdgeList generate_rmat(const RmatParams& params) {
  if (params.scale < 1 || params.scale > 40) {
    throw std::invalid_argument("generate_rmat: scale out of range");
  }
  const double sum = params.a + params.b + params.c;
  if (params.a < 0 || params.b < 0 || params.c < 0 || sum > 1.0 + 1e-12) {
    throw std::invalid_argument("generate_rmat: invalid probabilities");
  }
  if (params.edge_factor < 0 ||
      static_cast<std::uint64_t>(params.edge_factor) >
          (~std::uint64_t{0} >> params.scale)) {
    throw std::invalid_argument(
        "generate_rmat: edge_factor must be non-negative, and "
        "edge_factor * 2^scale must fit in 64 bits");
  }

  const vid_t n = vid_t{1} << params.scale;
  const auto m = static_cast<std::size_t>(params.edge_factor) *
                 static_cast<std::size_t>(n);
  EdgeList edges{n};
  std::vector<Edge>& out = edges.edges();
  out.resize(m);

  // Edge i takes draws [i·d, (i+1)·d) of the one stream seeded by
  // `seed`: one per level, plus four jitters per level with noise.
  const std::uint64_t d = static_cast<std::uint64_t>(params.scale) *
                          (params.noise ? 5 : 1);
  const std::size_t chunks = (m + kRmatChunk - 1) / kRmatChunk;
  util::for_each_slot(chunks, [&](std::size_t c) {
    util::Xoshiro256 rng{params.seed};
    rng.advance(static_cast<std::uint64_t>(c * kRmatChunk) * d);
    const std::size_t last = std::min(m, (c + 1) * kRmatChunk);
    for (std::size_t i = c * kRmatChunk; i < last; ++i) {
      out[i] = rmat_edge(params, rng);
    }
  });
  return edges;
}

}  // namespace dbfs::graph
