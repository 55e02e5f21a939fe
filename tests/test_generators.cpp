#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "graph/validator.hpp"
#include "test_helpers.hpp"

namespace dbfs::graph {
namespace {

TEST(Rmat, ProducesRequestedCounts) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  const EdgeList e = generate_rmat(p);
  EXPECT_EQ(e.num_vertices(), 1 << 10);
  EXPECT_EQ(e.num_edges(), 8 * (1 << 10));
  EXPECT_TRUE(e.endpoints_in_range());
}

TEST(Rmat, DeterministicPerSeed) {
  RmatParams p;
  p.scale = 8;
  p.edge_factor = 4;
  p.seed = 33;
  const EdgeList a = generate_rmat(p);
  const EdgeList b = generate_rmat(p);
  EXPECT_EQ(a.edges(), b.edges());
  p.seed = 34;
  const EdgeList c = generate_rmat(p);
  EXPECT_NE(a.edges(), c.edges());
}

TEST(Rmat, SkewedDegreeDistribution) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 16;
  const CsrGraph g = CsrGraph::from_edges(generate_rmat(p), /*dedup=*/false);
  const DegreeStats stats = degree_stats(g);
  // Graph500 R-MAT parameters produce hub vertices with degree far above
  // the mean; a uniform graph of this density would top out near ~40.
  EXPECT_GT(stats.max_degree, 20 * static_cast<eid_t>(stats.mean_degree));
}

TEST(Rmat, RejectsBadParameters) {
  RmatParams p;
  p.scale = 0;
  EXPECT_THROW(generate_rmat(p), std::invalid_argument);
  p.scale = 10;
  p.a = 0.9;
  p.b = 0.9;
  EXPECT_THROW(generate_rmat(p), std::invalid_argument);
  p = RmatParams{};
  p.scale = 10;
  p.edge_factor = -1;
  try {
    generate_rmat(p);
    ADD_FAILURE() << "a negative edge factor was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("edge_factor"), std::string::npos)
        << e.what();
  }
}

// The stream is pinned to the output of the single-stream generator: the
// FNV-1a digest and byte length of scale-15 edges (edge factor 16, seed
// 1), with noise on and off.
TEST(Rmat, StreamIsPinned) {
  const auto pin = [](bool noise) {
    RmatParams p;
    p.scale = 15;
    p.noise = noise;
    const EdgeList e = generate_rmat(p);
    std::string bytes(e.edges().size() * sizeof(Edge), '\0');
    std::memcpy(bytes.data(), e.edges().data(), bytes.size());
    return test::pin_of(bytes);
  };
  const test::Pin noisy = pin(true);
  EXPECT_EQ(noisy.fnv, 0x65c00b94c218747bULL);
  EXPECT_EQ(noisy.bytes, 524288u * 16u);
  const test::Pin pure = pin(false);
  EXPECT_EQ(pure.fnv, 0x70497533c8fcc3d9ULL);
  EXPECT_EQ(pure.bytes, 524288u * 16u);
}

TEST(ErdosRenyi, EdgeCountNearExpectation) {
  ErdosRenyiParams p;
  p.num_vertices = 1 << 10;
  p.edge_probability = 0.01;
  const EdgeList e = generate_erdos_renyi(p);
  const double expected = 0.01 * 1024.0 * 1024.0;
  EXPECT_NEAR(static_cast<double>(e.num_edges()), expected, expected * 0.1);
  EXPECT_TRUE(e.endpoints_in_range());
}

TEST(ErdosRenyi, ZeroProbabilityEmpty) {
  ErdosRenyiParams p;
  p.num_vertices = 100;
  p.edge_probability = 0.0;
  EXPECT_EQ(generate_erdos_renyi(p).num_edges(), 0);
}

TEST(ErdosRenyi, NearUniformDegrees) {
  ErdosRenyiParams p;
  p.num_vertices = 1 << 12;
  p.edge_probability = 16.0 / (1 << 12);
  const CsrGraph g =
      CsrGraph::from_edges(generate_erdos_renyi(p), /*dedup=*/false);
  const DegreeStats stats = degree_stats(g);
  // Poisson(16): max degree stays within a small multiple of the mean —
  // the regular-degree contrast case to R-MAT.
  EXPECT_LT(stats.max_degree, 5 * static_cast<eid_t>(stats.mean_degree));
}

TEST(Webcrawl, HitsTargetDiameterRegime) {
  WebcrawlParams p;
  p.num_vertices = 1 << 14;
  p.target_diameter = 60;
  BuildOptions build;
  build.shuffle = false;
  const BuiltGraph built = build_graph(generate_webcrawl(p), build);
  // BFS from the first hub: the level count must be in the neighborhood
  // of the requested diameter (long-backbone regime), unlike R-MAT's <10.
  const auto levels = reference_levels(built.csr, 0);
  level_t max_level = 0;
  for (level_t l : levels) max_level = std::max(max_level, l);
  EXPECT_GE(max_level, 40);
  EXPECT_LE(max_level, 90);
}

TEST(Webcrawl, ConnectedByConstruction) {
  WebcrawlParams p;
  p.num_vertices = 4096;
  p.target_diameter = 30;
  BuildOptions build;
  build.shuffle = false;
  const BuiltGraph built = build_graph(generate_webcrawl(p), build);
  const auto levels = reference_levels(built.csr, 0);
  for (level_t l : levels) EXPECT_NE(l, kUnreached);
}

/// Hill estimator of the degree-distribution tail exponent from the top
/// k order statistics: alpha = 1 + k / sum(ln(d_i / d_k)).
double hill_tail_exponent(const CsrGraph& g, std::size_t k) {
  std::vector<double> degrees;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    degrees.push_back(static_cast<double>(g.degree(v)));
  }
  std::sort(degrees.begin(), degrees.end(), std::greater<>());
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += std::log(degrees[i] / degrees[k]);
  return 1.0 + static_cast<double>(k) / sum;
}

TEST(Webcrawl, TailExponentTracksRequestedAlpha) {
  // Regression for the inverse-CDF mapping: gamma must be
  // (alpha-1)/(alpha-2), not alpha itself. The old mapping made every
  // requested exponent come out near 2 (heavier tail for a *larger* knob),
  // so the fitted exponent neither tracked the request nor ordered
  // correctly between two requests.
  auto fitted = [](double alpha) {
    WebcrawlParams p;
    p.num_vertices = 1 << 15;
    p.target_diameter = 1;  // single community: pure preferential picks
    p.power_law_exponent = alpha;
    p.seed = 5;
    const CsrGraph g =
        CsrGraph::from_edges(generate_webcrawl(p), /*dedup=*/false);
    return hill_tail_exponent(g, 512);
  };
  const double lo = fitted(2.2);
  const double hi = fitted(3.5);
  EXPECT_LT(lo, hi);  // heavier requested tail => smaller fitted exponent
  EXPECT_NEAR(lo, 2.2, 0.45);
  EXPECT_NEAR(hi, 3.5, 0.9);
}

TEST(Webcrawl, RejectsInfiniteMeanExponent) {
  WebcrawlParams p;
  p.num_vertices = 1024;
  p.power_law_exponent = 2.0;
  EXPECT_THROW(generate_webcrawl(p), std::invalid_argument);
}

TEST(Webcrawl, SkewedIntraCommunityDegrees) {
  WebcrawlParams p;
  p.num_vertices = 1 << 14;
  p.target_diameter = 20;
  const CsrGraph g =
      CsrGraph::from_edges(generate_webcrawl(p), /*dedup=*/false);
  const DegreeStats stats = degree_stats(g);
  EXPECT_GT(stats.max_degree, 10 * static_cast<eid_t>(stats.mean_degree));
}

}  // namespace
}  // namespace dbfs::graph
