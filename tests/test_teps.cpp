// TEPS per the Graph 500 rules and paper §6: RunReport::teps divides the
// input's directed edge count by one search's time, and Engine::run_batch
// aggregates the per-source rates with the harmonic mean — the one TEPS
// summary bfs_tool and graph500_runner print.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "graph/components.hpp"
#include "test_helpers.hpp"

namespace dbfs::core {
namespace {

/// A batch over `nsources` sampled sources and its edge denominator.
struct Sampled {
  BatchResult batch;
  eid_t edges = 0;
};

Sampled run_sources(int nsources) {
  const auto built = test::rmat_graph(9);
  EngineOptions opts;
  opts.algorithm = Algorithm::kTwoDFlat;
  opts.cores = 16;
  Engine engine{built.edges, built.csr.num_vertices(), opts};
  const auto comps = graph::connected_components(engine.csr());
  const auto sources = graph::sample_sources(engine.csr(), comps, nsources, 1);
  return {engine.run_batch(sources, built.directed_edge_count),
          built.directed_edge_count};
}

TEST(Teps, SingleRun) {
  const auto [batch, m] = run_sources(1);
  ASSERT_EQ(batch.reports.size(), 1u);
  const bfs::RunReport& r = batch.reports.front();
  EXPECT_EQ(batch.harmonic_mean_teps, r.teps(m));
  EXPECT_EQ(batch.mean_seconds, r.total_seconds);
}

TEST(Teps, HarmonicMeanEqualsTotalOverTotal) {
  // Graph500 identity: harmonic mean of (m/t_i) == k*m / sum(t_i).
  const auto [batch, m] = run_sources(4);
  ASSERT_EQ(batch.reports.size(), 4u);
  double seconds = 0.0;
  for (const bfs::RunReport& r : batch.reports) seconds += r.total_seconds;
  const double expected = 4.0 * static_cast<double>(m) / seconds;
  EXPECT_NEAR(batch.harmonic_mean_teps, expected, expected * 1e-12);
  EXPECT_LE(batch.harmonic_mean_teps, batch.teps.mean);
}

TEST(Teps, EmptyInput) {
  const auto built = test::rmat_graph(8);
  Engine engine{built.edges, built.csr.num_vertices(), EngineOptions{}};
  const BatchResult batch = engine.run_batch({}, built.directed_edge_count);
  EXPECT_EQ(batch.harmonic_mean_teps, 0.0);
  EXPECT_EQ(batch.mean_seconds, 0.0);
}

TEST(Teps, ZeroTimeRunYieldsZeroSample) {
  bfs::RunReport r;
  r.total_seconds = 0.0;
  EXPECT_EQ(r.teps(100), 0.0);
}

}  // namespace
}  // namespace dbfs::core
