#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bfs/serial.hpp"
#include "graph/components.hpp"
#include "test_helpers.hpp"

namespace dbfs::core {
namespace {

class EngineAlgorithmSweep : public ::testing::TestWithParam<Algorithm> {};

TEST_P(EngineAlgorithmSweep, MatchesSerialReference) {
  const auto built = test::rmat_graph(9);
  const vid_t n = built.csr.num_vertices();
  EngineOptions opts;
  opts.algorithm = GetParam();
  opts.cores = 16;
  opts.machine = model::franklin();
  Engine engine{built.edges, n, opts};
  const auto out = engine.run(0);
  const auto serial = bfs::serial_bfs(built.csr, 0);
  EXPECT_EQ(out.level, serial.level) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    All, EngineAlgorithmSweep,
    ::testing::Values(Algorithm::kSerial, Algorithm::kShared,
                      Algorithm::kOneDFlat, Algorithm::kOneDHybrid,
                      Algorithm::kTwoDFlat, Algorithm::kTwoDHybrid,
                      Algorithm::kGraph500Ref, Algorithm::kPbglLike),
    [](const auto& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Engine, HybridDefaultsToMachineThreading) {
  const auto built = test::rmat_graph(8);
  const vid_t n = built.csr.num_vertices();
  EngineOptions opts;
  opts.algorithm = Algorithm::kOneDHybrid;
  opts.cores = 24;
  opts.machine = model::hopper();
  Engine engine{built.edges, n, opts};
  EXPECT_EQ(engine.options().threads_per_rank, 6);

  opts.machine = model::franklin();
  Engine franklin_engine{built.edges, n, opts};
  EXPECT_EQ(franklin_engine.options().threads_per_rank, 4);
}

TEST(Engine, HybridNeverExceedsRequestedCores) {
  const auto built = test::rmat_graph(8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  for (const model::MachineModel& machine :
       {model::hopper(), model::franklin()}) {
    for (Algorithm a : {Algorithm::kOneDHybrid, Algorithm::kTwoDHybrid}) {
      for (int cores = 1; cores <= 7; ++cores) {
        EngineOptions opts;
        opts.algorithm = a;
        opts.cores = cores;
        opts.machine = machine;
        Engine engine{built.edges, n, opts};
        const std::string label = machine.name + "/" + to_string(a) +
                                  "/cores=" + std::to_string(cores);
        const int threads =
            std::min(cores, default_threads_per_rank(machine));
        EXPECT_LE(engine.cores_used(), cores) << label;
        EXPECT_EQ(engine.options().threads_per_rank, threads) << label;
        const bfs::RunReport r = engine.run(source).report;
        EXPECT_EQ(r.threads_per_rank, threads) << label;
        EXPECT_EQ(r.cores, engine.cores_used()) << label;
      }
    }
  }
}

TEST(Engine, FlatForcesSingleThreading) {
  const auto built = test::rmat_graph(8);
  const vid_t n = built.csr.num_vertices();
  EngineOptions opts;
  opts.algorithm = Algorithm::kOneDFlat;
  opts.cores = 16;
  opts.threads_per_rank = 4;  // ignored for flat
  Engine engine{built.edges, n, opts};
  EXPECT_EQ(engine.options().threads_per_rank, 1);
}

TEST(Engine, CoresUsedReflectsSquareGrid) {
  const auto built = test::rmat_graph(8);
  const vid_t n = built.csr.num_vertices();
  EngineOptions opts;
  opts.algorithm = Algorithm::kTwoDFlat;
  opts.cores = 12;
  Engine engine{built.edges, n, opts};
  EXPECT_EQ(engine.cores_used(), 9);
}

TEST(Engine, BatchValidatesAndAggregates) {
  const auto built = test::rmat_graph(9);
  const vid_t n = built.csr.num_vertices();
  EngineOptions opts;
  opts.algorithm = Algorithm::kTwoDFlat;
  opts.cores = 16;
  Engine engine{built.edges, n, opts};

  const auto comps = graph::connected_components(engine.csr());
  const auto sources = graph::sample_sources(engine.csr(), comps, 4, 1);
  ASSERT_EQ(sources.size(), 4u);
  const auto batch = engine.run_batch(sources, built.directed_edge_count);
  EXPECT_EQ(batch.validated, 4);
  EXPECT_EQ(batch.failed, 0) << batch.first_error;
  EXPECT_EQ(batch.reports.size(), 4u);
  EXPECT_GT(batch.harmonic_mean_teps, 0.0);
  EXPECT_LE(batch.harmonic_mean_teps, batch.teps.mean);
  EXPECT_GT(batch.mean_seconds, 0.0);
}

TEST(Engine, AlgorithmNamesRoundTrip) {
  EXPECT_STREQ(to_string(Algorithm::kOneDFlat), "1d-flat");
  EXPECT_STREQ(to_string(Algorithm::kTwoDHybrid), "2d-hybrid");
  EXPECT_TRUE(is_distributed(Algorithm::kPbglLike));
  EXPECT_FALSE(is_distributed(Algorithm::kSerial));
  EXPECT_FALSE(is_distributed(Algorithm::kShared));

  // The command-line names, one per algorithm.
  const std::pair<const char*, Algorithm> names[] = {
      {"serial", Algorithm::kSerial},
      {"shared", Algorithm::kShared},
      {"1d", Algorithm::kOneDFlat},
      {"1d-hybrid", Algorithm::kOneDHybrid},
      {"2d", Algorithm::kTwoDFlat},
      {"2d-hybrid", Algorithm::kTwoDHybrid},
      {"graph500-ref", Algorithm::kGraph500Ref},
      {"pbgl", Algorithm::kPbglLike},
  };
  for (const auto& [name, algorithm] : names) {
    EXPECT_EQ(parse_algorithm(name), algorithm) << name;
  }
  EXPECT_THROW((void)parse_algorithm("2D"), std::invalid_argument);
}

TEST(Engine, RejectsEmptyGraph) {
  graph::EdgeList empty{0};
  EXPECT_THROW(Engine(empty, 0, EngineOptions{}), std::invalid_argument);
}

}  // namespace
}  // namespace dbfs::core
