#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>

#include "bfs/report_json.hpp"
#include "bfs/serial.hpp"
#include "graph/components.hpp"
#include "test_helpers.hpp"

namespace dbfs::core {
namespace {

class EngineAlgorithmSweep : public ::testing::TestWithParam<Algorithm> {};

/// What each algorithm reports and uses at 16 Franklin cores (4 threads
/// per hybrid rank): the label its run reports and cores_used().
struct Expected {
  Algorithm algorithm;
  const char* label;
  int cores_used;
};

constexpr Expected kExpected[] = {
    {Algorithm::kSerial, "serial", 1},
    {Algorithm::kShared, "shared-benign", 1},
    {Algorithm::kOneDFlat, "1d-alltoallv-flat", 16},
    {Algorithm::kOneDHybrid, "1d-alltoallv-hybrid", 16},
    {Algorithm::kTwoDFlat, "2d-flat", 16},
    {Algorithm::kTwoDHybrid, "2d-hybrid", 16},
    {Algorithm::kGraph500Ref, "graph500-ref-chunked-flat", 16},
    {Algorithm::kPbglLike, "pbgl-like-per-edge-flat", 16},
};

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

  const auto* expected =
      std::find_if(std::begin(kExpected), std::end(kExpected),
                   [](const Expected& e) { return e.algorithm == GetParam(); });
  ASSERT_NE(expected, std::end(kExpected));
  EXPECT_EQ(out.report.algorithm, expected->label);
  EXPECT_EQ(engine.cores_used(), expected->cores_used);
}

TEST(Engine, BaselinesIgnoreWireSmoothingAndRecovery) {
  // The baseline codes ship raw structs, price at smoothed volumes and
  // have no recovery story; asking for more changes nothing they report.
  const auto built = test::rmat_graph(10);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  for (Algorithm a : {Algorithm::kGraph500Ref, Algorithm::kPbglLike}) {
    EngineOptions plain;
    plain.algorithm = a;
    plain.cores = 16;
    plain.machine = model::franklin();
    EngineOptions asked = plain;
    asked.wire_format = comm::WireFormat::kAuto;
    asked.load_smoothing = 0.0;
    asked.recover.checkpoint_every = 2;
    Engine e_plain{built.edges, n, plain};
    Engine e_asked{built.edges, n, asked};
    const auto want = e_plain.run(source);
    const auto got = e_asked.run(source);
    EXPECT_EQ(got.parent, want.parent) << to_string(a);
    EXPECT_EQ(bfs::report_to_json(got.report),
              bfs::report_to_json(want.report))
        << to_string(a);
    EXPECT_EQ(e_asked.cores_used(), e_plain.cores_used()) << to_string(a);
  }
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

TEST(Engine, RejectsAVertexCountOtherThanTheLists) {
  const auto edges = test::path_edges(8);
  EXPECT_THROW(Engine(edges, 9, EngineOptions{}), std::invalid_argument);
  EXPECT_THROW(Engine(edges, 7, EngineOptions{}), std::invalid_argument);
}

TEST(Engine, TraversesTheDeduplicatedLoopFreeGraph) {
  // An edge list handed straight to the engine may repeat edges and carry
  // self-loops. Every algorithm traverses its deduplicated, loop-free
  // CSR, the graph run_batch validates against, so a run on it matches a
  // run on the cleaned list byte for byte.
  const auto built = test::rmat_graph(9);
  const vid_t n = built.csr.num_vertices();
  graph::EdgeList messy{n};
  for (int copy = 0; copy < 2; ++copy) {
    for (const graph::Edge& e : built.edges.edges()) messy.add(e.u, e.v);
  }
  for (vid_t v = 0; v < n; v += 3) messy.add(v, v);
  graph::EdgeList clean = messy;
  clean.sort_and_dedup();
  const vid_t source = test::hub_source(built.csr);
  for (Algorithm a : {Algorithm::kOneDFlat, Algorithm::kOneDHybrid,
                      Algorithm::kTwoDFlat, Algorithm::kTwoDHybrid,
                      Algorithm::kGraph500Ref, Algorithm::kPbglLike}) {
    EngineOptions opts;
    opts.algorithm = a;
    opts.cores = 16;
    opts.machine = model::franklin();
    Engine on_messy{messy, n, opts};
    Engine on_clean{clean, n, opts};
    const auto got = on_messy.run(source);
    const auto want = on_clean.run(source);
    EXPECT_EQ(got.parent, want.parent) << to_string(a);
    EXPECT_EQ(bfs::report_to_json(got.report),
              bfs::report_to_json(want.report))
        << to_string(a);
  }
}

}  // namespace
}  // namespace dbfs::core
