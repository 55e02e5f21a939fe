// Additional Engine / report edge-case coverage beyond test_engine.cpp.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "graph/components.hpp"
#include "test_helpers.hpp"

namespace dbfs::core {
namespace {

TEST(EngineExtra, SerialReportHasHostTiming) {
  const auto built = test::rmat_graph(9);
  EngineOptions opts;
  opts.algorithm = Algorithm::kSerial;
  Engine engine{built.edges, built.csr.num_vertices(), opts};
  const auto out = engine.run(test::hub_source(built.csr));
  EXPECT_EQ(out.report.algorithm, "serial");
  EXPECT_EQ(out.report.machine, "host");
  EXPECT_GT(out.report.total_seconds, 0.0);
  EXPECT_EQ(out.report.alltoall_bytes, 0u);  // no network
}

TEST(EngineExtra, SharedReportNamesThreadingMode) {
  const auto built = test::rmat_graph(9);
  EngineOptions opts;
  opts.algorithm = Algorithm::kShared;
  Engine engine{built.edges, built.csr.num_vertices(), opts};
  const auto out = engine.run(test::hub_source(built.csr));
  EXPECT_EQ(out.report.algorithm, "shared-benign");
}

TEST(EngineExtra, IsolatedSourceVisitsOnlyItself) {
  // A degree-0 source is legal per Graph500: the tree is {source}.
  graph::EdgeList e{5};
  e.add(1, 2);
  e.symmetrize();
  EngineOptions opts;
  opts.algorithm = Algorithm::kTwoDFlat;
  opts.cores = 4;
  Engine engine{e, 5, opts};
  const auto out = engine.run(0);
  EXPECT_EQ(out.parent[0], 0);
  EXPECT_EQ(out.level[0], 0);
  for (vid_t v = 1; v < 5; ++v) EXPECT_EQ(out.parent[v], kNoVertex);
}

TEST(EngineExtra, BatchWithEmptySourceList) {
  const auto built = test::rmat_graph(8);
  EngineOptions opts;
  opts.algorithm = Algorithm::kOneDFlat;
  opts.cores = 4;
  Engine engine{built.edges, built.csr.num_vertices(), opts};
  const auto batch = engine.run_batch({}, built.directed_edge_count);
  EXPECT_EQ(batch.validated, 0);
  EXPECT_EQ(batch.failed, 0);
  EXPECT_EQ(batch.harmonic_mean_teps, 0.0);
}

TEST(EngineExtra, TriangularThroughEngineMatchesFull) {
  const auto built = test::rmat_graph(9);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  EngineOptions full;
  full.algorithm = Algorithm::kTwoDFlat;
  full.cores = 16;
  EngineOptions tri = full;
  tri.triangular_storage = true;
  Engine ef{built.edges, n, full};
  Engine et{built.edges, n, tri};
  EXPECT_EQ(ef.run(source).level, et.run(source).level);
}

TEST(EngineExtra, LevelWallTimesSumToTotal2D) {
  const auto built = test::rmat_graph(10);
  EngineOptions opts;
  opts.algorithm = Algorithm::kTwoDHybrid;
  opts.cores = 64;
  opts.machine = model::hopper();
  Engine engine{built.edges, built.csr.num_vertices(), opts};
  const auto out = engine.run(test::hub_source(built.csr));
  double sum = 0;
  for (const auto& l : out.report.levels) sum += l.wall_seconds;
  EXPECT_NEAR(sum, out.report.total_seconds, 1e-9);
}

TEST(EngineExtra, CommPlusCompBoundsTotalPerRank) {
  const auto built = test::rmat_graph(10);
  EngineOptions opts;
  opts.algorithm = Algorithm::kTwoDFlat;
  opts.cores = 25;
  Engine engine{built.edges, built.csr.num_vertices(), opts};
  const auto out = engine.run(test::hub_source(built.csr));
  for (int r = 0; r < out.report.ranks; ++r) {
    // Each rank's busy + waiting time can't exceed the makespan.
    EXPECT_LE(out.report.per_rank_comm[r] + out.report.per_rank_comp[r],
              out.report.total_seconds * (1 + 1e-9));
  }
}

}  // namespace
}  // namespace dbfs::core
