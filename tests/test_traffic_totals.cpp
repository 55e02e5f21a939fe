// The report's traffic totals and its per-level byte columns meter the
// same collectives through one pattern-to-column table. On a fault-free
// run each column sums on its own: the levels' a2a, expand and other
// bytes equal the run's alltoall, allgather and transpose bytes
// (allreduce is level synchronization and has no level column), for
// every distributed algorithm, layout, direction and wire format.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/engine.hpp"
#include "test_helpers.hpp"

namespace dbfs {
namespace {

struct TotalsCase {
  const char* name;
  core::Algorithm algorithm;
  dist::VectorDistKind vector_dist = dist::VectorDistKind::kTwoD;
  bool triangular = false;
  bfs::DirectionMode direction = bfs::DirectionMode::kTopDown;
};

const TotalsCase kCases[] = {
    {"1d", core::Algorithm::kOneDFlat},
    {"1d-hybrid", core::Algorithm::kOneDHybrid},
    {"2d", core::Algorithm::kTwoDFlat},
    {"2d-hybrid", core::Algorithm::kTwoDHybrid},
    {"graph500-ref", core::Algorithm::kGraph500Ref},
    {"pbgl", core::Algorithm::kPbglLike},
    {"2d-diagonal", core::Algorithm::kTwoDFlat,
     dist::VectorDistKind::kDiagonal},
    {"2d-triangular", core::Algorithm::kTwoDFlat,
     dist::VectorDistKind::kTwoD, true},
    {"2d-dirop", core::Algorithm::kTwoDFlat, dist::VectorDistKind::kTwoD,
     false, bfs::DirectionMode::kHybrid},
};

TEST(TrafficTotals, LevelBytesSumToReportTotals) {
  const graph::BuiltGraph built = test::rmat_graph(10);
  const vid_t source = test::hub_source(built.csr);
  for (const TotalsCase& c : kCases) {
    for (const comm::WireFormat wire :
         {comm::WireFormat::kRaw, comm::WireFormat::kAuto}) {
      core::EngineOptions opts;
      opts.algorithm = c.algorithm;
      opts.cores = 64;
      opts.vector_dist = c.vector_dist;
      opts.triangular_storage = c.triangular;
      opts.direction = c.direction;
      opts.wire_format = wire;
      core::Engine engine{built.edges, built.csr.num_vertices(), opts};
      const bfs::RunReport r = engine.run(source).report;
      const std::string label =
          std::string(c.name) + "/" + comm::to_string(wire);
      ASSERT_GT(r.ranks, 1) << label;

      std::uint64_t a2a = 0, expand = 0, other = 0;
      for (const bfs::LevelStats& l : r.levels) {
        a2a += l.a2a_bytes;
        expand += l.expand_bytes;
        other += l.other_bytes;
      }
      EXPECT_GT(a2a + expand + other, 0u) << label;
      EXPECT_EQ(a2a, r.alltoall_bytes) << label;
      EXPECT_EQ(expand, r.allgather_bytes) << label;
      EXPECT_EQ(other, r.transpose_bytes) << label;
    }
  }
}

}  // namespace
}  // namespace dbfs
