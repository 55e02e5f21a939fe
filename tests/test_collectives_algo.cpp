// Tests for the §7 collective-algorithm exploration: allgather
// implementation selection.
#include <gtest/gtest.h>

#include "bfs/bfs2d.hpp"
#include "bfs/serial.hpp"
#include "model/cost.hpp"
#include "test_helpers.hpp"

namespace dbfs::model {
namespace {

TEST(AllgatherAlgo, SmallPayloadsFavorLogLatency) {
  const auto m = franklin();
  // 8 bytes over 1024 ranks: latency-dominated.
  EXPECT_LT(cost_allgatherv(m, 1024, 8, AllgatherAlgo::kRecursiveDoubling),
            cost_allgatherv(m, 1024, 8, AllgatherAlgo::kRing));
}

TEST(AllgatherAlgo, LargePayloadsFavorRing) {
  const auto m = franklin();
  // 64 MB over 16 ranks: bandwidth-dominated; ring's 1.0x beta wins.
  EXPECT_LT(cost_allgatherv(m, 16, 64 << 20, AllgatherAlgo::kRing),
            cost_allgatherv(m, 16, 64 << 20,
                            AllgatherAlgo::kRecursiveDoubling));
}

TEST(AllgatherAlgo, AutoIsMinimumEverywhere) {
  const auto m = hopper();
  for (int g : {4, 64, 1024}) {
    for (std::size_t bytes : {8ul, 4096ul, 1ul << 22}) {
      const double autoc = cost_allgatherv(m, g, bytes, AllgatherAlgo::kAuto);
      for (auto algo : {AllgatherAlgo::kRing,
                        AllgatherAlgo::kRecursiveDoubling,
                        AllgatherAlgo::kBruck}) {
        EXPECT_LE(autoc, cost_allgatherv(m, g, bytes, algo))
            << "g=" << g << " bytes=" << bytes;
      }
    }
  }
}

TEST(AllgatherAlgo, CrossoverExists) {
  // There must be a payload size where the preferred algorithm flips —
  // the tradeoff the §7 bullet asks about.
  const auto m = franklin();
  const int g = 256;
  bool small_prefers_log = false;
  bool large_prefers_ring = false;
  for (std::size_t bytes = 8; bytes <= (1ull << 26); bytes *= 4) {
    const double ring = cost_allgatherv(m, g, bytes, AllgatherAlgo::kRing);
    const double rd = cost_allgatherv(m, g, bytes,
                                      AllgatherAlgo::kRecursiveDoubling);
    if (rd < ring) small_prefers_log = true;
    if (ring < rd && small_prefers_log) large_prefers_ring = true;
  }
  EXPECT_TRUE(small_prefers_log);
  EXPECT_TRUE(large_prefers_ring);
}

TEST(AllgatherAlgo, NamesDistinct) {
  EXPECT_STREQ(to_string(AllgatherAlgo::kRing), "ring");
  EXPECT_STREQ(to_string(AllgatherAlgo::kAuto), "auto");
  EXPECT_STRNE(to_string(AllgatherAlgo::kBruck),
               to_string(AllgatherAlgo::kRecursiveDoubling));
}

class AlgoSweep : public ::testing::TestWithParam<AllgatherAlgo> {};

TEST_P(AlgoSweep, Bfs2DAnswerUnchanged) {
  const auto built = test::rmat_graph(9);
  core::EngineOptions opts;
  opts.cores = 16;
  opts.allgather_algo = GetParam();
  bfs::Bfs2D run{built.edges, built.csr.num_vertices(), opts};
  const vid_t source = test::hub_source(built.csr);
  const auto serial = bfs::serial_bfs(built.csr, source);
  EXPECT_EQ(run.run(source).level, serial.level);
}

INSTANTIATE_TEST_SUITE_P(All, AlgoSweep,
                         ::testing::Values(AllgatherAlgo::kRing,
                                           AllgatherAlgo::kRecursiveDoubling,
                                           AllgatherAlgo::kBruck,
                                           AllgatherAlgo::kAuto),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(AllgatherAlgo, AutoNeverSlowerEndToEnd) {
  // High-diameter graph: many tiny expands, where the switcher helps.
  const auto edges = test::path_edges(300);
  core::EngineOptions ring;
  ring.cores = 64;
  ring.machine = model::hopper();
  core::EngineOptions autoalgo = ring;
  autoalgo.allgather_algo = AllgatherAlgo::kAuto;
  bfs::Bfs2D a{edges, 300, ring};
  bfs::Bfs2D b{edges, 300, autoalgo};
  const double ring_t = a.run(0).report.total_seconds;
  const double auto_t = b.run(0).report.total_seconds;
  EXPECT_LE(auto_t, ring_t * (1 + 1e-9));
}

}  // namespace
}  // namespace dbfs::model
