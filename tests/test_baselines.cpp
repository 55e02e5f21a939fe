#include <gtest/gtest.h>

#include <cmath>

#include "bfs/bfs1d.hpp"
#include "bfs/serial.hpp"
#include "test_helpers.hpp"

namespace dbfs::bfs {
namespace {

using core::Algorithm;

core::EngineOptions opts_for(Algorithm algorithm, int cores,
                             const model::MachineModel& machine) {
  core::EngineOptions o;
  o.algorithm = algorithm;
  o.cores = cores;
  o.machine = machine;
  return o;
}

TEST(Graph500Ref, ProducesCorrectBfs) {
  const auto built = test::rmat_graph(9);
  Bfs1D baseline{built.csr,
                 opts_for(Algorithm::kGraph500Ref, 8, model::franklin())};
  EXPECT_EQ(baseline.ranks(), 8);
  const vid_t source = test::hub_source(built.csr);
  const auto out = baseline.run(source);
  const auto serial = serial_bfs(built.csr, source);
  EXPECT_EQ(out.level, serial.level);
}

TEST(Graph500Ref, SlowerThanTunedFlat1D) {
  const auto built = test::rmat_graph(11, 16);
  const auto machine = model::franklin();

  Bfs1D ours{built.csr, opts_for(Algorithm::kOneDFlat, 64, machine)};
  Bfs1D reference{built.csr, opts_for(Algorithm::kGraph500Ref, 64, machine)};

  const vid_t source = test::hub_source(built.csr);
  const double ours_t = ours.run(source).report.total_seconds;
  const double ref_t = reference.run(source).report.total_seconds;
  // The paper reports 2.7-4.1x; require a clear gap in the right
  // direction without pinning the exact constant.
  EXPECT_GT(ref_t / ours_t, 1.5);
}

TEST(Graph500Ref, GapGrowsWithConcurrency) {
  // §6: 2.72x at 512, 3.43x at 1024, 4.13x at 2048 cores. The paper's
  // runs keep per-rank volume substantial at every core count (scale 32),
  // so we test the progression under the same regime: fixed edges per
  // rank (weak scaling), where the reference's per-message overheads
  // degrade with the peer count.
  std::vector<double> gaps;
  // The growth regime matches the paper's core counts (hundreds to
  // thousands); at tens of ranks both codes are compute-bound and the
  // ratio is noisy, so the sweep starts at 256.
  const int ranks_list[] = {512, 1024, 2048};
  const int scale_list[] = {13, 14, 15};
  for (int i = 0; i < 3; ++i) {
    const int ranks = ranks_list[i];
    const auto built = test::rmat_graph(scale_list[i], 16);
    // Miniaturized machine, like the bench harness: fixed latencies are
    // scaled by the problem-size ratio so the compute:latency balance
    // matches the paper's operating point.
    const auto machine = model::miniaturized(
        model::franklin(), static_cast<double>(built.directed_edge_count) /
                               std::pow(2.0, 33.0));
    Bfs1D ours{built.csr, opts_for(Algorithm::kOneDFlat, ranks, machine)};
    Bfs1D reference{built.csr,
                    opts_for(Algorithm::kGraph500Ref, ranks, machine)};
    const vid_t source = test::hub_source(built.csr);
    gaps.push_back(reference.run(source).report.total_seconds /
                   ours.run(source).report.total_seconds);
  }
  // The gap is multi-x at every concurrency and larger at the top of the
  // sweep than at the bottom (the paper's 2.72x -> 4.13x direction);
  // strict level-by-level monotonicity is noise-sensitive at miniature
  // scale, so only the endpoints are pinned.
  for (double gap : gaps) EXPECT_GT(gap, 1.5);
  EXPECT_GT(gaps.back(), gaps.front());
}

TEST(PbglLike, ProducesCorrectBfs) {
  const auto built = test::rmat_graph(9);
  Bfs1D baseline{built.csr, opts_for(Algorithm::kPbglLike, 8, model::carver())};
  EXPECT_EQ(baseline.ranks(), 8);
  const vid_t source = test::hub_source(built.csr);
  const auto out = baseline.run(source);
  const auto serial = serial_bfs(built.csr, source);
  EXPECT_EQ(out.level, serial.level);
}

TEST(PbglLike, MuchSlowerThanGraph500Ref) {
  // Table 2's ordering: PBGL is the slowest implementation by a wide
  // margin (10x+ behind the tuned codes).
  const auto built = test::rmat_graph(10, 16);
  const auto machine = model::carver();

  Bfs1D pbgl{built.csr, opts_for(Algorithm::kPbglLike, 64, machine)};
  Bfs1D reference{built.csr, opts_for(Algorithm::kGraph500Ref, 64, machine)};

  const vid_t source = test::hub_source(built.csr);
  EXPECT_GT(pbgl.run(source).report.total_seconds,
            reference.run(source).report.total_seconds);
}

TEST(Baselines, OptionLabelsDistinguishAlgorithms) {
  // Each baseline reports its code and exchange in its label, and PBGL's
  // property-map inner loop costs more per edge than the reference's.
  const auto built = test::rmat_graph(9);
  const vid_t source = test::hub_source(built.csr);
  const auto machine = model::franklin();
  const RunReport ref =
      Bfs1D{built.csr, opts_for(Algorithm::kGraph500Ref, 1, machine)}
          .run(source)
          .report;
  const RunReport pbgl =
      Bfs1D{built.csr, opts_for(Algorithm::kPbglLike, 1, machine)}
          .run(source)
          .report;
  EXPECT_EQ(ref.algorithm, "graph500-ref-chunked-flat");
  EXPECT_EQ(pbgl.algorithm, "pbgl-like-per-edge-flat");
  // One rank is one peer, and both runs take the same levels over the
  // same edges. Their compute gap is PBGL's costlier per-peer flush
  // (1.5 us against 50 ns per peer per level) plus its extra per-edge
  // work; what is left once the flush term is taken out must be a
  // per-edge cost paid on every traversed edge.
  ASSERT_EQ(pbgl.levels.size(), ref.levels.size());
  ASSERT_EQ(pbgl.edges_traversed, ref.edges_traversed);
  ASSERT_GT(ref.edges_traversed, 0);
  const double flush_gap =
      static_cast<double>(ref.levels.size()) * (1.5e-6 - 5.0e-8);
  const double per_edge_gap =
      (pbgl.comp_seconds_mean - ref.comp_seconds_mean - flush_gap) /
      static_cast<double>(ref.edges_traversed);
  EXPECT_GT(per_edge_gap, 1e-9);
}

TEST(Baselines, RejectNon1DAlgorithms) {
  const auto g = graph::CsrGraph::from_edges(test::path_edges(8));
  for (Algorithm a : {Algorithm::kSerial, Algorithm::kShared,
                      Algorithm::kTwoDFlat, Algorithm::kTwoDHybrid}) {
    EXPECT_THROW(Bfs1D(g, opts_for(a, 4, model::generic())),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace dbfs::bfs
