// Direction-optimizing traversal in the 2D SpMSV engine: correctness of
// the bottom-up pull step across grids and wire formats, the alpha-beta
// switch actually engaging (and disengaging) on R-MAT instances, the
// byte-identity guarantee of the default top-down mode, and replay
// determinism of the direction decisions under fail-stop recovery.
#include <gtest/gtest.h>

#include "bfs/bfs2d.hpp"
#include "bfs/report_json.hpp"
#include "bfs/serial.hpp"
#include "graph/validator.hpp"
#include "test_helpers.hpp"

namespace dbfs::bfs {
namespace {

core::EngineOptions dirop_opts(int cores, DirectionMode mode,
                               int threads = 1) {
  core::EngineOptions o;
  o.algorithm = threads > 1 ? core::Algorithm::kTwoDHybrid
                            : core::Algorithm::kTwoDFlat;
  o.cores = cores;
  o.threads_per_rank = threads;
  o.machine = model::franklin();
  o.direction = mode;
  return o;
}

class DiropCoreSweep : public ::testing::TestWithParam<int> {};

TEST_P(DiropCoreSweep, HybridMatchesSerial) {
  const auto built = test::rmat_graph(10);
  Bfs2D bfs{built.csr, dirop_opts(GetParam(), DirectionMode::kHybrid)};
  const auto src = test::hub_source(built.csr);
  const auto out = bfs.run(src);
  const auto serial = serial_bfs(built.csr, src);
  EXPECT_EQ(out.level, serial.level) << "cores=" << GetParam();
}

TEST_P(DiropCoreSweep, ForcedBottomUpMatchesSerial) {
  const auto built = test::rmat_graph(10);
  Bfs2D bfs{built.csr, dirop_opts(GetParam(), DirectionMode::kBottomUp)};
  const auto src = test::hub_source(built.csr);
  const auto out = bfs.run(src);
  const auto serial = serial_bfs(built.csr, src);
  EXPECT_EQ(out.level, serial.level) << "cores=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Cores, DiropCoreSweep,
                         ::testing::Values(1, 4, 16, 64));

TEST(Bfs2DDirop, HybridParentsPassValidation) {
  const auto built = test::rmat_graph(11, 8, 5);
  Bfs2D bfs{built.csr, dirop_opts(16, DirectionMode::kHybrid)};
  const auto src = test::hub_source(built.csr);
  const auto out = bfs.run(src);
  const auto v = graph::validate_bfs_tree(
      built.csr, src, out.parent, graph::reference_levels(built.csr, src));
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(Bfs2DDirop, HybridEngagesAndDisengages) {
  // A scale-12 R-MAT from a hub source has the Beamer shape: a couple of
  // narrow top-down levels, a broad middle where bottom-up wins, and a
  // narrow tail. Both switch directions must appear, with their
  // rationales recorded per level.
  const auto built = test::rmat_graph(12, 16);
  Bfs2D bfs{built.csr, dirop_opts(16, DirectionMode::kHybrid)};
  const auto src = test::hub_source(built.csr);
  const auto out = bfs.run(src);
  const auto serial = serial_bfs(built.csr, src);
  ASSERT_EQ(out.level, serial.level);

  const auto& d = out.report.dirop;
  EXPECT_TRUE(d.enabled);
  EXPECT_EQ(d.mode, "hybrid");
  EXPECT_GE(d.bottom_up_levels, 1);
  EXPECT_GE(d.top_down_levels, 1);
  EXPECT_GE(d.switches, 2);  // engaged and came back
  EXPECT_GT(d.bottom_up_edges, 0u);
  EXPECT_GT(d.top_down_edges, 0u);

  bool saw_engage = false;
  bool saw_disengage = false;
  for (const auto& l : out.report.levels) {
    if (l.dirop_rationale == static_cast<int>(DiropRationale::kEngage)) {
      saw_engage = true;
      EXPECT_TRUE(l.bottom_up);
    }
    if (l.dirop_rationale == static_cast<int>(DiropRationale::kDisengage)) {
      saw_disengage = true;
      EXPECT_FALSE(l.bottom_up);
    }
    // The heuristic inputs are always populated in dirop modes.
    if (l.level > 0) {
      EXPECT_GT(l.frontier_edges + l.unexplored_edges, 0u);
    }
  }
  EXPECT_TRUE(saw_engage);
  EXPECT_TRUE(saw_disengage);
}

TEST(Bfs2DDirop, HybridExaminesFewerEdgesThanTopDown) {
  const auto built = test::rmat_graph(12, 16);
  const auto src = test::hub_source(built.csr);
  Bfs2D td{built.csr, dirop_opts(16, DirectionMode::kTopDown)};
  Bfs2D hy{built.csr, dirop_opts(16, DirectionMode::kHybrid)};
  const auto td_out = td.run(src);
  const auto hy_out = hy.run(src);
  ASSERT_EQ(td_out.level, hy_out.level);
  EXPECT_LT(hy_out.report.edges_traversed, td_out.report.edges_traversed);
}

class DiropWireSweep : public ::testing::TestWithParam<comm::WireFormat> {};

TEST_P(DiropWireSweep, HybridAgreesAcrossWireFormats) {
  const auto built = test::rmat_graph(11);
  auto opts = dirop_opts(16, DirectionMode::kHybrid);
  opts.wire_format = GetParam();
  Bfs2D bfs{built.csr, opts};
  const auto src = test::hub_source(built.csr);
  const auto out = bfs.run(src);
  const auto serial = serial_bfs(built.csr, src);
  EXPECT_EQ(out.level, serial.level)
      << "wire=" << comm::to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Wire, DiropWireSweep,
                         ::testing::Values(comm::WireFormat::kRaw,
                                           comm::WireFormat::kSieve,
                                           comm::WireFormat::kBitmap,
                                           comm::WireFormat::kVarint,
                                           comm::WireFormat::kAuto),
                         [](const auto& info) {
                           return comm::to_string(info.param);
                         });

TEST(Bfs2DDirop, PullParentsEqualTopDownParents) {
  // The pull step's per-block max-row hit, merged by max parent, is the
  // parent top-down picks: hybrid and forced bottom-up runs must return
  // the top-down tree bit for bit. 3x3 to 11x11 grids cut these graphs
  // into row blocks that are not multiples of 8 or 64, so the bottom-up
  // level's range bitmaps end mid-word and mid-byte.
  graph::WebcrawlParams crawl;
  crawl.num_vertices = 1009;
  crawl.target_diameter = 30;
  const std::pair<const char*, graph::BuiltGraph> graphs[] = {
      {"rmat10", test::rmat_graph(10)},
      {"webcrawl1009", graph::build_graph(graph::generate_webcrawl(crawl))},
      {"rmat11-ef4", test::rmat_graph(11, 4)},
  };
  for (const auto& [name, built] : graphs) {
    const auto src = test::hub_source(built.csr);
    for (int cores : {9, 25, 49, 121}) {
      for (comm::WireFormat format :
           {comm::WireFormat::kRaw, comm::WireFormat::kSieve,
            comm::WireFormat::kBitmap, comm::WireFormat::kVarint,
            comm::WireFormat::kAuto}) {
        SCOPED_TRACE(::testing::Message() << name << " cores=" << cores
                                          << " wire="
                                          << comm::to_string(format));
        const auto run = [&](DirectionMode mode) {
          auto opts = dirop_opts(cores, mode);
          opts.wire_format = format;
          Bfs2D bfs{built.csr, opts};
          return bfs.run(src);
        };
        const auto top_down = run(DirectionMode::kTopDown);
        for (DirectionMode mode :
             {DirectionMode::kHybrid, DirectionMode::kBottomUp}) {
          const auto pulled = run(mode);
          EXPECT_EQ(pulled.parent, top_down.parent) << to_string(mode);
          EXPECT_EQ(pulled.level, top_down.level) << to_string(mode);
        }
      }
    }
  }
}

TEST(Bfs2DDirop, BottomUpWireCompressesAtLeastAsWellAsTopDown) {
  // Acceptance criterion: under the auto codec, the dense bottom-up
  // frontier/completeness exchanges must ship at a bytes-per-raw-byte
  // ratio no worse than the top-down levels of the same run.
  const auto built = test::rmat_graph(12, 16);
  auto opts = dirop_opts(16, DirectionMode::kHybrid);
  opts.wire_format = comm::WireFormat::kAuto;
  Bfs2D bfs{built.csr, opts};
  const auto out = bfs.run(test::hub_source(built.csr));
  const auto& d = out.report.dirop;
  ASSERT_GT(d.bottom_up_wire_raw_bytes, 0u);
  ASSERT_GT(d.top_down_wire_raw_bytes, 0u);
  const double bu = static_cast<double>(d.bottom_up_wire_bytes) /
                    static_cast<double>(d.bottom_up_wire_raw_bytes);
  const double td = static_cast<double>(d.top_down_wire_bytes) /
                    static_cast<double>(d.top_down_wire_raw_bytes);
  EXPECT_LE(bu, td);
}

TEST(Bfs2DDirop, TopDownReportHasNoDiropBlock) {
  // The default mode's JSON must stay byte-identical to the pre-hybrid
  // engine: no dirop key, no per-level direction fields.
  const auto built = test::rmat_graph(10);
  Bfs2D bfs{built.csr, dirop_opts(16, DirectionMode::kTopDown)};
  const auto out = bfs.run(test::hub_source(built.csr));
  EXPECT_FALSE(out.report.dirop.enabled);
  const std::string json = report_to_json(out.report);
  EXPECT_EQ(json.find("dirop"), std::string::npos);
  EXPECT_EQ(json.find("bottom_up"), std::string::npos);
}

TEST(Bfs2DDirop, HybridReportCarriesDiropJson) {
  const auto built = test::rmat_graph(12, 16);
  Bfs2D bfs{built.csr, dirop_opts(16, DirectionMode::kHybrid)};
  const auto out = bfs.run(test::hub_source(built.csr));
  const std::string json = report_to_json(out.report);
  EXPECT_NE(json.find("\"dirop\""), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"hybrid\""), std::string::npos);
  EXPECT_NE(json.find("\"rationale\""), std::string::npos);
}

TEST(Bfs2DDirop, ThreadedHybridMatchesFlat) {
  const auto built = test::rmat_graph(10);
  const auto src = test::hub_source(built.csr);
  Bfs2D flat{built.csr, dirop_opts(16, DirectionMode::kHybrid, 1)};
  Bfs2D hybrid{built.csr, dirop_opts(64, DirectionMode::kHybrid, 4)};
  EXPECT_EQ(flat.run(src).level, hybrid.run(src).level);
}

TEST(Bfs2DDirop, AlphaBetaExtremesPinTheDirection) {
  const auto built = test::rmat_graph(10, 16);
  const auto src = test::hub_source(built.csr);
  // Tiny alpha: m_u / alpha is astronomically large, so the engage
  // condition m_f > m_u / alpha never fires (Beamer's rule — larger
  // alpha engages *earlier*).
  auto never = dirop_opts(16, DirectionMode::kHybrid);
  never.alpha = 1e-9;
  Bfs2D bfs_never{built.csr, never};
  const auto out_never = bfs_never.run(src);
  EXPECT_EQ(out_never.report.dirop.bottom_up_levels, 0);
  // Huge alpha and beta: engages as soon as there is any frontier and
  // never disengages on frontier width.
  auto eager = dirop_opts(16, DirectionMode::kHybrid);
  eager.alpha = 1e18;
  eager.beta = 1e18;
  Bfs2D bfs_eager{built.csr, eager};
  const auto out_eager = bfs_eager.run(src);
  EXPECT_GE(out_eager.report.dirop.bottom_up_levels, 1);
  const auto serial = serial_bfs(built.csr, src);
  EXPECT_EQ(out_never.level, serial.level);
  EXPECT_EQ(out_eager.level, serial.level);
}

TEST(Bfs2DDirop, ModelDerivedThresholdsWhenNonPositive) {
  const auto built = test::rmat_graph(10);
  auto opts = dirop_opts(16, DirectionMode::kHybrid);
  opts.alpha = 0.0;
  opts.beta = -1.0;
  Bfs2D bfs{built.csr, opts};
  const auto out = bfs.run(test::hub_source(built.csr));
  EXPECT_GT(out.report.dirop.alpha, 0.0);
  EXPECT_GT(out.report.dirop.beta, 0.0);
  EXPECT_EQ(out.report.dirop.alpha, model::dirop_alpha(model::franklin()));
  EXPECT_EQ(out.report.dirop.beta, model::dirop_beta(model::franklin()));
}

TEST(Bfs2DDirop, RejectsTriangularStorage) {
  const auto g = graph::CsrGraph::from_edges(test::path_edges(16));
  auto opts = dirop_opts(16, DirectionMode::kHybrid);
  opts.triangular_storage = true;
  EXPECT_THROW((Bfs2D{g, opts}), std::invalid_argument);
}

TEST(Bfs2DDirop, RejectsDiagonalVectorDistribution) {
  const auto g = graph::CsrGraph::from_edges(test::path_edges(16));
  auto opts = dirop_opts(16, DirectionMode::kBottomUp);
  opts.vector_dist = dist::VectorDistKind::kDiagonal;
  EXPECT_THROW((Bfs2D{g, opts}), std::invalid_argument);
}

TEST(Bfs2DDirop, ParseAndPrintDirectionModes) {
  EXPECT_EQ(parse_direction_mode("topdown"), DirectionMode::kTopDown);
  EXPECT_EQ(parse_direction_mode("bottomup"), DirectionMode::kBottomUp);
  EXPECT_EQ(parse_direction_mode("hybrid"), DirectionMode::kHybrid);
  EXPECT_THROW(parse_direction_mode("sideways"), std::invalid_argument);
  EXPECT_STREQ(to_string(DirectionMode::kHybrid), "hybrid");
  EXPECT_STREQ(to_string(DiropRationale::kEngage), "engage");
}

// Replay determinism: kill a rank mid-bottom-up level; the recovered run
// must take the same per-level directions and produce identical output.
class DiropRecoverSweep : public ::testing::TestWithParam<recover::Policy> {};

TEST_P(DiropRecoverSweep, KillMidBottomUpReplaysSameDirections) {
  const auto built = test::rmat_graph(12, 16);
  const auto src = test::hub_source(built.csr);

  auto base = dirop_opts(16, DirectionMode::kHybrid);
  Bfs2D ref{built.csr, base};
  const auto expected = ref.run(src);

  // Find a level that actually ran bottom-up and kill inside it.
  int bu_level = -1;
  for (const auto& l : expected.report.levels) {
    if (l.bottom_up) {
      bu_level = l.level;
      break;
    }
  }
  ASSERT_GE(bu_level, 1) << "hybrid run never engaged bottom-up";

  auto opts = base;
  simmpi::RankKill kill;
  kill.rank = 1;
  kill.at_level = bu_level;
  opts.faults.rank_kills = {kill};
  opts.recover.policy = GetParam();
  opts.recover.checkpoint_every = 1;
  Bfs2D bfs{built.csr, opts};
  const auto out = bfs.run(src);

  EXPECT_EQ(out.level, expected.level);
  EXPECT_EQ(out.parent, expected.parent);
  EXPECT_GE(out.report.recover.rank_failures, 1);
  ASSERT_EQ(out.report.levels.size(), expected.report.levels.size());
  for (std::size_t i = 0; i < out.report.levels.size(); ++i) {
    EXPECT_EQ(out.report.levels[i].bottom_up,
              expected.report.levels[i].bottom_up)
        << "level " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, DiropRecoverSweep,
                         ::testing::Values(recover::Policy::kShrink,
                                           recover::Policy::kSpare),
                         [](const auto& info) {
                           return recover::to_string(info.param);
                         });

}  // namespace
}  // namespace dbfs::bfs
