// Per-rank-pair communication atlas (src/obs/comm_atlas.cpp): unit
// coverage for the matrix/ledger/analytics, engine-level reconciliation
// against the TrafficMeter, the report byte totals, the comm.bytes.*
// counters and the wire codec accounting — across both distributed
// algorithms, every wire format, and a chaos fault plan with a mid-run
// rank kill (shrink recovery must neither lose nor double-count a
// byte) — plus the doctor's traffic-skew / hotspot-rank golden scenario.
// Passivity is proven for every observer in test_observers.cpp.
#include "obs/comm_atlas.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bfs/report_json.hpp"
#include "core/engine.hpp"
#include "obs/bench_record.hpp"
#include "obs/doctor.hpp"
#include "simmpi/traffic.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"

namespace dbfs {
namespace {

int pid(simmpi::Pattern p) { return static_cast<int>(p); }

// ---------------------------------------------------------------------
// Unit: slices, ledgers, analytics.

TEST(CommAtlas, SliceDualLedgerSplitsMeteredFromLocal) {
  obs::CommAtlas atlas;
  atlas.ensure_ranks(4);
  auto& sl = atlas.slice(pid(simmpi::Pattern::kAlltoallv), "Alltoallv",
                         "site", 0);
  sl.add(0, 1, 100);
  sl.add(1, 0, 40);
  sl.add_local(2, 60);
  EXPECT_EQ(sl.total_bytes, 200u);
  EXPECT_EQ(sl.local_bytes, 60u);
  EXPECT_EQ(sl.metered_bytes(), 140u);
  EXPECT_EQ(atlas.pattern_bytes(pid(simmpi::Pattern::kAlltoallv)), 140u);
  EXPECT_EQ(atlas.pattern_total_bytes(pid(simmpi::Pattern::kAlltoallv)),
            200u);
  EXPECT_EQ(atlas.site_total_bytes("site"), 200u);
}

TEST(CommAtlas, SummaryAnalyticsOnHandBuiltMatrix) {
  // 2x2 grid, row-major ranks: 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1).
  obs::CommAtlas atlas;
  atlas.ensure_ranks(4);
  atlas.set_grid(2, 2);
  auto& sl = atlas.slice(pid(simmpi::Pattern::kAlltoallv), "Alltoallv",
                         "site", 0);
  sl.add(0, 1, 100);      // same row -> subcommunicator-local
  sl.add(0, 2, 300);      // same column -> subcommunicator-local
  sl.add(0, 3, 600);      // straddles both groups -> grid-wide
  sl.add_local(2, 50);    // diagonal, unmetered

  const obs::AtlasSummary s = atlas.summary();
  EXPECT_EQ(s.ranks, 4);
  EXPECT_EQ(s.total_bytes, 1050u);
  EXPECT_EQ(s.self_bytes, 50u);
  EXPECT_EQ(s.network_bytes, 1000u);
  EXPECT_EQ(s.max_pair_bytes, 600u);
  EXPECT_EQ(s.max_pair_src, 0);
  EXPECT_EQ(s.max_pair_dst, 3);
  EXPECT_DOUBLE_EQ(s.max_pair_share, 0.6);
  EXPECT_EQ(s.hotspot_rank, 0);  // rank 0 sends all 1000 network bytes
  EXPECT_EQ(s.incast_rank, 3);   // rank 3 receives the most (600)
  // Sender volumes [1000,0,0,0]: max/mean = 1000/250.
  EXPECT_DOUBLE_EQ(s.row_skew, 4.0);
  // Receiver volumes [0,100,300,600]: max/mean = 600/250.
  EXPECT_DOUBLE_EQ(s.col_skew, 2.4);
  EXPECT_EQ(s.subcomm_bytes, 400u);
  EXPECT_DOUBLE_EQ(s.locality_share, 0.4);
  EXPECT_DOUBLE_EQ(s.self_share, 50.0 / 1050.0);
}

TEST(CommAtlas, PairSubcommClassification) {
  obs::CommAtlas atlas;
  atlas.ensure_ranks(4);
  atlas.set_grid(2, 2);
  EXPECT_TRUE(atlas.pair_is_subcomm(0, 1));   // row 0
  EXPECT_TRUE(atlas.pair_is_subcomm(2, 3));   // row 1
  EXPECT_TRUE(atlas.pair_is_subcomm(1, 3));   // column 1
  EXPECT_FALSE(atlas.pair_is_subcomm(0, 3));  // transpose partners
  EXPECT_FALSE(atlas.pair_is_subcomm(1, 2));

  // A 1xp grid's only row group IS the world: nothing is "local".
  atlas.set_grid(1, 4);
  EXPECT_FALSE(atlas.pair_is_subcomm(0, 1));
  EXPECT_FALSE(atlas.pair_is_subcomm(1, 3));
}

TEST(CommAtlas, EnsureRanksGrowthRelaysOutExistingCells) {
  obs::CommAtlas atlas;
  atlas.ensure_ranks(2);
  auto& sl = atlas.slice(pid(simmpi::Pattern::kTranspose), "Transpose",
                         "site", -1);
  sl.add(0, 1, 7);
  sl.add(1, 0, 9);
  atlas.ensure_ranks(4);
  EXPECT_EQ(atlas.ranks(), 4);
  const std::vector<std::uint64_t> m = atlas.matrix();
  ASSERT_EQ(m.size(), 16u);
  EXPECT_EQ(m[0 * 4 + 1], 7u);
  EXPECT_EQ(m[1 * 4 + 0], 9u);
  EXPECT_EQ(atlas.summary().total_bytes, 16u);

  // Shrinking is a no-op: pre-shrink pairs must stay addressable.
  atlas.ensure_ranks(2);
  EXPECT_EQ(atlas.ranks(), 4);
}

TEST(CommAtlas, ClearDropsSlicesButKeepsShape) {
  obs::CommAtlas atlas;
  atlas.ensure_ranks(8);
  atlas.set_grid(2, 4);
  atlas.slice(0, "Alltoallv", "site", 0).add(0, 1, 5);
  atlas.clear();
  EXPECT_TRUE(atlas.empty());
  EXPECT_EQ(atlas.ranks(), 8);
  EXPECT_EQ(atlas.grid_rows(), 2);
  EXPECT_EQ(atlas.grid_cols(), 4);
  EXPECT_EQ(atlas.summary().total_bytes, 0u);
}

TEST(CommAtlas, LevelCutIsolatesOneLevel) {
  obs::CommAtlas atlas;
  atlas.ensure_ranks(4);
  atlas.set_grid(2, 2);
  atlas.slice(0, "Alltoallv", "fold", 0).add(0, 1, 100);
  atlas.slice(0, "Alltoallv", "fold", 1).add(2, 0, 40);
  atlas.slice(0, "Alltoallv", "fold", 1).add_local(3, 8);

  const obs::AtlasLevelCut cut0 = atlas.level_cut(0);
  EXPECT_EQ(cut0.total_bytes, 100u);
  EXPECT_EQ(cut0.network_bytes, 100u);
  EXPECT_EQ(cut0.subcomm_bytes, 100u);
  EXPECT_EQ(cut0.hotspot_rank, 0);

  const obs::AtlasLevelCut cut1 = atlas.level_cut(1);
  EXPECT_EQ(cut1.total_bytes, 48u);
  EXPECT_EQ(cut1.network_bytes, 40u);
  EXPECT_EQ(cut1.subcomm_bytes, 40u);  // (2,0) share column 0
  EXPECT_EQ(cut1.hotspot_rank, 2);

  EXPECT_EQ(atlas.level_cut(7).total_bytes, 0u);
  EXPECT_EQ(atlas.level_cut(7).hotspot_rank, -1);
}

TEST(CommAtlas, WriteJsonParsesAndReconciles) {
  obs::CommAtlas atlas;
  atlas.ensure_ranks(4);
  atlas.set_grid(2, 2);
  atlas.slice(pid(simmpi::Pattern::kAlltoallv), "Alltoallv", "fold", 0)
      .add(0, 3, 600);
  atlas.slice(pid(simmpi::Pattern::kAllgatherv), "Allgatherv", "expand", 1)
      .add(1, 3, 250);
  atlas.slice(pid(simmpi::Pattern::kAlltoallv), "Alltoallv", "fold", 1)
      .add_local(2, 50);

  std::ostringstream out;
  atlas.write_json(out);
  const auto root = util::parse_json(out.str());
  const auto& a = root.at("atlas");
  EXPECT_EQ(a.at("ranks").as_int(), 4);
  EXPECT_EQ(a.at("grid").at("rows").as_int(), 2);
  EXPECT_EQ(a.at("summary").at("total_bytes").as_int(), 900);
  EXPECT_EQ(a.at("summary").at("self_bytes").as_int(), 50);
  ASSERT_EQ(a.at("matrix").items.size(), 4u);
  ASSERT_EQ(a.at("matrix").items[0].items.size(), 4u);
  EXPECT_EQ(a.at("matrix").items[0].items[3].as_int(), 600);
  // Patterns and sites each decompose the same total.
  long long pattern_sum = 0;
  for (const auto& p : a.at("patterns").items) {
    pattern_sum += p.at("bytes").as_int() + p.at("local_bytes").as_int();
  }
  EXPECT_EQ(pattern_sum, 900);
  long long site_sum = 0;
  for (const auto& s : a.at("sites").items) site_sum += s.at("bytes").as_int();
  EXPECT_EQ(site_sum, 900);
  ASSERT_EQ(a.at("levels").items.size(), 2u);
}

// ---------------------------------------------------------------------
// Engine-level reconciliation: the atlas's per-pattern pair sums must
// equal the TrafficMeter totals the report serializes, and the
// comm.bytes.<Pattern> counters, for every algorithm x wire format —
// with and without a chaos fault plan that kills a rank mid-run.

const graph::BuiltGraph& shared_graph() {
  static const graph::BuiltGraph built = test::rmat_graph(10, 8);
  return built;
}

simmpi::FaultPlan chaos_plan_with_kill() {
  simmpi::FaultPlan plan;
  plan.seed = 7;
  plan.collective_fail_rate = 0.02;
  plan.corrupt_rate = 0.01;
  simmpi::RankKill kill;
  kill.rank = 1;
  kill.at_level = 2;
  plan.rank_kills = {kill};
  return plan;
}

std::int64_t counter_of(const core::Engine& engine, const char* name) {
  const auto& counters = engine.metrics()->counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

void expect_reconciled(const core::Engine& engine,
                       const bfs::RunReport& report, bool killed,
                       const std::string& label) {
  using simmpi::Pattern;
  const obs::CommAtlas* atlas = engine.comm_atlas();
  ASSERT_NE(atlas, nullptr) << label;

  // Atlas pair sums == TrafficMeter totals (as the report records them).
  EXPECT_EQ(atlas->pattern_bytes(pid(Pattern::kAlltoallv)),
            report.alltoall_bytes)
      << label;
  EXPECT_EQ(atlas->pattern_bytes(pid(Pattern::kAllgatherv)) +
                atlas->pattern_bytes(pid(Pattern::kBroadcast)) +
                atlas->pattern_bytes(pid(Pattern::kGatherv)),
            report.allgather_bytes)
      << label;
  EXPECT_EQ(atlas->pattern_bytes(pid(Pattern::kTranspose)),
            report.transpose_bytes)
      << label;
  EXPECT_EQ(atlas->pattern_bytes(pid(Pattern::kAllreduce)),
            report.allreduce_bytes)
      << label;

  // Atlas pair sums == the comm.bytes.<Pattern> registry counters. The
  // PointToPoint counter also counts the unmetered recover-restore
  // transfer, so its equality only holds for runs without a kill.
  for (int p = 0; p < static_cast<int>(Pattern::kCount); ++p) {
    const auto pattern = static_cast<Pattern>(p);
    if (pattern == Pattern::kPointToPoint && killed) continue;
    const std::string name =
        std::string("comm.bytes.") + simmpi::to_string(pattern);
    EXPECT_EQ(atlas->pattern_bytes(p),
              static_cast<std::uint64_t>(counter_of(engine, name.c_str())))
        << label << " " << name;
  }

  // The matrix grand total equals the sum over every decomposition.
  const obs::AtlasSummary s = atlas->summary();
  std::uint64_t pattern_total = 0;
  for (int p = 0; p < static_cast<int>(Pattern::kCount); ++p) {
    pattern_total += atlas->pattern_total_bytes(p);
  }
  EXPECT_EQ(pattern_total, s.total_bytes) << label;
  EXPECT_EQ(s.self_bytes + s.network_bytes, s.total_bytes) << label;
  EXPECT_LE(s.subcomm_bytes, s.network_bytes) << label;
  EXPECT_GT(s.network_bytes, 0u) << label;
}

TEST(CommAtlasEngine, ReconcilesAcrossAlgorithmsWireFormatsAndFaults) {
  const graph::BuiltGraph& built = shared_graph();
  const vid_t source = test::hub_source(built.csr);
  const core::Algorithm algos[] = {core::Algorithm::kOneDFlat,
                                   core::Algorithm::kTwoDFlat};
  const comm::WireFormat wires[] = {
      comm::WireFormat::kRaw, comm::WireFormat::kSieve,
      comm::WireFormat::kBitmap, comm::WireFormat::kVarint,
      comm::WireFormat::kAuto};

  for (core::Algorithm algo : algos) {
    for (comm::WireFormat wire : wires) {
      for (bool killed : {false, true}) {
        core::EngineOptions opts;
        opts.algorithm = algo;
        opts.cores = 16;
        opts.wire_format = wire;
        opts.atlas = true;
        opts.metrics = true;
        if (killed) {
          opts.faults = chaos_plan_with_kill();
          opts.recover.policy = recover::Policy::kShrink;
          opts.recover.checkpoint_every = 1;
        }
        const std::string label = std::string(core::to_string(algo)) + "/" +
                                  comm::to_string(wire) +
                                  (killed ? "/chaos-kill" : "/clean");

        core::Engine engine{built.edges, built.csr.num_vertices(), opts};
        const auto out = engine.run(source);
        if (killed) {
          ASSERT_GE(out.report.recover.rank_failures, 1) << label;
        }
        expect_reconciled(engine, out.report, killed, label);
      }
    }
  }
}

// The 1D codec path: every encoded byte the wire.* counters account for
// must appear in the atlas's "1d-exchange" bucket — including the
// self-addressed blocks the local ledger holds, which the meter skips.
// Payload corruption re-issues re-record the exchange (meter and atlas
// alike) but not the encode, so this runs on clean plans only.
TEST(CommAtlasEngine, OneDExchangeSiteMatchesWireBytesAfter) {
  const graph::BuiltGraph& built = shared_graph();
  const vid_t source = test::hub_source(built.csr);
  const comm::WireFormat wires[] = {
      comm::WireFormat::kSieve, comm::WireFormat::kBitmap,
      comm::WireFormat::kVarint, comm::WireFormat::kAuto};
  for (comm::WireFormat wire : wires) {
    core::EngineOptions opts;
    opts.algorithm = core::Algorithm::kOneDFlat;
    opts.cores = 16;
    opts.wire_format = wire;
    opts.atlas = true;
    opts.metrics = true;
    core::Engine engine{built.edges, built.csr.num_vertices(), opts};
    (void)engine.run(source);
    EXPECT_EQ(engine.comm_atlas()->site_total_bytes("1d-exchange"),
              static_cast<std::uint64_t>(
                  counter_of(engine, "wire.bytes_after")))
        << comm::to_string(wire);
  }
}

// 2D shrink recovery re-folds to a smaller grid while the matrix keeps
// its original dimension, so pre-shrink pairs stay attributed.
TEST(CommAtlasEngine, ShrinkKeepsMatrixDimensionAndShrinksGrid) {
  const graph::BuiltGraph& built = shared_graph();
  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kTwoDFlat;
  opts.cores = 16;
  opts.atlas = true;
  simmpi::RankKill kill;
  kill.rank = 1;
  kill.at_level = 2;
  opts.faults.rank_kills = {kill};
  opts.recover.policy = recover::Policy::kShrink;
  opts.recover.checkpoint_every = 1;

  core::Engine engine{built.edges, built.csr.num_vertices(), opts};
  const auto out = engine.run(test::hub_source(built.csr));
  ASSERT_GE(out.report.recover.rank_failures, 1);

  const obs::CommAtlas* atlas = engine.comm_atlas();
  EXPECT_EQ(atlas->ranks(), 16);
  EXPECT_LE(atlas->grid_rows() * atlas->grid_cols(), atlas->ranks());
  EXPECT_LT(atlas->grid_rows() * atlas->grid_cols(), 16);
  EXPECT_GT(atlas->summary().network_bytes, 0u);
}

// And the same through the 2D hybrid direction: all three bottom-up
// exchanges must land in the atlas, with the completion/result traffic
// riding transpose partners (captured by the Transpose pattern).
TEST(CommAtlasEngine, HybridBottomUpExchangesAreAttributed) {
  const graph::BuiltGraph& built = shared_graph();
  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kTwoDFlat;
  opts.cores = 16;
  opts.direction = bfs::DirectionMode::kHybrid;
  opts.atlas = true;
  opts.metrics = true;  // expect_reconciled reads the comm.bytes.* counters
  core::Engine engine{built.edges, built.csr.num_vertices(), opts};
  const auto out = engine.run(test::hub_source(built.csr));
  ASSERT_GT(out.report.dirop.bottom_up_levels, 0)
      << "hybrid must actually engage bottom-up on the R-MAT instance";

  const obs::CommAtlas* atlas = engine.comm_atlas();
  EXPECT_GT(atlas->site_total_bytes("2d-bu-frontier"), 0u);
  EXPECT_GT(atlas->site_total_bytes("2d-bu-result"), 0u);
  expect_reconciled(engine, out.report, false, "2d-hybrid");
}

// ---------------------------------------------------------------------
// Doctor golden scenario: a candidate whose atlas shows a skew jump and
// a concentrated pair must be diagnosed as traffic-skew, and the
// hotspot-rank finding must name the seeded rank.

obs::BenchRecord atlas_record(double row_skew, double max_pair_share,
                              int hotspot_rank, int incast_rank) {
  obs::BenchRecord r;
  r.name = "atlas-golden";
  r.config.algorithm = "1d";
  r.config.machine = "generic";
  r.config.wire_format = "raw";
  r.config.cores = 16;
  r.config.ranks = 16;
  r.harmonic_mean_teps = 1e8;
  r.mean_seconds = 1.0;
  r.comm_seconds_mean = 0.5;
  r.comp_seconds_mean = 0.5;
  for (int lv = 0; lv < 4; ++lv) {
    obs::BenchLevelSplit l;
    l.level = lv;
    l.compute_mean = 0.1;
    l.wait_mean = 0.05;
    l.transfer_mean = 0.1;
    r.levels.push_back(l);
  }
  r.atlas.present = true;
  r.atlas.grid_rows = 1;
  r.atlas.grid_cols = 16;
  r.atlas.total_bytes = 1000000;
  r.atlas.network_bytes = 900000;
  r.atlas.row_skew = row_skew;
  r.atlas.col_skew = 1.1;
  r.atlas.max_pair_share = max_pair_share;
  r.atlas.hotspot_rank = hotspot_rank;
  r.atlas.incast_rank = incast_rank;
  return r;
}

TEST(Doctor, AttributesSkewJumpToTrafficSkewAndNamesHotspotRank) {
  const auto baseline = atlas_record(1.2, 0.08, 3, 4);
  auto candidate = atlas_record(3.6, 0.45, 5, 9);
  candidate.harmonic_mean_teps = 7e7;  // a real slowdown to attribute
  for (auto& l : candidate.levels) l.transfer_mean *= 1.5;

  const auto report = obs::diagnose(baseline, candidate);
  bool skew = false, hotspot = false;
  std::string hotspot_detail;
  for (const auto& f : report.findings) {
    if (f.cause == "traffic-skew") skew = true;
    if (f.cause == "hotspot-rank") {
      hotspot = true;
      hotspot_detail = f.detail;
    }
  }
  EXPECT_TRUE(skew);
  ASSERT_TRUE(hotspot);
  EXPECT_NE(hotspot_detail.find("rank 5"), std::string::npos)
      << hotspot_detail;
}

TEST(Doctor, NoAtlasBlockMeansNoAtlasFindings) {
  auto baseline = atlas_record(1.2, 0.08, 3, 4);
  auto candidate = atlas_record(3.6, 0.45, 5, 9);
  baseline.atlas.present = false;  // schema-additive: older records
  const auto report = obs::diagnose(baseline, candidate);
  for (const auto& f : report.findings) {
    EXPECT_NE(f.cause, "traffic-skew");
    EXPECT_NE(f.cause, "hotspot-rank");
  }
}

}  // namespace
}  // namespace dbfs
