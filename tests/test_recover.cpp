// Fail-stop recovery (src/recover/): kill ranks mid-traversal and demand
// the survivors finish with the exact fault-free answer. The contract
// under test is the strongest one the subsystem makes — parents and
// levels bit-identical to an unfaulted run, for both distributions, both
// threading modes, and both recovery policies — plus the inertness
// guarantees (checkpointing without kills changes nothing) and the
// FaultPlan serialization that carries kill schedules.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bfs/report_json.hpp"
#include "bfs/serial.hpp"
#include "core/engine.hpp"
#include "graph/validator.hpp"
#include "recover/checkpoint.hpp"
#include "simmpi/fault.hpp"
#include "test_helpers.hpp"

namespace dbfs {
namespace {

core::EngineOptions base_options(core::Algorithm algorithm, int cores) {
  core::EngineOptions opts;
  opts.algorithm = algorithm;
  opts.cores = cores;
  opts.machine = model::generic();
  return opts;
}

simmpi::RankKill level_kill(int rank, int level) {
  simmpi::RankKill kill;
  kill.rank = rank;
  kill.at_level = level;
  return kill;
}

simmpi::RankKill time_kill(int rank, double at) {
  simmpi::RankKill kill;
  kill.rank = rank;
  kill.at_time = at;
  return kill;
}

// The acceptance matrix: a mid-traversal kill for every distributed
// algorithm x {shrink, spare} x checkpoint cadence must complete, pass
// the Graph500 validator, and reproduce the fault-free parents and
// levels bit-for-bit.
TEST(RecoverChaos, KilledRunsMatchFaultFreeBitForBit) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  const auto reference = graph::reference_levels(built.csr, source);

  const core::Algorithm algorithms[] = {
      core::Algorithm::kOneDFlat, core::Algorithm::kOneDHybrid,
      core::Algorithm::kTwoDFlat, core::Algorithm::kTwoDHybrid};
  const recover::Policy policies[] = {recover::Policy::kShrink,
                                      recover::Policy::kSpare};
  for (core::Algorithm algorithm : algorithms) {
    core::EngineOptions clean = base_options(algorithm, 16);
    core::Engine clean_engine{built.edges, n, clean};
    const auto expected = clean_engine.run(source);

    for (recover::Policy policy : policies) {
      for (int cadence : {1, 2}) {
        core::EngineOptions opts = base_options(algorithm, 16);
        opts.faults.rank_kills = {level_kill(1, 2)};
        opts.recover.policy = policy;
        opts.recover.checkpoint_every = cadence;
        core::Engine engine{built.edges, n, opts};
        const auto out = engine.run(source);

        const std::string label = std::string(core::to_string(algorithm)) +
                                  "/" + recover::to_string(policy) +
                                  "/every=" + std::to_string(cadence);
        EXPECT_EQ(out.parent, expected.parent) << label;
        EXPECT_EQ(out.level, expected.level) << label;
        EXPECT_GE(out.report.recover.rank_failures, 1) << label;
        const auto v = graph::validate_bfs_tree(built.csr, source,
                                                out.parent, reference);
        EXPECT_TRUE(v.ok) << label << ": " << v.error;
      }
    }
  }
}

// The sieved/compressed wire paths rebuild their visited bitmaps from
// the snapshot; a replay through them must still be exact.
TEST(RecoverChaos, WireFormatsSurviveKills) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  const core::Algorithm algorithms[] = {core::Algorithm::kOneDFlat,
                                        core::Algorithm::kTwoDFlat};
  for (core::Algorithm algorithm : algorithms) {
    core::EngineOptions clean = base_options(algorithm, 16);
    clean.wire_format = comm::WireFormat::kAuto;
    core::Engine clean_engine{built.edges, n, clean};
    const auto expected = clean_engine.run(source);

    core::EngineOptions opts = clean;
    opts.faults.rank_kills = {level_kill(2, 2)};
    opts.recover.checkpoint_every = 1;
    core::Engine engine{built.edges, n, opts};
    const auto out = engine.run(source);
    EXPECT_EQ(out.parent, expected.parent) << core::to_string(algorithm);
    EXPECT_EQ(out.level, expected.level) << core::to_string(algorithm);
  }
}

TEST(RecoverChaos, TimeTriggeredKillRecovers) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions clean = base_options(core::Algorithm::kOneDFlat, 8);
  core::Engine clean_engine{built.edges, n, clean};
  const auto expected = clean_engine.run(source);
  ASSERT_GT(expected.report.total_seconds, 0.0);

  core::EngineOptions opts = clean;
  opts.faults.rank_kills = {
      time_kill(3, 0.4 * expected.report.total_seconds)};
  opts.recover.checkpoint_every = 1;
  core::Engine engine{built.edges, n, opts};
  const auto out = engine.run(source);
  EXPECT_EQ(out.parent, expected.parent);
  EXPECT_EQ(out.level, expected.level);
  EXPECT_EQ(out.report.recover.rank_failures, 1);
  // The makespan keeps running through the failure: detection and
  // restore are paid on the virtual clocks.
  EXPECT_GT(out.report.total_seconds, expected.report.total_seconds);
}

// Cadence 0 keeps only the implicit source snapshot: every recovery is
// a full replay from level 0, even when a second kill lands on the
// already-shrunken communicator mid-replay.
TEST(RecoverChaos, SourceOnlyReplaySurvivesDoubleKills) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions clean = base_options(core::Algorithm::kOneDFlat, 8);
  core::Engine clean_engine{built.edges, n, clean};
  const auto expected = clean_engine.run(source);

  core::EngineOptions opts = clean;
  opts.faults.rank_kills = {level_kill(2, 1), level_kill(1, 3)};
  opts.recover.checkpoint_every = 0;
  core::Engine engine{built.edges, n, opts};
  const auto out = engine.run(source);
  EXPECT_EQ(out.parent, expected.parent);
  EXPECT_EQ(out.level, expected.level);
  EXPECT_EQ(out.report.recover.rank_failures, 2);
  // Cadence 0 means no level-barrier snapshots — only the implicit
  // level-0 (source) snapshot every armed run takes.
  EXPECT_EQ(out.report.recover.checkpoints_taken, 1);
  // The second kill fires at level 3 after a replay from the source, so
  // at least levels 1..3 run more than once.
  EXPECT_GE(out.report.recover.replayed_levels, 3);
}

// Two ranks scheduled to die at the same level: the second failure is
// detected during the replay the first one triggered, so both restores
// come from the same snapshot — restore-after-restore must be
// idempotent.
TEST(RecoverChaos, RestoreAfterRestoreFromTheSameSnapshotIsIdempotent) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  const core::Algorithm algorithms[] = {core::Algorithm::kOneDFlat,
                                        core::Algorithm::kTwoDFlat};
  for (core::Algorithm algorithm : algorithms) {
    core::EngineOptions clean = base_options(algorithm, 16);
    core::Engine clean_engine{built.edges, n, clean};
    const auto expected = clean_engine.run(source);

    core::EngineOptions opts = clean;
    opts.faults.rank_kills = {level_kill(1, 2), level_kill(3, 2)};
    opts.recover.checkpoint_every = 1;
    core::Engine engine{built.edges, n, opts};
    const auto out = engine.run(source);
    EXPECT_EQ(out.parent, expected.parent) << core::to_string(algorithm);
    EXPECT_EQ(out.level, expected.level) << core::to_string(algorithm);
    EXPECT_EQ(out.report.recover.rank_failures, 2)
        << core::to_string(algorithm);
  }
}

// A kill early in the traversal re-partitions the survivors; the
// snapshots taken afterwards describe the *shrunken* layout, and a
// second kill must restore exactly from one of them (cadence 1 bounds
// the replay to one level per failure — a restore from the source would
// blow that bound).
TEST(RecoverChaos, PostShrinkSnapshotsRestoreExactly) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  const core::Algorithm algorithms[] = {core::Algorithm::kOneDFlat,
                                        core::Algorithm::kTwoDFlat};
  for (core::Algorithm algorithm : algorithms) {
    core::EngineOptions clean = base_options(algorithm, 16);
    core::Engine clean_engine{built.edges, n, clean};
    const auto expected = clean_engine.run(source);

    core::EngineOptions opts = clean;
    opts.faults.rank_kills = {level_kill(1, 1), level_kill(2, 3)};
    opts.recover.policy = recover::Policy::kShrink;
    opts.recover.checkpoint_every = 1;
    core::Engine engine{built.edges, n, opts};
    const auto out = engine.run(source);
    EXPECT_EQ(out.parent, expected.parent) << core::to_string(algorithm);
    EXPECT_EQ(out.level, expected.level) << core::to_string(algorithm);
    EXPECT_EQ(out.report.recover.rank_failures, 2)
        << core::to_string(algorithm);
    EXPECT_GE(out.report.recover.checkpoints_taken, 2)
        << core::to_string(algorithm);
    EXPECT_LE(out.report.recover.replayed_levels, 2)
        << core::to_string(algorithm);
  }
}

TEST(RecoverChaos, DoubleKillShrinksTwice) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions clean = base_options(core::Algorithm::kOneDFlat, 8);
  core::Engine clean_engine{built.edges, n, clean};
  const auto expected = clean_engine.run(source);

  core::EngineOptions opts = clean;
  opts.faults.rank_kills = {level_kill(2, 1), level_kill(1, 3)};
  opts.recover.checkpoint_every = 1;
  core::Engine engine{built.edges, n, opts};
  const auto out = engine.run(source);
  EXPECT_EQ(out.parent, expected.parent);
  EXPECT_EQ(out.level, expected.level);
  EXPECT_EQ(out.report.recover.rank_failures, 2);
  EXPECT_EQ(out.report.recover.ranks_lost, 2);
}

TEST(Recover, PayloadByteHelpersPriceRestores) {
  recover::Checkpoint ckpt;
  ckpt.level = {0, 1, kUnreached, 2};  // 3 visited vertices
  ckpt.frontier = {3};
  EXPECT_EQ(recover::restore_payload_bytes(ckpt),
            3u * (sizeof(vid_t) + sizeof(level_t)) + sizeof(vid_t));
  EXPECT_EQ(recover::shard_payload_bytes(10),
            10u * (sizeof(vid_t) + sizeof(level_t)));
  EXPECT_EQ(recover::restore_payload_bytes(recover::Checkpoint{}), 0u);
}

TEST(Recover, SpareExhaustionFailsLoudly) {
  const auto built = test::rmat_graph(8, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions opts = base_options(core::Algorithm::kOneDFlat, 8);
  opts.faults.rank_kills = {level_kill(1, 1), level_kill(2, 2)};
  opts.recover.policy = recover::Policy::kSpare;
  opts.recover.spare_ranks = 1;
  opts.recover.checkpoint_every = 1;
  core::Engine engine{built.edges, n, opts};
  EXPECT_THROW(engine.run(source), simmpi::RankFailedError);
}

TEST(Recover, RankFailedErrorNamesRankLevelAndSite) {
  const auto built = test::rmat_graph(8, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions opts = base_options(core::Algorithm::kOneDFlat, 8);
  opts.faults.rank_kills = {level_kill(3, 2)};
  opts.recover.policy = recover::Policy::kSpare;
  opts.recover.spare_ranks = 0;  // unrecoverable: the error must escape
  core::Engine engine{built.edges, n, opts};
  try {
    engine.run(source);
    FAIL() << "expected RankFailedError";
  } catch (const simmpi::RankFailedError& e) {
    EXPECT_EQ(e.rank(), 3);
    EXPECT_EQ(e.level(), 2);
    EXPECT_EQ(e.kind(), "rank-failure");
    EXPECT_FALSE(e.site().empty());
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 3"), std::string::npos) << what;
    EXPECT_NE(what.find("level 2"), std::string::npos) << what;
    EXPECT_NE(what.find(e.site()), std::string::npos) << what;
    EXPECT_GE(e.virtual_time(), 0.0);
  }
}

// The inertness guarantee: arming checkpoints without scheduling kills
// must leave the raw report JSON byte-identical (checkpoints are modeled
// as overlapped replication and never touch the clocks).
TEST(Recover, CheckpointingWithoutKillsIsByteIdentical) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  const core::Algorithm algorithms[] = {core::Algorithm::kOneDFlat,
                                        core::Algorithm::kTwoDFlat};
  for (core::Algorithm algorithm : algorithms) {
    core::EngineOptions plain = base_options(algorithm, 16);
    core::Engine plain_engine{built.edges, n, plain};
    const auto expected = plain_engine.run(source);

    core::EngineOptions armed = plain;
    armed.recover.checkpoint_every = 2;
    core::Engine armed_engine{built.edges, n, armed};
    const auto out = armed_engine.run(source);

    EXPECT_EQ(out.parent, expected.parent);
    EXPECT_EQ(out.level, expected.level);
    EXPECT_EQ(bfs::report_to_json(out.report, false),
              bfs::report_to_json(expected.report, false))
        << core::to_string(algorithm);
  }
}

TEST(Recover, ReportAndMetricsDescribeTheRecovery) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions opts = base_options(core::Algorithm::kTwoDFlat, 16);
  opts.faults.rank_kills = {level_kill(1, 2)};
  opts.recover.policy = recover::Policy::kShrink;
  opts.recover.checkpoint_every = 1;
  opts.metrics = true;
  core::Engine engine{built.edges, n, opts};
  const auto out = engine.run(source);

  const bfs::RecoverReport& r = out.report.recover;
  EXPECT_TRUE(r.enabled);
  EXPECT_EQ(r.policy, "shrink");
  EXPECT_EQ(r.checkpoint_every, 1);
  EXPECT_EQ(r.rank_failures, 1);
  EXPECT_GE(r.checkpoints_taken, 1);
  EXPECT_GT(r.checkpoint_bytes, 0u);
  EXPECT_GE(r.replayed_levels, 0);
  EXPECT_GT(r.recovery_seconds, 0.0);
  // A 4x4 grid folds to 3x3: one death retires the square remainder.
  EXPECT_EQ(r.ranks_lost, 7);
  EXPECT_EQ(r.spares_used, 0);

  ASSERT_NE(engine.metrics(), nullptr);
  EXPECT_EQ(engine.metrics()->counter("recover.rank_failures"), 1);
  EXPECT_EQ(engine.metrics()->counter("recover.shrinks"), 1);
  EXPECT_GE(engine.metrics()->counter("recover.checkpoints"), 1);

  const std::string json = bfs::report_to_json(out.report, false);
  EXPECT_NE(json.find("\"recover\":{\"policy\":\"shrink\""),
            std::string::npos)
      << json;
}

TEST(Recover, SparePromotionKeepsTheGrid) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions opts = base_options(core::Algorithm::kTwoDFlat, 16);
  opts.faults.rank_kills = {level_kill(5, 2)};
  opts.recover.policy = recover::Policy::kSpare;
  opts.recover.checkpoint_every = 1;
  core::Engine engine{built.edges, n, opts};
  const auto out = engine.run(source);
  EXPECT_EQ(out.report.recover.spares_used, 1);
  EXPECT_EQ(out.report.recover.ranks_lost, 0);
  EXPECT_EQ(engine.cores_used(), 16);
}

// ---- FaultPlan serialization (kill schedules ride the plan JSON) ------

TEST(RecoverFaultPlan, JsonRoundTripPreservesEveryField) {
  simmpi::FaultPlan plan;
  plan.seed = 42;
  plan.collective_fail_rate = 0.125;
  plan.max_collective_retries = 9;
  plan.backoff_base_seconds = 2e-4;
  plan.backoff_cap_seconds = 3e-3;
  plan.corrupt_rate = 0.0625;
  plan.corrupt_kind = simmpi::CorruptKind::kDrop;
  plan.max_payload_retries = 5;
  plan.compute_stragglers = {{0, 2.5}, {3, 1.75}};
  plan.nic_stragglers = {{1, 4.0}};
  plan.rank_kills = {level_kill(2, 3), time_kill(0, 0.875)};

  const simmpi::FaultPlan back =
      simmpi::fault_plan_from_json(simmpi::to_json(plan));
  EXPECT_EQ(back.seed, plan.seed);
  EXPECT_EQ(back.collective_fail_rate, plan.collective_fail_rate);
  EXPECT_EQ(back.max_collective_retries, plan.max_collective_retries);
  EXPECT_EQ(back.backoff_base_seconds, plan.backoff_base_seconds);
  EXPECT_EQ(back.backoff_cap_seconds, plan.backoff_cap_seconds);
  EXPECT_EQ(back.corrupt_rate, plan.corrupt_rate);
  EXPECT_EQ(back.corrupt_kind, plan.corrupt_kind);
  EXPECT_EQ(back.max_payload_retries, plan.max_payload_retries);
  EXPECT_EQ(back.compute_stragglers, plan.compute_stragglers);
  EXPECT_EQ(back.nic_stragglers, plan.nic_stragglers);
  ASSERT_EQ(back.rank_kills.size(), 2u);
  EXPECT_EQ(back.rank_kills[0].rank, 2);
  EXPECT_EQ(back.rank_kills[0].at_level, 3);
  EXPECT_EQ(back.rank_kills[0].at_time, -1.0);
  EXPECT_EQ(back.rank_kills[1].rank, 0);
  EXPECT_EQ(back.rank_kills[1].at_level, -1);
  EXPECT_EQ(back.rank_kills[1].at_time, 0.875);
  // Round-tripping again is byte-stable.
  EXPECT_EQ(simmpi::to_json(back), simmpi::to_json(plan));
}

TEST(RecoverFaultPlan, PreKillJsonLoadsInert) {
  // A plan written before the fail-stop class existed has no
  // "rank_kills" key; it must load with an empty kill schedule, and a
  // kill-free plan must not emit the key.
  const std::string old_json =
      "{\"seed\":7,\"collective_fail_rate\":0.25,"
      "\"max_collective_retries\":6,\"backoff_base_seconds\":0.0001,"
      "\"backoff_cap_seconds\":0.002,\"corrupt_rate\":0,"
      "\"corrupt_kind\":\"mix\",\"max_payload_retries\":3,"
      "\"compute_stragglers\":[],\"nic_stragglers\":[]}";
  const simmpi::FaultPlan plan = simmpi::fault_plan_from_json(old_json);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.collective_fail_rate, 0.25);
  EXPECT_TRUE(plan.rank_kills.empty());

  simmpi::FaultPlan no_kills;
  no_kills.seed = 3;
  EXPECT_EQ(simmpi::to_json(no_kills).find("rank_kills"),
            std::string::npos);
  EXPECT_FALSE(no_kills.enabled());
}

TEST(RecoverFaultPlan, KillSpecParsing) {
  const auto kills = simmpi::parse_kill_specs("2@level3,0@t0.05");
  ASSERT_EQ(kills.size(), 2u);
  EXPECT_EQ(kills[0].rank, 2);
  EXPECT_EQ(kills[0].at_level, 3);
  EXPECT_EQ(kills[1].rank, 0);
  EXPECT_EQ(kills[1].at_time, 0.05);

  EXPECT_THROW(simmpi::parse_kill_specs(""), std::invalid_argument);
  EXPECT_THROW(simmpi::parse_kill_specs("x@level1"), std::invalid_argument);
  EXPECT_THROW(simmpi::parse_kill_specs("1@"), std::invalid_argument);
  EXPECT_THROW(simmpi::parse_kill_specs("1@lvl3"), std::invalid_argument);
  EXPECT_THROW(simmpi::parse_kill_specs("1@level-2"),
               std::invalid_argument);
  EXPECT_THROW(simmpi::parse_kill_specs("1@t-0.5"), std::invalid_argument);
}

TEST(RecoverFaultPlan, KillsForAbsentRanksAreIgnored) {
  const auto built = test::rmat_graph(8, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions clean = base_options(core::Algorithm::kOneDFlat, 4);
  core::Engine clean_engine{built.edges, n, clean};
  const auto expected = clean_engine.run(source);

  // Rank 50 does not exist on 4 ranks; like the straggler lists, the
  // entry is ignored and the run completes kill-free.
  core::EngineOptions opts = clean;
  opts.faults.rank_kills = {level_kill(50, 1)};
  opts.recover.checkpoint_every = 1;
  core::Engine engine{built.edges, n, opts};
  const auto out = engine.run(source);
  EXPECT_EQ(out.parent, expected.parent);
  EXPECT_EQ(out.level, expected.level);
  EXPECT_EQ(out.report.recover.rank_failures, 0);
}

// Degenerate inputs through both repair paths. Every cell of {1D, 2D} x
// {1, 4 cores} x {each flip target} x {no kill, kill:0@level0 under
// shrink} must reproduce serial BFS — except killing the only rank,
// which has nothing to shrink to and must rethrow the RankFailedError
// itself (not fail while building an empty communicator).
TEST(RecoverChaos, DegenerateInputsRecoverOrRethrowTheKill) {
  struct Case {
    const char* name;
    graph::EdgeList edges;
  };
  std::vector<Case> cases;
  cases.push_back({"single-vertex", graph::EdgeList{1}});
  graph::EdgeList isolated{6};  // source 0 sits outside the path 1-..-5
  for (vid_t v = 1; v + 1 < 6; ++v) isolated.add(v, v + 1);
  isolated.symmetrize();
  cases.push_back({"isolated-source", isolated});
  graph::EdgeList loops{6};
  for (vid_t v = 0; v < 6; ++v) loops.add(v, v);
  cases.push_back({"self-loops-only", loops});

  const core::Algorithm algorithms[] = {core::Algorithm::kOneDFlat,
                                        core::Algorithm::kTwoDFlat};
  const simmpi::FlipTarget targets[] = {
      simmpi::FlipTarget::kParents, simmpi::FlipTarget::kLevels,
      simmpi::FlipTarget::kVisited, simmpi::FlipTarget::kDirop,
      simmpi::FlipTarget::kCheckpoint};
  const vid_t source = 0;
  for (const Case& c : cases) {
    const vid_t n = c.edges.num_vertices();
    const auto serial =
        bfs::serial_bfs(graph::CsrGraph::from_edges(c.edges), source);
    for (core::Algorithm algorithm : algorithms) {
      for (int cores : {1, 4}) {
        for (simmpi::FlipTarget target : targets) {
          for (bool kill : {false, true}) {
            core::EngineOptions opts = base_options(algorithm, cores);
            simmpi::MemFlip flip;
            flip.rank = 0;
            flip.at_level = 1;
            flip.target = target;
            opts.faults.mem_flips = {flip};
            if (kill) opts.faults.rank_kills = {level_kill(0, 0)};
            opts.recover.policy = recover::Policy::kShrink;
            opts.recover.checkpoint_every = 1;
            opts.recover.audit_every = 1;
            const std::string label =
                std::string(c.name) + "/" + core::to_string(algorithm) +
                "/cores=" + std::to_string(cores) + "/" +
                simmpi::to_string(target) + (kill ? "/kill" : "");
            core::Engine engine{c.edges, n, opts};
            if (kill && cores == 1) {
              EXPECT_THROW(engine.run(source), simmpi::RankFailedError)
                  << label;
              continue;
            }
            try {
              const auto out = engine.run(source);
              EXPECT_EQ(out.level, serial.level) << label;
            } catch (const std::exception& e) {
              ADD_FAILURE() << label << ": " << e.what();
            }
          }
        }
      }
    }
  }
}

TEST(RecoverFaultPlan, PolicyParsing) {
  EXPECT_EQ(recover::parse_policy("shrink"), recover::Policy::kShrink);
  EXPECT_EQ(recover::parse_policy("spare"), recover::Policy::kSpare);
  EXPECT_THROW(recover::parse_policy("clone"), std::invalid_argument);
  EXPECT_STREQ(recover::to_string(recover::Policy::kShrink), "shrink");
  EXPECT_STREQ(recover::to_string(recover::Policy::kSpare), "spare");
}

}  // namespace
}  // namespace dbfs
