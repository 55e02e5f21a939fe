// Silent-data-corruption resilience: at-rest memory flips (the MemFlip
// fault class), the ABFT state auditor (src/bfs/audit.*), and the
// self-verifying CheckpointStore. The contract under test mirrors the
// fail-stop one in test_recover.cpp but is strictly harder — nothing on
// the wire notices an at-rest flip, so detection must come from the
// audits or from checkpoint verification, and every detected corruption
// must roll back and converge to parents/levels bit-identical to a
// fault-free run. Plus the inertness guarantees (auditing off and no
// flip plan = byte-identical reports) and the FaultPlan serialization
// that carries corruption schedules.
#include <gtest/gtest.h>

#include <algorithm>
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

simmpi::MemFlip level_flip(int rank, int level, simmpi::FlipTarget target) {
  simmpi::MemFlip flip;
  flip.rank = rank;
  flip.at_level = level;
  flip.target = target;
  return flip;
}

// ---- flip-spec and plan serialization ---------------------------------

TEST(SdcFaultPlan, FlipSpecParsing) {
  const auto flips =
      simmpi::parse_flip_specs("2@level3:parents,0@level1:dirop");
  ASSERT_EQ(flips.size(), 2u);
  EXPECT_EQ(flips[0].rank, 2);
  EXPECT_EQ(flips[0].at_level, 3);
  EXPECT_EQ(flips[0].target, simmpi::FlipTarget::kParents);
  EXPECT_EQ(flips[1].rank, 0);
  EXPECT_EQ(flips[1].at_level, 1);
  EXPECT_EQ(flips[1].target, simmpi::FlipTarget::kDirop);

  EXPECT_THROW(simmpi::parse_flip_specs(""), std::invalid_argument);
  EXPECT_THROW(simmpi::parse_flip_specs("1@level2"), std::invalid_argument);
  EXPECT_THROW(simmpi::parse_flip_specs("1@level2:bogus"),
               std::invalid_argument);
  EXPECT_THROW(simmpi::parse_flip_specs("x@level2:parents"),
               std::invalid_argument);
  EXPECT_THROW(simmpi::parse_flip_specs("1@t0.5:parents"),
               std::invalid_argument);
  EXPECT_THROW(simmpi::parse_flip_specs("1@level-2:parents"),
               std::invalid_argument);
}

TEST(SdcFaultPlan, FlipTargetNamesRoundTrip) {
  const simmpi::FlipTarget targets[] = {
      simmpi::FlipTarget::kParents, simmpi::FlipTarget::kLevels,
      simmpi::FlipTarget::kVisited, simmpi::FlipTarget::kDirop,
      simmpi::FlipTarget::kCheckpoint};
  for (simmpi::FlipTarget t : targets) {
    EXPECT_EQ(simmpi::parse_flip_target(simmpi::to_string(t)), t);
  }
  EXPECT_THROW(simmpi::parse_flip_target("rowptr"), std::invalid_argument);
}

TEST(SdcFaultPlan, JsonRoundTripPreservesMemFlips) {
  simmpi::FaultPlan plan;
  plan.seed = 11;
  plan.mem_flips = {
      level_flip(2, 3, simmpi::FlipTarget::kLevels),
      level_flip(0, 1, simmpi::FlipTarget::kCheckpoint)};

  const simmpi::FaultPlan back =
      simmpi::fault_plan_from_json(simmpi::to_json(plan));
  ASSERT_EQ(back.mem_flips.size(), 2u);
  EXPECT_EQ(back.mem_flips[0].rank, 2);
  EXPECT_EQ(back.mem_flips[0].at_level, 3);
  EXPECT_EQ(back.mem_flips[0].target, simmpi::FlipTarget::kLevels);
  EXPECT_EQ(back.mem_flips[1].rank, 0);
  EXPECT_EQ(back.mem_flips[1].at_level, 1);
  EXPECT_EQ(back.mem_flips[1].target, simmpi::FlipTarget::kCheckpoint);
  EXPECT_EQ(simmpi::to_json(back), simmpi::to_json(plan));

  // A flip-only plan counts as enabled; a flip-free plan omits the key
  // so pre-SDC readers keep working.
  EXPECT_TRUE(plan.enabled());
  simmpi::FaultPlan no_flips;
  EXPECT_EQ(simmpi::to_json(no_flips).find("mem_flips"), std::string::npos);
}

TEST(SdcFaultPlan, FlipShapeIsKeyedByFlipIdentity) {
  simmpi::FaultPlan plan;
  plan.seed = 5;
  const auto a = level_flip(1, 2, simmpi::FlipTarget::kParents);
  const auto b = level_flip(1, 2, simmpi::FlipTarget::kLevels);
  // Same flip, same draw — replays after a recovery re-inject identical
  // damage. Different flips draw differently.
  EXPECT_EQ(plan.flip_shape(a), plan.flip_shape(a));
  EXPECT_NE(plan.flip_shape(a), plan.flip_shape(b));
}

TEST(SdcFaultPlan, UnknownPlanKeysWarnOnceToStderr) {
  // Unique key name: the warned set is process-wide, so reusing a key
  // from another test would swallow the first warning.
  const std::string json =
      "{\"seed\":1,\"sdc_test_future_knob\":true,"
      "\"mem_flips\":[{\"rank\":1,\"at_level\":2,\"target\":\"parents\"}]}";

  testing::internal::CaptureStderr();
  const simmpi::FaultPlan plan = simmpi::fault_plan_from_json(json);
  const std::string first = testing::internal::GetCapturedStderr();
  EXPECT_NE(first.find("sdc_test_future_knob"), std::string::npos) << first;
  EXPECT_NE(first.find("not understood"), std::string::npos) << first;
  // The understood keys parsed despite the stranger.
  ASSERT_EQ(plan.mem_flips.size(), 1u);
  EXPECT_EQ(plan.mem_flips[0].target, simmpi::FlipTarget::kParents);

  testing::internal::CaptureStderr();
  (void)simmpi::fault_plan_from_json(json);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(SdcFaultPlan, AuditFailedErrorCarriesStructuredFields) {
  const simmpi::AuditFailedError e("sdc-audit", "shard-checksum", 3, 2, 77,
                                   1.5);
  EXPECT_EQ(e.site(), "sdc-audit");
  EXPECT_EQ(e.kind(), "audit-failure");
  EXPECT_EQ(e.check(), "shard-checksum");
  EXPECT_EQ(e.rank(), 3);
  EXPECT_EQ(e.level(), 2);
  EXPECT_EQ(e.sample_vertex(), 77);
  EXPECT_EQ(e.virtual_time(), 1.5);
  const std::string what = e.what();
  EXPECT_NE(what.find("shard-checksum"), std::string::npos) << what;
}

// ---- self-verifying CheckpointStore -----------------------------------

// A consistent 4-vertex snapshot rooted at 0 (0 -> 1 at level 1).
recover::Checkpoint small_snapshot() {
  recover::Checkpoint ckpt;
  ckpt.levels_completed = 1;
  ckpt.global_frontier = 1;
  ckpt.parent = {0, 0, kNoVertex, kNoVertex};
  ckpt.level = {0, 1, kUnreached, kUnreached};
  ckpt.frontier = {1};
  return ckpt;
}

// The same traversal one barrier later (1 -> 2 at level 2).
recover::Checkpoint small_snapshot_next() {
  recover::Checkpoint ckpt = small_snapshot();
  ckpt.levels_completed = 2;
  ckpt.parent[2] = 1;
  ckpt.level[2] = 2;
  ckpt.frontier = {2};
  return ckpt;
}

TEST(SdcCheckpointStore, ChecksumCoversEveryField) {
  const recover::Checkpoint base = small_snapshot();
  const std::uint64_t digest = recover::checkpoint_checksum(base);
  EXPECT_EQ(recover::checkpoint_checksum(small_snapshot()), digest);

  recover::Checkpoint mutated = base;
  mutated.parent[1] = 2;
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
  mutated = base;
  mutated.level[1] = 2;
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
  mutated = base;
  mutated.frontier = {0};
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
  mutated = base;
  mutated.levels_completed = 2;
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
  mutated = base;
  mutated.global_frontier = 2;
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
  mutated = base;
  mutated.dirop_unexplored_edges = 9;
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
  mutated = base;
  mutated.dirop_bottom_up = true;
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
}

TEST(SdcCheckpointStore, DefectCatchesCorruptAtTakeSnapshots) {
  EXPECT_EQ(recover::checkpoint_defect(small_snapshot(), 0), nullptr);
  EXPECT_EQ(recover::checkpoint_defect(small_snapshot_next(), 0), nullptr);
  // The implicit replay-from-source snapshot is always clean.
  EXPECT_EQ(recover::checkpoint_defect(recover::Checkpoint{}, 0), nullptr);

  recover::Checkpoint bad = small_snapshot();
  bad.parent[0] = 1;  // the root must be its own parent
  EXPECT_STREQ(recover::checkpoint_defect(bad, 0), "source-parent");

  bad = small_snapshot();
  bad.level[1] = 3;  // breaks parent/level tree consistency
  EXPECT_NE(recover::checkpoint_defect(bad, 0), nullptr);

  bad = small_snapshot();
  bad.frontier = {2};  // frontier vertex is unvisited
  EXPECT_NE(recover::checkpoint_defect(bad, 0), nullptr);

  bad = small_snapshot();
  bad.global_frontier = 5;  // disagrees with the frontier list
  EXPECT_NE(recover::checkpoint_defect(bad, 0), nullptr);
}

TEST(SdcCheckpointStore, CorruptReplicasAreSkippedAndScrubbed) {
  recover::CheckpointStore store;
  recover::RecoverOptions options;
  options.checkpoint_every = 1;
  store.arm(options);
  store.take(small_snapshot());
  store.take(small_snapshot_next());
  ASSERT_EQ(store.stored(), 2u);
  EXPECT_EQ(store.latest().levels_completed, 2);
  EXPECT_EQ(store.newest_clean(0).levels_completed, 2);

  // An at-rest flip in the newest replica: rollback must skip past it to
  // the older clean snapshot, and the audit-time scrub must drop it.
  ASSERT_TRUE(store.corrupt_latest(0x9e3779b97f4a7c15ULL));
  EXPECT_EQ(store.newest_clean(0).levels_completed, 1);
  EXPECT_EQ(store.scrub(), 1);
  EXPECT_EQ(store.stored(), 1u);
  EXPECT_EQ(store.scrub(), 0);

  // Both replicas corrupt -> the implicit empty snapshot: recovery never
  // dead-ends, it replays from the source.
  ASSERT_TRUE(store.corrupt_latest(0x123456789abcdefULL));
  const recover::Checkpoint& fallback = store.newest_clean(0);
  EXPECT_EQ(fallback.levels_completed, 0);
  EXPECT_TRUE(fallback.parent.empty());
}

TEST(SdcCheckpointStore, RollbackToTruncatesHistory) {
  recover::CheckpointStore store;
  recover::RecoverOptions options;
  options.checkpoint_every = 1;
  store.arm(options);
  EXPECT_FALSE(store.corrupt_latest(1));  // nothing stored yet

  store.take(small_snapshot());
  store.take(small_snapshot_next());
  ASSERT_TRUE(store.corrupt_latest(0x5bd1e995ULL));
  const recover::Checkpoint& clean = store.newest_clean(0);
  store.rollback_to(clean);
  EXPECT_EQ(store.stored(), 1u);
  EXPECT_EQ(store.latest().levels_completed, 1);

  // No stored snapshot is rooted at vertex 2, so newest_clean falls back
  // to the implicit empty snapshot; rolling back to it clears the
  // history, and the store keeps working afterwards.
  const recover::Checkpoint& fallback = store.newest_clean(2);
  EXPECT_TRUE(fallback.parent.empty());
  store.rollback_to(fallback);
  EXPECT_EQ(store.stored(), 0u);
  store.take(small_snapshot());
  EXPECT_EQ(store.stored(), 1u);
}

// ---- the differential matrix ------------------------------------------

// Flips against live (parent, level) shards for every distributed
// algorithm x audit cadence must be detected, rolled back, and repaired
// to the exact fault-free answer.
TEST(SdcChaos, FlippedRunsMatchFaultFreeBitForBit) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  const auto reference = graph::reference_levels(built.csr, source);

  const core::Algorithm algorithms[] = {
      core::Algorithm::kOneDFlat, core::Algorithm::kOneDHybrid,
      core::Algorithm::kTwoDFlat, core::Algorithm::kTwoDHybrid};
  const simmpi::FlipTarget targets[] = {simmpi::FlipTarget::kParents,
                                        simmpi::FlipTarget::kLevels};
  for (core::Algorithm algorithm : algorithms) {
    core::EngineOptions clean = base_options(algorithm, 16);
    core::Engine clean_engine{built.edges, n, clean};
    const auto expected = clean_engine.run(source);

    for (simmpi::FlipTarget target : targets) {
      for (int cadence : {1, 2}) {
        core::EngineOptions opts = base_options(algorithm, 16);
        opts.faults.mem_flips = {level_flip(1, 2, target)};
        opts.recover.checkpoint_every = 1;
        opts.recover.audit_every = cadence;
        core::Engine engine{built.edges, n, opts};
        const auto out = engine.run(source);

        const std::string label = std::string(core::to_string(algorithm)) +
                                  "/" + simmpi::to_string(target) +
                                  "/audit=" + std::to_string(cadence);
        EXPECT_EQ(out.parent, expected.parent) << label;
        EXPECT_EQ(out.level, expected.level) << label;
        EXPECT_TRUE(out.report.sdc.enabled) << label;
        EXPECT_GE(out.report.sdc.flips_injected, 1) << label;
        EXPECT_GE(out.report.sdc.audit_failures, 1) << label;
        EXPECT_GE(out.report.sdc.rollbacks, 1) << label;
        const auto v = graph::validate_bfs_tree(built.csr, source,
                                                out.parent, reference);
        EXPECT_TRUE(v.ok) << label << ": " << v.error;
      }
    }
  }
}

// A spurious bit in the sender-side visited sieve would silently starve
// the victim vertex of its parent; the sieve's internal mark checksums
// must catch it even after the vertex becomes legitimately visited.
TEST(SdcChaos, VisitedFlipDetectedInWireMode) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions clean = base_options(core::Algorithm::kOneDFlat, 16);
  clean.wire_format = comm::WireFormat::kSieve;
  core::Engine clean_engine{built.edges, n, clean};
  const auto expected = clean_engine.run(source);

  for (int cadence : {1, 2}) {
    core::EngineOptions opts = clean;
    opts.faults.mem_flips = {
        level_flip(1, 2, simmpi::FlipTarget::kVisited)};
    opts.recover.checkpoint_every = 1;
    opts.recover.audit_every = cadence;
    core::Engine engine{built.edges, n, opts};
    const auto out = engine.run(source);
    EXPECT_EQ(out.parent, expected.parent) << "audit=" << cadence;
    EXPECT_EQ(out.level, expected.level) << "audit=" << cadence;
    EXPECT_GE(out.report.sdc.flips_injected, 1) << "audit=" << cadence;
    EXPECT_GE(out.report.sdc.rollbacks, 1) << "audit=" << cadence;
  }
}

// A flipped bit in the direction-optimization m_u scalar must be caught
// by the replica comparison before the heuristic diverges the replay.
TEST(SdcChaos, DiropFlipRepairedInHybrid2D) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions clean = base_options(core::Algorithm::kTwoDFlat, 16);
  clean.direction = bfs::DirectionMode::kHybrid;
  core::Engine clean_engine{built.edges, n, clean};
  const auto expected = clean_engine.run(source);

  core::EngineOptions opts = clean;
  opts.faults.mem_flips = {level_flip(1, 2, simmpi::FlipTarget::kDirop)};
  opts.recover.checkpoint_every = 1;
  opts.recover.audit_every = 1;
  core::Engine engine{built.edges, n, opts};
  const auto out = engine.run(source);
  EXPECT_EQ(out.parent, expected.parent);
  EXPECT_EQ(out.level, expected.level);
  EXPECT_GE(out.report.sdc.flips_injected, 1);
  EXPECT_GE(out.report.sdc.rollbacks, 1);
}

// A flip in a stored replica (not live state) must be rejected by the
// audit-time scrub and must never be restored from; the live traversal
// is unharmed, so no rollback fires.
TEST(SdcChaos, CorruptedCheckpointReplicaIsRejectedNotRestored) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions clean = base_options(core::Algorithm::kOneDFlat, 16);
  core::Engine clean_engine{built.edges, n, clean};
  const auto expected = clean_engine.run(source);

  core::EngineOptions opts = clean;
  opts.faults.mem_flips = {
      level_flip(1, 2, simmpi::FlipTarget::kCheckpoint)};
  opts.recover.checkpoint_every = 1;
  opts.recover.audit_every = 1;
  core::Engine engine{built.edges, n, opts};
  const auto out = engine.run(source);
  EXPECT_EQ(out.parent, expected.parent);
  EXPECT_EQ(out.level, expected.level);
  EXPECT_GE(out.report.sdc.flips_injected, 1);
  EXPECT_GE(out.report.sdc.checkpoints_rejected, 1);
  EXPECT_EQ(out.report.sdc.rollbacks, 0);
  EXPECT_EQ(out.report.sdc.audit_failures, 0);
}

// Fail-stop and silent corruption compose: a kill and a flip in the same
// run exercise recover_from and rollback_from back to back, and the
// answer must still be exact.
TEST(SdcChaos, KillAndFlipComposeToTheExactAnswer) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  const recover::Policy policies[] = {recover::Policy::kShrink,
                                      recover::Policy::kSpare};
  for (recover::Policy policy : policies) {
    core::EngineOptions clean = base_options(core::Algorithm::kOneDFlat, 16);
    core::Engine clean_engine{built.edges, n, clean};
    const auto expected = clean_engine.run(source);

    core::EngineOptions opts = clean;
    simmpi::RankKill kill;
    kill.rank = 2;
    kill.at_level = 2;
    opts.faults.rank_kills = {kill};
    opts.faults.mem_flips = {
        level_flip(1, 3, simmpi::FlipTarget::kParents)};
    opts.recover.policy = policy;
    opts.recover.checkpoint_every = 1;
    opts.recover.audit_every = 1;
    core::Engine engine{built.edges, n, opts};
    const auto out = engine.run(source);

    const std::string label = recover::to_string(policy);
    EXPECT_EQ(out.parent, expected.parent) << label;
    EXPECT_EQ(out.level, expected.level) << label;
    EXPECT_GE(out.report.recover.rank_failures, 1) << label;
    EXPECT_GE(out.report.sdc.flips_injected, 1) << label;
    EXPECT_GE(out.report.sdc.rollbacks, 1) << label;
  }
}

// Flips naming ranks the cluster does not have are ignored, like kills
// and straggler entries — the run completes flip-free and exact.
TEST(SdcChaos, FlipsForAbsentRanksAreIgnored) {
  const auto built = test::rmat_graph(8, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions clean = base_options(core::Algorithm::kOneDFlat, 4);
  core::Engine clean_engine{built.edges, n, clean};
  const auto expected = clean_engine.run(source);

  core::EngineOptions opts = clean;
  opts.faults.mem_flips = {
      level_flip(50, 1, simmpi::FlipTarget::kParents)};
  opts.recover.checkpoint_every = 1;
  core::Engine engine{built.edges, n, opts};
  const auto out = engine.run(source);
  EXPECT_EQ(out.parent, expected.parent);
  EXPECT_EQ(out.level, expected.level);
  EXPECT_EQ(out.report.sdc.flips_injected, 0);
  EXPECT_EQ(out.report.sdc.rollbacks, 0);
}

// A time-triggered kill swept across a flip-carrying run's whole
// makespan lands in every phase of it — level steps, audits, and the
// priced restore collectives of both repair paths. Wherever it fires,
// including inside an SDC rollback's "sdc-rollback" restore, the death
// must reach kill recovery and the run must end with the exact answer:
// no FaultError escapes.
TEST(SdcChaos, KillSweptAcrossRollbacksAlwaysRecovers) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  constexpr int kInstants = 128;

  const core::Algorithm algorithms[] = {core::Algorithm::kOneDFlat,
                                        core::Algorithm::kTwoDFlat};
  const recover::Policy policies[] = {recover::Policy::kShrink,
                                      recover::Policy::kSpare};
  for (core::Algorithm algorithm : algorithms) {
    core::EngineOptions clean = base_options(algorithm, 16);
    core::Engine clean_engine{built.edges, n, clean};
    const auto expected = clean_engine.run(source);

    core::EngineOptions flipped = clean;
    flipped.faults.mem_flips = {
        level_flip(1, 2, simmpi::FlipTarget::kParents)};
    flipped.recover.checkpoint_every = 1;
    flipped.recover.audit_every = 1;
    core::Engine flip_engine{built.edges, n, flipped};
    const double makespan = flip_engine.run(source).report.total_seconds;
    ASSERT_GT(makespan, 0.0);

    for (recover::Policy policy : policies) {
      const std::string label = std::string(core::to_string(algorithm)) +
                                "/" + recover::to_string(policy);
      std::vector<std::string> failures;
      for (int k = 0; k < kInstants; ++k) {
        core::EngineOptions opts = flipped;
        opts.recover.policy = policy;
        simmpi::RankKill kill;
        kill.rank = 3;
        kill.at_time = makespan * (k + 0.5) / kInstants;
        opts.faults.rank_kills = {kill};
        try {
          core::Engine engine{built.edges, n, opts};
          const auto out = engine.run(source);
          if (out.parent != expected.parent || out.level != expected.level) {
            failures.push_back(std::to_string(k) + ": wrong answer");
          }
        } catch (const simmpi::FaultError& e) {
          failures.push_back(std::to_string(k) + ": " + e.what());
        }
      }
      EXPECT_TRUE(failures.empty())
          << label << ": " << failures.size() << " of " << kInstants
          << " kill instants failed; first: " << failures.front();
    }
  }
}

// ---- inertness and observability --------------------------------------

// Auditing a clean run costs virtual time but must never change the
// answer; with auditing off and no flip plan the report JSON is
// byte-identical to a build without the subsystem.
TEST(Sdc, AuditOnlyRunsKeepTheAnswerAndPlainRunsStayByteIdentical) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  const core::Algorithm algorithms[] = {core::Algorithm::kOneDFlat,
                                        core::Algorithm::kTwoDFlat};
  for (core::Algorithm algorithm : algorithms) {
    core::EngineOptions plain = base_options(algorithm, 16);
    core::Engine plain_engine{built.edges, n, plain};
    const auto expected = plain_engine.run(source);
    const std::string plain_json =
        bfs::report_to_json(expected.report, false);
    EXPECT_EQ(plain_json.find("\"sdc\""), std::string::npos);

    // Two plain runs are byte-identical (determinism of the baseline the
    // inertness claim is made against).
    core::Engine plain_again{built.edges, n, plain};
    EXPECT_EQ(bfs::report_to_json(plain_again.run(source).report, false),
              plain_json)
        << core::to_string(algorithm);

    core::EngineOptions audited = plain;
    audited.recover.audit_every = 2;
    core::Engine audited_engine{built.edges, n, audited};
    const auto out = audited_engine.run(source);
    EXPECT_EQ(out.parent, expected.parent) << core::to_string(algorithm);
    EXPECT_EQ(out.level, expected.level) << core::to_string(algorithm);
    EXPECT_TRUE(out.report.sdc.enabled);
    EXPECT_EQ(out.report.sdc.audit_every, 2);
    EXPECT_GE(out.report.sdc.audits, 1);
    EXPECT_EQ(out.report.sdc.audit_failures, 0);
    EXPECT_EQ(out.report.sdc.rollbacks, 0);
    EXPECT_GT(out.report.sdc.audit_seconds, 0.0);
    // Audit-only arming must not make the run look recovery-armed.
    EXPECT_FALSE(out.report.recover.enabled);
    EXPECT_NE(bfs::report_to_json(out.report, false).find("\"sdc\":{"),
              std::string::npos);
  }
}

TEST(Sdc, ReportMetricsAndJsonDescribeTheRepair) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions opts = base_options(core::Algorithm::kTwoDFlat, 16);
  opts.faults.mem_flips = {level_flip(1, 2, simmpi::FlipTarget::kParents)};
  opts.recover.checkpoint_every = 1;
  opts.recover.audit_every = 1;
  opts.metrics = true;
  core::Engine engine{built.edges, n, opts};
  const auto out = engine.run(source);

  const bfs::SdcReport& s = out.report.sdc;
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.audit_every, 1);
  EXPECT_GE(s.audits, 2);
  EXPECT_GE(s.audit_failures, 1);
  EXPECT_EQ(s.flips_injected, 1);
  EXPECT_GE(s.rollbacks, 1);
  EXPECT_GE(s.replayed_levels, 1);
  EXPECT_GT(s.audit_seconds, 0.0);
  EXPECT_GT(s.rollback_seconds, 0.0);

  ASSERT_NE(engine.metrics(), nullptr);
  EXPECT_GE(engine.metrics()->counter("sdc.audits"), 2);
  EXPECT_GE(engine.metrics()->counter("sdc.audit_failures"), 1);
  EXPECT_EQ(engine.metrics()->counter("sdc.flips_injected"), 1);
  EXPECT_GE(engine.metrics()->counter("sdc.rollbacks"), 1);
  EXPECT_GE(engine.metrics()->counter("sdc.replayed_levels"), 1);

  const std::string json = bfs::report_to_json(out.report, false);
  EXPECT_NE(json.find("\"sdc\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"audits\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rollbacks\":"), std::string::npos) << json;
}

// ---- structured validation errors -------------------------------------

TEST(SdcValidator, StructuredFailureNamesInvariantAndVertex) {
  const auto built = test::rmat_graph(8, 8);
  const vid_t source = test::hub_source(built.csr);
  const auto serial = bfs::serial_bfs(built.csr, source);

  const auto ok = graph::validate_bfs_tree(built.csr, source, serial.parent);
  EXPECT_TRUE(ok.ok);
  EXPECT_TRUE(ok.failed_check.empty());
  EXPECT_EQ(ok.sample_vertex, -1);

  // Rewire one visited vertex straight to the source when no edge joins
  // them (re-rooting can never create a parent cycle): the tree-edge
  // check must name both the invariant and the offending vertex.
  const vid_t n = built.csr.num_vertices();
  std::vector<vid_t> tampered = serial.parent;
  vid_t victim = -1;
  for (vid_t v = 0; v < n; ++v) {
    if (v == source || tampered[v] == kNoVertex) continue;
    const auto nbrs = built.csr.neighbors(v);
    if (!std::binary_search(nbrs.begin(), nbrs.end(), source)) {
      tampered[v] = source;
      victim = v;
      break;
    }
  }
  ASSERT_GE(victim, 0) << "graph too dense to plant a missing tree edge";
  const auto bad = graph::validate_bfs_tree(built.csr, source, tampered);
  ASSERT_FALSE(bad.ok);
  EXPECT_EQ(bad.failed_check, "tree-edge-missing");
  EXPECT_EQ(bad.sample_vertex, victim);
  EXPECT_NE(bad.error.find("check 3"), std::string::npos) << bad.error;
}

}  // namespace
}  // namespace dbfs
