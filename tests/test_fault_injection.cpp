// Fault-injection subsystem tests: plans are deterministic per seed,
// stragglers and retries are priced into the virtual clocks, corrupted
// payloads are caught by the checked collectives, and recovered BFS runs
// still produce valid Graph500 trees.
#include "simmpi/fault.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

#include "core/engine.hpp"
#include "graph/validator.hpp"
#include "simmpi/comm.hpp"
#include "test_helpers.hpp"

namespace dbfs {
namespace {

using simmpi::Cluster;
using simmpi::CorruptKind;
using simmpi::FaultPlan;
using simmpi::FlatExchange;

std::vector<int> world(int ranks) {
  std::vector<int> w(static_cast<std::size_t>(ranks));
  std::iota(w.begin(), w.end(), 0);
  return w;
}

FlatExchange<int> ring_exchange(int ranks, int items_per_pair) {
  auto send = FlatExchange<int>::sized(static_cast<std::size_t>(ranks));
  for (int i = 0; i < ranks; ++i) {
    const int dst = (i + 1) % ranks;
    for (int k = 0; k < items_per_pair; ++k) {
      send.data[static_cast<std::size_t>(i)].push_back(i * 100 + k);
    }
    send.counts[static_cast<std::size_t>(i)][static_cast<std::size_t>(dst)] =
        items_per_pair;
  }
  return send;
}

TEST(FaultPlan, DrawsAreDeterministicPerSeed) {
  FaultPlan a;
  a.seed = 1234;
  a.collective_fail_rate = 0.4;
  a.corrupt_rate = 0.4;
  FaultPlan b = a;
  int differs_from_other_seed = 0;
  FaultPlan c = a;
  c.seed = 4321;
  for (std::uint64_t e = 0; e < 256; ++e) {
    EXPECT_EQ(a.collective_fails(e), b.collective_fails(e));
    EXPECT_EQ(a.corruption_at(e), b.corruption_at(e));
    EXPECT_EQ(a.shape_draw(e), b.shape_draw(e));
    if (a.collective_fails(e) != c.collective_fails(e)) {
      ++differs_from_other_seed;
    }
  }
  EXPECT_GT(differs_from_other_seed, 0);
}

TEST(FaultPlan, ZeroPlanIsInert) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_FALSE(plan.payload_faults());
  EXPECT_FALSE(plan.collective_fails(0));
  EXPECT_EQ(plan.corruption_at(0), CorruptKind::kNone);
  EXPECT_DOUBLE_EQ(plan.compute_factor(3), 1.0);
  EXPECT_DOUBLE_EQ(plan.nic_slowdown(3), 1.0);
}

TEST(FaultPlan, BackoffIsCappedExponential) {
  FaultPlan plan;
  plan.backoff_base_seconds = 1e-4;
  plan.backoff_cap_seconds = 5e-4;
  EXPECT_DOUBLE_EQ(plan.backoff_seconds(0), 1e-4);
  EXPECT_DOUBLE_EQ(plan.backoff_seconds(1), 2e-4);
  EXPECT_DOUBLE_EQ(plan.backoff_seconds(2), 4e-4);
  EXPECT_DOUBLE_EQ(plan.backoff_seconds(3), 5e-4);   // capped
  EXPECT_DOUBLE_EQ(plan.backoff_seconds(60), 5e-4);  // no overflow
}

// The CLIs' --fault-plan loader: "kill:" and "flip:" specs replace only
// their schedule on the base plan, a JSON file replaces the whole plan,
// and an unreadable file is an error naming the path.
TEST(FaultPlanSpec, LoadsKillFlipAndFileSpecsOntoABasePlan) {
  FaultPlan base;
  base.seed = 42;
  base.collective_fail_rate = 0.25;
  base.compute_stragglers = {{3, 2.0}};

  simmpi::RankKill by_level;
  by_level.rank = 2;
  by_level.at_level = 3;
  simmpi::RankKill by_time;
  by_time.rank = 0;
  by_time.at_time = 0.05;
  simmpi::MemFlip flip;
  flip.rank = 1;
  flip.at_level = 2;
  flip.target = simmpi::FlipTarget::kLevels;

  FaultPlan kills;
  kills.rank_kills = {by_level, by_time};
  FaultPlan flips;
  flips.mem_flips = {flip};
  FaultPlan kills_on_base = base;
  kills_on_base.rank_kills = kills.rank_kills;
  FaultPlan flips_on_base = base;
  flips_on_base.mem_flips = flips.mem_flips;

  FaultPlan file_plan;
  file_plan.seed = 7;
  file_plan.corrupt_rate = 0.5;
  file_plan.rank_kills = {by_level};
  file_plan.mem_flips = {flip};
  const std::string path =
      ::testing::TempDir() + "/distbfs_fault_plan_spec.json";
  std::ofstream(path) << simmpi::to_json(file_plan);

  struct Case {
    const char* name;
    std::string spec;
    FaultPlan base;
    FaultPlan want;
  };
  const Case cases[] = {
      {"kill spec", "kill:2@level3,0@t0.05", FaultPlan{}, kills},
      {"flip spec", "flip:1@level2:levels", FaultPlan{}, flips},
      {"json file", path, FaultPlan{}, file_plan},
      {"kill keeps the base", "kill:2@level3,0@t0.05", base, kills_on_base},
      {"flip keeps the base", "flip:1@level2:levels", base, flips_on_base},
      {"json file replaces the base", path, base, file_plan},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(simmpi::to_json(simmpi::load_fault_plan(c.spec, c.base)),
              simmpi::to_json(c.want))
        << c.name;
  }

  const std::string missing =
      ::testing::TempDir() + "/distbfs_no_such_fault_plan.json";
  std::remove(missing.c_str());
  try {
    (void)simmpi::load_fault_plan(missing, base);
    ADD_FAILURE() << "a missing plan file must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)simmpi::load_fault_plan("kill:zz"), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Cluster, ComputeStragglerScalesCharges) {
  Cluster c{4, model::generic()};
  FaultPlan plan;
  plan.compute_stragglers = {{2, 3.0}};
  c.set_fault_plan(plan);
  for (int r = 0; r < 4; ++r) c.charge_compute(r, 1.0);
  EXPECT_DOUBLE_EQ(c.clocks().compute_time(0), 1.0);
  EXPECT_DOUBLE_EQ(c.clocks().compute_time(2), 3.0);
}

TEST(Cluster, RejectsNonPositiveStragglerFactors) {
  Cluster c{4, model::generic()};
  FaultPlan plan;
  plan.compute_stragglers = {{1, 0.0}};
  EXPECT_THROW(c.set_fault_plan(plan), std::invalid_argument);
}

TEST(Cluster, OutOfClusterStragglersAreIgnored) {
  Cluster c{4, model::generic()};
  FaultPlan plan;
  plan.compute_stragglers = {{99, 5.0}};
  c.set_fault_plan(plan);
  c.charge_compute(0, 1.0);
  EXPECT_DOUBLE_EQ(c.clocks().compute_time(0), 1.0);
}

TEST(FaultedCollectives, DegradedNicScalesTransferCost) {
  Cluster clean{4, model::generic()};
  Cluster degraded{4, model::generic()};
  FaultPlan plan;
  plan.nic_stragglers = {{1, 2.5}};
  degraded.set_fault_plan(plan);

  const auto w = world(4);
  (void)simmpi::alltoallv(clean, w, ring_exchange(4, 64));
  (void)simmpi::alltoallv(degraded, w, ring_exchange(4, 64));
  EXPECT_DOUBLE_EQ(degraded.clocks().max_now(),
                   2.5 * clean.clocks().max_now());
}

TEST(FaultedCollectives, RetriesArePricedIntoCommunicationTime) {
  Cluster clean{4, model::generic()};
  Cluster flaky{4, model::generic()};
  FaultPlan plan;
  plan.seed = 99;
  plan.collective_fail_rate = 0.5;
  flaky.set_fault_plan(plan);

  const auto w = world(4);
  for (int i = 0; i < 16; ++i) {
    (void)simmpi::alltoallv(clean, w, ring_exchange(4, 16));
    (void)simmpi::alltoallv(flaky, w, ring_exchange(4, 16));
  }
  const auto& counters = flaky.fault_counters();
  ASSERT_GT(counters.collective_failures, 0);
  EXPECT_EQ(counters.collective_retries, counters.collective_failures);
  // Every failed issue re-pays the transfer and waits out the backoff,
  // and all of it lands on the clocks as communication time.
  const double extra = flaky.clocks().comm_time(0) - clean.clocks().comm_time(0);
  EXPECT_NEAR(extra, counters.reissue_seconds + counters.backoff_seconds,
              1e-12);
  // The wasted attempts are also metered in the traffic seconds.
  EXPECT_GT(flaky.traffic().totals(simmpi::Pattern::kAlltoallv).seconds,
            clean.traffic().totals(simmpi::Pattern::kAlltoallv).seconds);
}

TEST(FaultedCollectives, ExhaustedRetriesRaiseStructuredError) {
  Cluster c{4, model::generic()};
  FaultPlan plan;
  plan.seed = 5;
  plan.collective_fail_rate = 1.0;  // every issue fails
  plan.max_collective_retries = 3;
  c.set_fault_plan(plan);
  try {
    (void)simmpi::alltoallv(c, world(4), ring_exchange(4, 4));
    FAIL() << "expected FaultError";
  } catch (const simmpi::FaultError& e) {
    EXPECT_EQ(e.site(), "alltoallv");
    EXPECT_EQ(e.kind(), "collective-failure");
    EXPECT_EQ(e.attempts(), 4);
  }
}

TEST(CheckedAlltoallv, DetectsCorruptionAndRepairs) {
  // Scan seeds for a case where the first issue is corrupted but a retry
  // gets through — then the caller must see exactly the intact payload.
  bool exercised = false;
  for (std::uint64_t seed = 1; seed <= 32 && !exercised; ++seed) {
    Cluster c{4, model::generic()};
    FaultPlan plan;
    plan.seed = seed;
    plan.corrupt_rate = 0.7;
    c.set_fault_plan(plan);
    auto expected = ring_exchange(4, 8);
    Cluster clean{4, model::generic()};
    const auto intact =
        simmpi::alltoallv(clean, world(4), FlatExchange<int>(expected));
    try {
      const auto recv = simmpi::checked_alltoallv(
          c, world(4), std::move(expected), "test-exchange");
      const auto& counters = c.fault_counters();
      EXPECT_EQ(recv.data, intact.data);
      if (counters.payload_corruptions > 0) {
        EXPECT_GT(counters.payload_retries, 0);
        EXPECT_GT(counters.checksum_checks, 1);
        exercised = true;
      }
    } catch (const simmpi::FaultError&) {
      // unlucky seed: every retry corrupted — also a correct outcome
    }
  }
  EXPECT_TRUE(exercised) << "no seed produced a detected-and-repaired run";
}

TEST(CheckedAlltoallv, UnrecoverableCorruptionRaisesFaultError) {
  Cluster c{4, model::generic()};
  FaultPlan plan;
  plan.seed = 3;
  plan.corrupt_rate = 1.0;  // every issue corrupts
  plan.max_payload_retries = 2;
  c.set_fault_plan(plan);
  try {
    (void)simmpi::checked_alltoallv(c, world(4), ring_exchange(4, 8),
                                    "test-exchange");
    FAIL() << "expected FaultError";
  } catch (const simmpi::FaultError& e) {
    EXPECT_EQ(e.site(), "test-exchange");
    EXPECT_EQ(e.kind(), "payload-corruption");
    EXPECT_EQ(e.attempts(), 3);
  }
}

TEST(PayloadChecksum, FlagsEveryCorruptionKind) {
  const std::vector<std::int64_t> base{10, 20, 30, 40};
  const std::uint64_t sum = simmpi::payload_checksum(base);

  auto flipped = base;
  flipped[1] ^= 1;  // bit flip
  EXPECT_NE(simmpi::payload_checksum(flipped), sum);

  auto dropped = base;
  dropped.pop_back();  // drop
  EXPECT_NE(simmpi::payload_checksum(dropped), sum);

  auto duplicated = base;
  duplicated.push_back(base[0]);  // duplicate
  EXPECT_NE(simmpi::payload_checksum(duplicated), sum);

  // ...but re-partitioning the same multiset leaves the sum unchanged.
  auto reordered = base;
  std::swap(reordered[0], reordered[3]);
  EXPECT_EQ(simmpi::payload_checksum(reordered), sum);
}

TEST(EngineFaults, FixedSeedRunsAreIdentical) {
  const auto built = test::rmat_graph(9);
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kTwoDFlat;
  opts.cores = 16;
  opts.faults.seed = 77;
  opts.faults.collective_fail_rate = 0.2;
  opts.faults.corrupt_rate = 0.2;
  opts.faults.compute_stragglers = {{1, 2.0}};
  opts.faults.nic_stragglers = {{2, 1.5}};

  core::Engine a{built.edges, built.csr.num_vertices(), opts};
  core::Engine b{built.edges, built.csr.num_vertices(), opts};
  const auto ra = a.run(source);
  const auto rb = b.run(source);

  EXPECT_EQ(ra.parent, rb.parent);
  EXPECT_EQ(ra.report.total_seconds, rb.report.total_seconds);
  EXPECT_EQ(ra.report.faults.collective_failures,
            rb.report.faults.collective_failures);
  EXPECT_EQ(ra.report.faults.payload_corruptions,
            rb.report.faults.payload_corruptions);
  EXPECT_EQ(ra.report.faults.payload_retries,
            rb.report.faults.payload_retries);
  EXPECT_EQ(ra.report.faults.backoff_seconds,
            rb.report.faults.backoff_seconds);
}

TEST(EngineFaults, RecoveredRunsStillProduceValidTrees) {
  const auto built = test::rmat_graph(9);
  const vid_t source = test::hub_source(built.csr);
  const auto reference = graph::reference_levels(built.csr, source);

  int recovered = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (core::Algorithm algorithm :
         {core::Algorithm::kOneDFlat, core::Algorithm::kTwoDFlat}) {
      core::EngineOptions opts;
      opts.algorithm = algorithm;
      opts.cores = 16;
      opts.faults.seed = seed;
      opts.faults.collective_fail_rate = 0.1;
      opts.faults.corrupt_rate = 0.3;
      core::Engine engine{built.edges, built.csr.num_vertices(), opts};
      try {
        const auto out = engine.run(source);
        const auto v = graph::validate_bfs_tree(built.csr, source,
                                                out.parent, reference);
        EXPECT_TRUE(v.ok) << core::to_string(algorithm)
                          << " seed=" << seed << ": " << v.error;
        if (out.report.faults.payload_retries > 0) ++recovered;
      } catch (const simmpi::FaultError&) {
        // loud abort is acceptable; silent corruption is not
      }
    }
  }
  EXPECT_GT(recovered, 0) << "no run actually exercised payload repair";
}

TEST(EngineFaults, StragglerSlowsTheWholeRun) {
  const auto built = test::rmat_graph(9);
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kOneDFlat;
  opts.cores = 16;
  core::Engine clean{built.edges, built.csr.num_vertices(), opts};
  opts.faults.compute_stragglers = {{3, 8.0}};
  core::Engine straggling{built.edges, built.csr.num_vertices(), opts};

  const auto rc = clean.run(source);
  const auto rs = straggling.run(source);
  EXPECT_EQ(rc.parent, rs.parent);  // faults perturb time, never answers
  EXPECT_GT(rs.report.total_seconds, rc.report.total_seconds);
  // The straggler's delay shows up as the *other* ranks' waiting time.
  EXPECT_GT(rs.report.comm_seconds_mean, rc.report.comm_seconds_mean);
}

TEST(EngineFaults, ZeroPlanMatchesUnfaultedRunExactly) {
  const auto built = test::rmat_graph(9);
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kTwoDFlat;
  opts.cores = 16;
  core::Engine plain{built.edges, built.csr.num_vertices(), opts};
  opts.faults = simmpi::FaultPlan{};  // explicit zero plan
  opts.faults.seed = 123456;          // a bare seed enables nothing
  core::Engine zeroed{built.edges, built.csr.num_vertices(), opts};

  const auto ra = plain.run(source);
  const auto rb = zeroed.run(source);
  EXPECT_EQ(ra.parent, rb.parent);
  EXPECT_EQ(ra.report.total_seconds, rb.report.total_seconds);
  EXPECT_EQ(ra.report.alltoall_bytes, rb.report.alltoall_bytes);
  EXPECT_FALSE(rb.report.faults.enabled);
  EXPECT_EQ(rb.report.faults.payload_corruptions, 0);
}

}  // namespace
}  // namespace dbfs
