// The always-on flight recorder (src/obs/flight_recorder.*): ring
// semantics, the JSON dump and the engine hooks that feed it. The
// contract that lets it stay on by default — attaching it changes
// nothing about a run's observable output — is in test_observers.cpp.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bfs/bfs1d.hpp"
#include "bfs/report_json.hpp"
#include "core/engine.hpp"
#include "obs/flight_recorder.hpp"
#include "simmpi/fault.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"

namespace dbfs {
namespace {

TEST(FlightRecorder, RingOverwritesOldestAndKeepsOrder) {
  obs::FlightRecorder rec(4);
  for (int i = 0; i < 6; ++i) {
    rec.append("level", "test", static_cast<double>(i), -1, i);
  }
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.recorded(), 6u);
  EXPECT_EQ(rec.dropped(), 2u);
  EXPECT_EQ(rec.size(), 4u);

  const auto events = rec.chronological();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Oldest surviving event is #2; order is preserved across the wrap.
    EXPECT_DOUBLE_EQ(events[i].t, static_cast<double>(i + 2));
  }

  rec.clear();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_TRUE(rec.chronological().empty());
}

TEST(FlightRecorder, PayloadSlotsCapAtFour) {
  obs::FlightRecorder rec(2);
  auto& ev = rec.append("wire", "test", 1.0, 0, 0)
                 .set("a", 1)
                 .set("b", 2)
                 .set("c", 3)
                 .set("d", 4)
                 .set("e", 5);  // silently dropped
  EXPECT_STREQ(ev.key[3], "d");
  std::ostringstream out;
  rec.write_json(out);
  EXPECT_NE(out.str().find("\"d\":4"), std::string::npos);
  EXPECT_EQ(out.str().find("\"e\""), std::string::npos);
}

TEST(FlightRecorder, JsonDumpParsesWithExpectedShape) {
  obs::FlightRecorder rec(8);
  rec.append("collective", "1d-exchange", 0.5, -1, 2)
      .set("cost_seconds", 1e-4)
      .set("bytes", 4096);
  std::ostringstream out;
  rec.write_json(out);

  const auto root = util::parse_json(out.str());
  const auto& flight = root.at("flight");
  EXPECT_EQ(flight.at("capacity").as_int(), 8);
  EXPECT_EQ(flight.at("recorded").as_int(), 1);
  EXPECT_EQ(flight.at("dropped").as_int(), 0);
  const auto& events = flight.at("events");
  ASSERT_EQ(events.items.size(), 1u);
  const auto& e = events.items.front();
  EXPECT_EQ(e.at("kind").as_string(), "collective");
  EXPECT_EQ(e.at("site").as_string(), "1d-exchange");
  EXPECT_EQ(e.at("rank").as_int(), -1);
  EXPECT_EQ(e.at("level").as_int(), 2);
  EXPECT_DOUBLE_EQ(e.at("payload").at("bytes").as_number(), 4096.0);
}

TEST(FlightRecorder, EngineRecordsCollectivesWireAndLevels) {
  const auto built = test::rmat_graph(9, 8);
  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kOneDFlat;
  opts.cores = 16;
  opts.machine = model::generic();
  opts.wire_format = comm::WireFormat::kAuto;
  core::Engine engine{built.edges, built.csr.num_vertices(), opts};
  ASSERT_NE(engine.flight_recorder(), nullptr);

  (void)engine.run(test::hub_source(built.csr));
  const auto events = engine.flight_recorder()->chronological();
  ASSERT_FALSE(events.empty());

  bool saw_collective = false, saw_wire = false, saw_level = false;
  double last_t = 0.0;
  for (const auto& e : events) {
    saw_collective = saw_collective || std::string(e.kind) == "collective";
    saw_wire = saw_wire || std::string(e.kind) == "wire";
    saw_level = saw_level || std::string(e.kind) == "level";
    EXPECT_GE(e.t, last_t) << "timestamps must be non-decreasing";
    last_t = e.t;
  }
  EXPECT_TRUE(saw_collective);
  EXPECT_TRUE(saw_wire);
  EXPECT_TRUE(saw_level);
}

TEST(FlightRecorder, HostAlgorithmsHaveNoRecorder) {
  const auto built = test::rmat_graph(8, 8);
  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kSerial;
  core::Engine engine{built.edges, built.csr.num_vertices(), opts};
  EXPECT_EQ(engine.flight_recorder(), nullptr);
}

// Black-box-on-crash: an unrecovered rank kill must leave the fault
// event (and the history leading up to it) in the ring after the throw.
TEST(FlightRecorder, HoldsFaultEventAfterRankFailedError) {
  const auto built = test::rmat_graph(9, 8);
  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kOneDFlat;
  opts.cores = 16;
  opts.machine = model::generic();
  simmpi::RankKill kill;
  kill.rank = 1;
  kill.at_level = 2;
  opts.faults.rank_kills = {kill};
  opts.recover.policy = recover::Policy::kSpare;
  opts.recover.spare_ranks = 0;  // unrecoverable: the error must escape
  core::Engine engine{built.edges, built.csr.num_vertices(), opts};

  EXPECT_THROW((void)engine.run(test::hub_source(built.csr)),
               simmpi::RankFailedError);

  const auto events = engine.flight_recorder()->chronological();
  ASSERT_FALSE(events.empty());
  const auto& last = events.back();
  EXPECT_STREQ(last.kind, "fault");
  EXPECT_EQ(last.rank, 1);
  bool saw_history = false;
  for (const auto& e : events) {
    saw_history = saw_history || std::string(e.kind) == "level";
  }
  EXPECT_TRUE(saw_history) << "the dump should show what led to the crash";
}

// Recovery leaves its trail: a survived kill records fault, recover, and
// checkpoint events in one chronological story.
TEST(FlightRecorder, RecordsCheckpointAndRecoverTransitions) {
  const auto built = test::rmat_graph(9, 8);
  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kOneDFlat;
  opts.cores = 16;
  opts.machine = model::generic();
  simmpi::RankKill kill;
  kill.rank = 1;
  kill.at_level = 2;
  opts.faults.rank_kills = {kill};
  opts.recover.policy = recover::Policy::kSpare;
  opts.recover.checkpoint_every = 1;
  core::Engine engine{built.edges, built.csr.num_vertices(), opts};
  (void)engine.run(test::hub_source(built.csr));

  bool saw_fault = false, saw_recover = false, saw_checkpoint = false;
  for (const auto& e : engine.flight_recorder()->chronological()) {
    saw_fault = saw_fault || std::string(e.kind) == "fault";
    saw_recover = saw_recover || std::string(e.kind) == "recover";
    saw_checkpoint = saw_checkpoint || std::string(e.kind) == "checkpoint";
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_recover);
  EXPECT_TRUE(saw_checkpoint);
}

}  // namespace
}  // namespace dbfs
