// The one passivity proof for the one observer pathway
// (obs/observers.hpp): every observer, alone and all together, attached
// through the handle, leaves the parents, levels and report JSON of a
// run byte-identical to the unobserved run — across both engines, both
// wire formats, 2D direction optimization, a survived rank kill and a
// rolled-back at-rest flip. The only report difference a tracer or
// metrics registry may cause is the per-level comm/comp breakdown flag.
// expect_passive() holds the whole table; each observer set is one test
// row, named in the suite of the observer it covers.
#include "obs/observers.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "bfs/bfs1d.hpp"
#include "bfs/bfs2d.hpp"
#include "bfs/report_json.hpp"
#include "core/engine.hpp"
#include "obs/comm_atlas.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_helpers.hpp"

namespace dbfs {
namespace {

struct EngineCase {
  const char* name;
  bool two_d;
  comm::WireFormat wire;
  bfs::DirectionMode direction;
};

struct FaultCase {
  const char* name;
  const char* plan;  ///< --fault-plan spelling; "" = no plan
  int audit_every;
  int checkpoint_every;
};

constexpr unsigned kTracer = 1u;
constexpr unsigned kMetrics = 2u;
constexpr unsigned kFlight = 4u;
constexpr unsigned kAtlas = 8u;
constexpr unsigned kAllFour = kTracer | kMetrics | kFlight | kAtlas;

/// Test-owned observers; `mask` bits pick tracer, metrics, flight, atlas.
struct OwnedObservers {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::FlightRecorder flight;
  obs::CommAtlas atlas;

  obs::Observers handle(unsigned mask) {
    return {mask & kTracer ? &tracer : nullptr,
            mask & kMetrics ? &metrics : nullptr,
            mask & kFlight ? &flight : nullptr,
            mask & kAtlas ? &atlas : nullptr};
  }
};

bfs::BfsOutput run_once(const graph::BuiltGraph& built, vid_t source,
                        const EngineCase& e, const FaultCase& f,
                        const obs::Observers& observers) {
  const simmpi::FaultPlan faults = *f.plan != '\0'
                                       ? simmpi::load_fault_plan(f.plan)
                                       : simmpi::FaultPlan{};
  recover::RecoverOptions recover;
  recover.policy = recover::Policy::kShrink;
  recover.audit_every = f.audit_every;
  recover.checkpoint_every = f.checkpoint_every;
  core::EngineOptions o;
  o.algorithm =
      e.two_d ? core::Algorithm::kTwoDFlat : core::Algorithm::kOneDFlat;
  o.cores = 16;
  o.wire_format = e.wire;
  o.direction = e.direction;
  o.faults = faults;
  o.recover = recover;
  if (e.two_d) return bfs::Bfs2D{built.csr, o, observers}.run(source);
  return bfs::Bfs1D{built.csr, o, observers}.run(source);
}

/// Runs every engine × fault plan once unobserved and once per observer
/// set in `masks`, and checks each observed run against the unobserved one.
void expect_passive(std::initializer_list<unsigned> masks) {
  const graph::BuiltGraph built = test::rmat_graph(10);
  const vid_t source = test::hub_source(built.csr);
  const EngineCase engines[] = {
      {"1d raw", false, comm::WireFormat::kRaw, bfs::DirectionMode::kTopDown},
      {"1d auto", false, comm::WireFormat::kAuto,
       bfs::DirectionMode::kTopDown},
      {"2d topdown raw", true, comm::WireFormat::kRaw,
       bfs::DirectionMode::kTopDown},
      {"2d hybrid auto", true, comm::WireFormat::kAuto,
       bfs::DirectionMode::kHybrid},
  };
  const FaultCase faults[] = {
      {"no faults", "", 0, 0},
      {"kill shrink", "kill:1@level2", 0, 1},
      {"flip rollback", "flip:1@level2:parents", 1, 1},
  };
  for (const EngineCase& e : engines) {
    for (const FaultCase& f : faults) {
      bfs::BfsOutput base = run_once(built, source, e, f, {});
      const std::string at = std::string(e.name) + ", " + f.name;
      if (std::string(f.name) == "kill shrink") {
        ASSERT_GE(base.report.recover.rank_failures, 1) << at;
      } else if (std::string(f.name) == "flip rollback") {
        ASSERT_GE(base.report.sdc.audit_failures, 1) << at;
      }
      // An unobserved report keeps the pre-observability schema.
      EXPECT_FALSE(base.report.has_level_breakdown) << at;
      const std::string base_json = bfs::report_to_json(base.report);
      EXPECT_EQ(base_json.find("\"comm_seconds\":"), std::string::npos);
      EXPECT_EQ(base_json.find("\"comp_seconds\":"), std::string::npos);

      for (unsigned mask : masks) {
        const std::string where = at + ", observer mask " +
                                  std::to_string(mask);
        OwnedObservers owned;
        const obs::Observers handle = owned.handle(mask);
        bfs::BfsOutput seen = run_once(built, source, e, f, handle);

        EXPECT_EQ(base.parent, seen.parent) << where;
        EXPECT_EQ(base.level, seen.level) << where;
        EXPECT_DOUBLE_EQ(base.report.total_seconds,
                         seen.report.total_seconds)
            << where;
        EXPECT_DOUBLE_EQ(base.report.comm_seconds_mean,
                         seen.report.comm_seconds_mean)
            << where;
        EXPECT_DOUBLE_EQ(base.report.comp_seconds_mean,
                         seen.report.comp_seconds_mean)
            << where;
        EXPECT_EQ(base.report.per_rank_comm, seen.report.per_rank_comm)
            << where;
        EXPECT_EQ(base.report.per_rank_comp, seen.report.per_rank_comp)
            << where;

        // The breakdown flag is the only report difference, set exactly
        // when a tracer or metrics registry is attached, and it gates the
        // extra per-level JSON keys.
        EXPECT_EQ(seen.report.has_level_breakdown, handle.observing())
            << where;
        const std::string seen_json = bfs::report_to_json(seen.report);
        for (const char* key : {"\"comm_seconds\":", "\"comp_seconds\":"}) {
          EXPECT_EQ(seen_json.find(key) != std::string::npos,
                    handle.observing())
              << where << ", " << key;
        }
        if (handle.observing()) {
          EXPECT_NE(seen_json.find("\"comp_seconds_max\":"),
                    std::string::npos)
              << where;
        }
        seen.report.has_level_breakdown = false;
        EXPECT_EQ(bfs::report_to_json(base.report),
                  bfs::report_to_json(seen.report))
            << where;
        EXPECT_EQ(bfs::report_to_json(base.report, true),
                  bfs::report_to_json(seen.report, true))
            << where;

        // Every attached observer recorded the run.
        if (handle.tracer != nullptr) {
          EXPECT_GT(owned.tracer.total_spans(), 0u) << where;
        }
        if (handle.metrics != nullptr) {
          EXPECT_GT(owned.metrics.histogram("comm.wait_seconds").count(), 0u)
              << where;
        }
        if (handle.flight != nullptr) {
          EXPECT_GT(owned.flight.recorded(), 0u) << where;
        }
        if (handle.atlas != nullptr) {
          EXPECT_GT(owned.atlas.summary().total_bytes, 0u) << where;
        }
      }
    }
  }
}

TEST(Trace, AttachingObserversDoesNotPerturbTheRun) {
  expect_passive({kTracer, kMetrics});
}

TEST(FlightRecorder, AttachingTheRecorderNeverPerturbsTheRun) {
  expect_passive({kFlight});
}

TEST(CommAtlasEngine, AttachingAtlasKeepsReportByteIdentical) {
  expect_passive({kAtlas});

  // Through core::Engine, EngineOptions::atlas is the only switch: off
  // leaves no atlas behind the getter, on attaches one that records
  // without changing the report.
  const graph::BuiltGraph built = test::rmat_graph(10);
  const vid_t source = test::hub_source(built.csr);
  for (core::Algorithm algo :
       {core::Algorithm::kOneDFlat, core::Algorithm::kTwoDFlat}) {
    core::EngineOptions plain;
    plain.algorithm = algo;
    plain.cores = 16;
    core::EngineOptions observed = plain;
    observed.atlas = true;
    core::Engine a{built.edges, built.csr.num_vertices(), plain};
    core::Engine b{built.edges, built.csr.num_vertices(), observed};
    EXPECT_EQ(bfs::report_to_json(a.run(source).report, true),
              bfs::report_to_json(b.run(source).report, true))
        << core::to_string(algo);
    EXPECT_EQ(a.comm_atlas(), nullptr);
    ASSERT_NE(b.comm_atlas(), nullptr);
    EXPECT_GT(b.comm_atlas()->summary().total_bytes, 0u);
  }
}

TEST(ObserverPassivity, AllFourObserversTogetherLeaveTheRunByteIdentical) {
  expect_passive({kAllFour});
}

}  // namespace
}  // namespace dbfs
