// Host-thread schedule independence of the rank executor
// (simmpi::Cluster::for_each_rank): phases run on however many OpenMP
// threads the host gives them, or on the calling thread when they are
// small (util::for_each_slot), while clock charges, collectives and
// observer calls stay on the calling thread in program order. Nothing a
// run reports may therefore depend on the thread count. Every
// distributed engine × wire format × 2D direction × fault plan, at 16
// and 64 cores on a scale-10 graph, must give the parents, levels and
// report JSON of its one-thread run on 2, 3 and 4 threads too; every 2D
// row and the 1D auto rows must also give byte-identical observer
// artifacts. A second set runs the 2D fold past the inline threshold, on
// a scale-12 graph at 256 ranks, where its world phases run on the host
// threads. Without OpenMP only the one-thread run exists.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bfs/report_json.hpp"
#include "core/engine.hpp"
#include "obs/comm_atlas.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simmpi/fault.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace dbfs {
namespace {

struct Outcome {
  std::string report;  ///< report JSON with per-rank arrays, or the error
  std::vector<vid_t> parent;
  std::vector<level_t> level;
  std::string artifacts;  ///< observer dumps; empty when unobserved
  vid_t widest = 0;       ///< most vertices any level newly reached
};

Outcome run_case(const graph::BuiltGraph& built, vid_t source,
                 const core::EngineOptions& opts) {
  core::Engine engine{built.edges, built.csr.num_vertices(), opts};
  Outcome o;
  try {
    bfs::BfsOutput out = engine.run(source);
    o.report = bfs::report_to_json(out.report, true);
    o.parent = std::move(out.parent);
    o.level = std::move(out.level);
    for (const bfs::LevelStats& l : out.report.levels) {
      o.widest = std::max(o.widest, l.newly_visited);
    }
  } catch (const std::exception& e) {
    o.report = std::string("threw: ") + e.what();
  }
  if (opts.trace) {
    std::ostringstream atlas, flight, trace;
    engine.comm_atlas()->write_json(atlas);
    engine.flight_recorder()->write_json(flight);
    engine.tracer()->write_chrome_json(trace);
    o.artifacts = atlas.str() + engine.metrics()->to_json() + flight.str() +
                  trace.str();
  }
  return o;
}

struct PlanCase {
  const char* name;
  const char* spec;  ///< --fault-plan spelling; "" = none
  int checkpoint_every;
  int audit_every;
  double corrupt_rate;
};

constexpr PlanCase kPlans[] = {
    {"no plan", "", 0, 0, 0.0},
    {"kill shrink", "kill:2@level2", 1, 0, 0.0},
    {"flip audit", "flip:1@level2:parents", 1, 1, 0.0},
    {"corrupt 0.2", "", 0, 0, 0.2},
};

core::EngineOptions options(core::Algorithm algo, int cores,
                            comm::WireFormat wire,
                            bfs::DirectionMode direction,
                            const PlanCase& plan, bool observed) {
  core::EngineOptions opts;
  opts.algorithm = algo;
  opts.cores = cores;
  opts.wire_format = wire;
  opts.direction = direction;
  if (*plan.spec != '\0') opts.faults = simmpi::load_fault_plan(plan.spec);
  opts.faults.corrupt_rate = plan.corrupt_rate;
  opts.recover.policy = recover::Policy::kShrink;
  opts.recover.checkpoint_every = plan.checkpoint_every;
  opts.recover.audit_every = plan.audit_every;
  opts.trace = opts.metrics = opts.atlas = observed;
  return opts;
}

/// Run `opts` on 1 host thread, then on 2 .. kMaxHostThreads, and expect
/// the same outcome each time. Returns the one-thread outcome.
Outcome expect_same_at_every_thread_count(const graph::BuiltGraph& built,
                                          vid_t source,
                                          const core::EngineOptions& opts) {
  const std::string at = std::string(core::to_string(opts.algorithm)) +
                         " " + comm::to_string(opts.wire_format) + " " +
                         bfs::to_string(opts.direction) + " @" +
                         std::to_string(opts.cores) + " cores";
  Outcome one;
  {
    const test::HostThreads threads(1);
    one = run_case(built, source, opts);
  }
  for (int t = 2; t <= test::kMaxHostThreads; ++t) {
    const test::HostThreads threads(t);
    const Outcome many = run_case(built, source, opts);
    const std::string with = at + ", " + std::to_string(t) + " threads: ";
    EXPECT_TRUE(many.report == one.report) << with << "report";
    EXPECT_TRUE(many.parent == one.parent) << with << "parents";
    EXPECT_TRUE(many.level == one.level) << with << "levels";
    EXPECT_TRUE(many.artifacts == one.artifacts)
        << with << "observer artifacts";
  }
  return one;
}

TEST(ExecutorSchedule, ReportsMatchAtEveryHostThreadCount) {
  const graph::BuiltGraph built = test::rmat_graph(10);
  const vid_t source = test::hub_source(built.csr);
  using A = core::Algorithm;
  using W = comm::WireFormat;
  using D = bfs::DirectionMode;
  for (const int cores : {16, 64}) {
    for (const A algo :
         {A::kOneDFlat, A::kOneDHybrid, A::kTwoDFlat, A::kTwoDHybrid}) {
      const bool two_d = algo == A::kTwoDFlat || algo == A::kTwoDHybrid;
      for (const W wire :
           {W::kRaw, W::kSieve, W::kBitmap, W::kVarint, W::kAuto}) {
        for (const D direction : {D::kTopDown, D::kHybrid}) {
          if (!two_d && direction != D::kTopDown) continue;
          for (const PlanCase& plan : kPlans) {
            SCOPED_TRACE(plan.name);
            expect_same_at_every_thread_count(
                built, source,
                options(algo, cores, wire, direction, plan,
                        two_d || wire == W::kAuto));
          }
        }
      }
    }
  }
}

TEST(ExecutorSchedule, WideFoldsMatchAtEveryHostThreadCount) {
  // The widest levels' candidates alone pass util::kInlineWork, so their
  // fold phases run on the host threads; the narrow levels of the same
  // searches stay on the calling thread.
  const graph::BuiltGraph built = test::rmat_graph(12);
  const vid_t source = test::hub_source(built.csr);
  using W = comm::WireFormat;
  using D = bfs::DirectionMode;
  const std::pair<W, D> rows[] = {{W::kRaw, D::kTopDown},
                                  {W::kAuto, D::kHybrid}};
  // At 256 ranks a 0.2 corrupt rate exhausts the retry budget in the
  // first level; 0.05 repairs every corruption and reaches the wide ones.
  const PlanCase plans[] = {kPlans[0], kPlans[1], kPlans[2],
                            {"corrupt 0.05", "", 0, 0, 0.05}};
  for (const auto& [wire, direction] : rows) {
    for (const PlanCase& plan : plans) {
      SCOPED_TRACE(plan.name);
      const Outcome one = expect_same_at_every_thread_count(
          built, source,
          options(core::Algorithm::kTwoDFlat, 256, wire, direction, plan,
                  true));
      // Each newly reached vertex arrived as at least one candidate.
      EXPECT_GE(static_cast<std::size_t>(one.widest), util::kInlineWork)
          << comm::to_string(wire) << " " << bfs::to_string(direction);
    }
  }
}

}  // namespace
}  // namespace dbfs
