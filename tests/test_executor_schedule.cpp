// Host-thread schedule independence of the rank executor
// (simmpi::Cluster::for_each_rank): phases run on however many OpenMP
// threads the host gives them, while clock charges, collectives and
// observer calls stay on the calling thread in program order. Nothing a
// run reports may therefore depend on the thread count. Every
// distributed engine × wire format × 2D direction × fault plan, at 16
// and 64 cores on a scale-10 graph, must give the parents, levels and
// report JSON of its one-thread run on 2, 3 and 4 threads too; the 1D
// auto rows and the auto rows with the hybrid direction must also give
// byte-identical observer artifacts. Without OpenMP only the one-thread
// run exists.
#include <gtest/gtest.h>

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

namespace dbfs {
namespace {

struct Outcome {
  std::string report;  ///< report JSON with per-rank arrays, or the error
  std::vector<vid_t> parent;
  std::vector<level_t> level;
  std::string artifacts;  ///< observer dumps; empty when unobserved
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

TEST(ExecutorSchedule, ReportsMatchAtEveryHostThreadCount) {
  const graph::BuiltGraph built = test::rmat_graph(10);
  const vid_t source = test::hub_source(built.csr);
  using A = core::Algorithm;
  using W = comm::WireFormat;
  using D = bfs::DirectionMode;
  const PlanCase plans[] = {
      {"no plan", "", 0, 0, 0.0},
      {"kill shrink", "kill:2@level2", 1, 0, 0.0},
      {"flip audit", "flip:1@level2:parents", 1, 1, 0.0},
      {"corrupt 0.2", "", 0, 0, 0.2},
  };
  for (const int cores : {16, 64}) {
    for (const A algo :
         {A::kOneDFlat, A::kOneDHybrid, A::kTwoDFlat, A::kTwoDHybrid}) {
      const bool two_d = algo == A::kTwoDFlat || algo == A::kTwoDHybrid;
      for (const W wire :
           {W::kRaw, W::kSieve, W::kBitmap, W::kVarint, W::kAuto}) {
        for (const D direction : {D::kTopDown, D::kHybrid}) {
          if (!two_d && direction != D::kTopDown) continue;
          for (const PlanCase& plan : plans) {
            core::EngineOptions opts;
            opts.algorithm = algo;
            opts.cores = cores;
            opts.wire_format = wire;
            opts.direction = direction;
            if (*plan.spec != '\0') {
              opts.faults = simmpi::load_fault_plan(plan.spec);
            }
            opts.faults.corrupt_rate = plan.corrupt_rate;
            opts.recover.policy = recover::Policy::kShrink;
            opts.recover.checkpoint_every = plan.checkpoint_every;
            opts.recover.audit_every = plan.audit_every;
            opts.trace = opts.metrics = opts.atlas =
                wire == W::kAuto && (!two_d || direction == D::kHybrid);
            const std::string at =
                std::string(core::to_string(algo)) + " " +
                comm::to_string(wire) + " " + bfs::to_string(direction) +
                " " + plan.name + " @" + std::to_string(cores) + " cores";

            Outcome one;
            {
              const test::HostThreads threads(1);
              one = run_case(built, source, opts);
            }
            for (int t = 2; t <= test::kMaxHostThreads; ++t) {
              const test::HostThreads threads(t);
              const Outcome many = run_case(built, source, opts);
              const std::string with = at + ", " + std::to_string(t) +
                                       " threads: ";
              EXPECT_TRUE(many.report == one.report) << with << "report";
              EXPECT_TRUE(many.parent == one.parent) << with << "parents";
              EXPECT_TRUE(many.level == one.level) << with << "levels";
              EXPECT_TRUE(many.artifacts == one.artifacts)
                  << with << "observer artifacts";
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dbfs
