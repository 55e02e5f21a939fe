// Golden observer artifacts: four small Engine runs with every observer
// attached, whose dumps — the comm atlas JSON, the metrics JSON and
// OpenMetrics text, the flight recorder dump and the Chrome trace — are
// pinned as an FNV-1a digest plus a byte length. The observers' record
// paths are tuned for host cost (sparse atlas buckets, resolved metric
// handles, a running virtual wall clock); these pins hold every such
// rewrite to byte-identical output. The runs cover a 2D shrink recovery
// (the atlas grid changes mid-run), 1D with the auto wire codec, the 2D
// hybrid direction on 64 ranks and a spare promotion. A deliberate format
// change re-pins the table from the failure messages, which print each
// new row.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/engine.hpp"
#include "obs/comm_atlas.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simmpi/fault.hpp"
#include "test_helpers.hpp"

namespace dbfs {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

struct Pin {
  std::uint64_t fnv;
  std::size_t bytes;
};

/// The five artifacts of one run, in a fixed order.
struct GoldenRun {
  const char* name;
  Pin atlas;
  Pin metrics;
  Pin openmetrics;
  Pin flight;
  Pin trace;
};

core::EngineOptions options_for(const std::string& name) {
  core::EngineOptions opts;
  opts.trace = true;
  opts.metrics = true;
  opts.atlas = true;
  if (name == "2d-kill-shrink" || name == "2d-kill-spare") {
    opts.algorithm = core::Algorithm::kTwoDFlat;
    opts.cores = 16;
    opts.faults = simmpi::load_fault_plan("kill:2@level2");
    opts.recover.checkpoint_every = 1;
    opts.recover.policy = name == "2d-kill-shrink" ? recover::Policy::kShrink
                                                   : recover::Policy::kSpare;
  } else if (name == "1d-auto") {
    opts.algorithm = core::Algorithm::kOneDFlat;
    opts.cores = 16;
    opts.wire_format = comm::WireFormat::kAuto;
  } else if (name == "2d-hybrid-auto-64") {
    opts.algorithm = core::Algorithm::kTwoDFlat;
    opts.cores = 64;
    opts.direction = bfs::DirectionMode::kHybrid;
    opts.wire_format = comm::WireFormat::kAuto;
  }
  return opts;
}

Pin pin_of(const std::string& text) { return {fnv1a(text), text.size()}; }

std::string row_of(const char* name, const Pin (&pins)[5]) {
  std::string row = std::string("{\"") + name + "\"";
  for (const Pin& p : pins) {
    char cell[64];
    std::snprintf(cell, sizeof(cell), ", {0x%016llxULL, %zu}",
                  static_cast<unsigned long long>(p.fnv), p.bytes);
    row += cell;
  }
  return row + "},";
}

// Captured from the build before the observer record paths were
// rewritten for host cost.
constexpr GoldenRun kGolden[] = {
    {"2d-kill-shrink", {0xb6ca943bceb90e88ULL, 1923},
     {0xaee57472f5cbd95eULL, 2772}, {0x176fc78a95ca2f95ULL, 5997},
     {0x4e6db295fc0146a6ULL, 10424}, {0x5775ca729f861a6aULL, 51164}},
    {"1d-auto", {0xd324945f3fd58aeaULL, 1688}, {0x13105dce5b2d61f2ULL, 1193},
     {0x610004abec088290ULL, 2331}, {0x38902c00224b548bULL, 3304},
     {0x091863b5327d3cd2ULL, 45684}},
    {"2d-hybrid-auto-64", {0x405cc43c59e1f558ULL, 10203},
     {0xa0fd28e57da4beffULL, 2567}, {0x68f6eaf66aa3a2bcULL, 6158},
     {0x73fd7a5c89132db6ULL, 40935}, {0x9cefd1a2746a9c3eULL, 416088}},
    {"2d-kill-spare", {0xc295ea385483498dULL, 1892},
     {0xaae4e839ac3eb360ULL, 2768}, {0xf222a0b5616b51cdULL, 5917},
     {0xe9ed7cc9f7749a46ULL, 11928}, {0x9d8e4d9943d6e0e6ULL, 66470}},
};

TEST(ObserverGolden, ArtifactsMatchPinnedDigests) {
  const graph::BuiltGraph built = test::rmat_graph(10);
  const vid_t source = test::hub_source(built.csr);
  for (const GoldenRun& golden : kGolden) {
    core::Engine engine{built.edges, built.csr.num_vertices(),
                        options_for(golden.name)};
    const bfs::BfsOutput out = engine.run(source);
    const std::string name = golden.name;
    if (name == "2d-kill-shrink") {
      ASSERT_EQ(out.report.recover.rank_failures, 1) << name;
      ASSERT_LT(engine.comm_atlas()->grid_rows() *
                    engine.comm_atlas()->grid_cols(),
                16)
          << name << ": the shrink must re-fold the atlas grid";
    } else if (name == "2d-kill-spare") {
      ASSERT_EQ(out.report.recover.spares_used, 1) << name;
    } else if (name == "2d-hybrid-auto-64") {
      ASSERT_GT(out.report.dirop.bottom_up_levels, 0) << name;
    }

    std::ostringstream atlas, openmetrics, flight, trace;
    engine.comm_atlas()->write_json(atlas);
    engine.metrics()->write_openmetrics(openmetrics);
    engine.flight_recorder()->write_json(flight);
    engine.tracer()->write_chrome_json(trace);
    const Pin actual[5] = {pin_of(atlas.str()),
                           pin_of(engine.metrics()->to_json()),
                           pin_of(openmetrics.str()), pin_of(flight.str()),
                           pin_of(trace.str())};
    const Pin expected[5] = {golden.atlas, golden.metrics,
                             golden.openmetrics, golden.flight,
                             golden.trace};
    const char* artifact[5] = {"atlas", "metrics", "openmetrics", "flight",
                               "trace"};
    for (int k = 0; k < 5; ++k) {
      EXPECT_EQ(actual[k].fnv, expected[k].fnv)
          << name << " " << artifact[k] << "; this run's row:\n"
          << row_of(golden.name, actual);
      EXPECT_EQ(actual[k].bytes, expected[k].bytes)
          << name << " " << artifact[k];
    }
  }
}

}  // namespace
}  // namespace dbfs
