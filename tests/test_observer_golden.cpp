// Golden run artifacts: five small Engine runs with every observer
// attached, whose dumps — the comm atlas JSON, the metrics JSON and
// OpenMetrics text, the flight recorder dump, the Chrome trace, the run
// report (per-rank arrays, embedded metrics and critical path), a BENCH
// record built from the run and the fault plan JSON — are pinned as an
// FNV-1a digest plus a byte length. The observers' record paths are tuned
// for host cost (sparse atlas buckets, resolved metric handles, a running
// virtual wall clock) and every artifact goes through one JSON writer;
// these pins hold every such rewrite to byte-identical output. The runs
// cover a 2D shrink recovery (the atlas grid changes mid-run), 1D with
// the auto wire codec, the 2D hybrid direction on 64 ranks, a spare
// promotion and an audited at-rest flip (the report's sdc block). A
// deliberate format change re-pins the table from the failure messages,
// which print each new row.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "bfs/report_json.hpp"
#include "core/engine.hpp"
#include "obs/bench_record.hpp"
#include "obs/comm_atlas.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simmpi/fault.hpp"
#include "test_helpers.hpp"

namespace dbfs {
namespace {

using test::Pin;
using test::pin_of;

constexpr int kArtifacts = 8;
constexpr const char* kArtifactNames[kArtifacts] = {
    "atlas", "metrics", "openmetrics", "flight",
    "trace", "report",  "bench",       "plan"};

/// The artifacts of one run, in kArtifactNames order.
struct GoldenRun {
  const char* name;
  Pin pins[kArtifacts];
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
  } else if (name == "2d-flip-audit") {
    opts.algorithm = core::Algorithm::kTwoDFlat;
    opts.cores = 16;
    opts.faults = simmpi::load_fault_plan("flip:1@level2:parents");
    opts.faults.compute_stragglers = {{3, 1.1}};
    opts.recover.checkpoint_every = 1;
    opts.recover.audit_every = 1;
  }
  return opts;
}

std::string row_of(const char* name, const Pin (&pins)[kArtifacts]) {
  std::string row = std::string("{\"") + name + "\",\n {";
  for (int k = 0; k < kArtifacts; ++k) {
    char cell[64];
    std::snprintf(cell, sizeof(cell), "%s{0x%016llxULL, %zu}",
                  k == 0 ? "" : ", ",
                  static_cast<unsigned long long>(pins[k].fnv),
                  pins[k].bytes);
    row += cell;
  }
  return row + "}},";
}

// The first five artifacts were captured from the build before the
// observer record paths were rewritten for host cost; the report, BENCH
// record and plan pins (and the 2d-flip-audit row) from the build before
// the writers moved onto util::JsonWriter.
constexpr GoldenRun kGolden[] = {
    {"2d-kill-shrink",
     {{0xb6ca943bceb90e88ULL, 1923}, {0xaee57472f5cbd95eULL, 2772},
      {0x176fc78a95ca2f95ULL, 5997}, {0x4e6db295fc0146a6ULL, 10424},
      {0x5775ca729f861a6aULL, 51164}, {0xf1aaaacc654ed75fULL, 7994},
      {0xd79821237f1eb4e2ULL, 4899}, {0x8846d42fdcbc0efaULL, 265}}},
    {"1d-auto",
     {{0xd324945f3fd58aeaULL, 1688}, {0x13105dce5b2d61f2ULL, 1193},
      {0x610004abec088290ULL, 2331}, {0x38902c00224b548bULL, 3304},
      {0x091863b5327d3cd2ULL, 45684}, {0x30ff8cb36df3d007ULL, 5187},
      {0x70bcf5603620280eULL, 3050}, {0x354eacfef0fe1878ULL, 226}}},
    {"2d-hybrid-auto-64",
     {{0x405cc43c59e1f558ULL, 10203}, {0xa0fd28e57da4beffULL, 2567},
      {0x68f6eaf66aa3a2bcULL, 6158}, {0x73fd7a5c89132db6ULL, 40935},
      {0x9cefd1a2746a9c3eULL, 416088}, {0xd26ed6da7ec89140ULL, 12099},
      {0x15399d453f00b066ULL, 10021}, {0x354eacfef0fe1878ULL, 226}}},
    {"2d-kill-spare",
     {{0xc295ea385483498dULL, 1892}, {0xaae4e839ac3eb360ULL, 2768},
      {0xf222a0b5616b51cdULL, 5917}, {0xe9ed7cc9f7749a46ULL, 11928},
      {0x9d8e4d9943d6e0e6ULL, 66470}, {0xcf1ab1c6409d4d97ULL, 8330},
      {0x8af7daebfffe4ba0ULL, 5226}, {0x8846d42fdcbc0efaULL, 265}}},
    {"2d-flip-audit",
     {{0x520bf8bdc3cae678ULL, 1970}, {0x5156a04687509bd1ULL, 2620},
      {0xe9081c2f59cfee76ULL, 5803}, {0xffc3cbee223d1d81ULL, 16072},
      {0x67c20fbbff18d996ULL, 111398}, {0x23ed47a6c3362d10ULL, 8204},
      {0xdf19c71315699fe7ULL, 5377}, {0xef995f966fb40167ULL, 305}}},
};

/// The run's BENCH record, built the way bench_suite builds one from a
/// single observed repetition.
std::string bench_record_of(const char* name, const core::Engine& engine,
                            const bfs::RunReport& report, eid_t edges) {
  const int ranks = report.ranks;
  obs::BenchRecordBuilder builder;
  obs::BenchRecord& record = builder.record();
  record.name = name;
  record.created_by = "test_observer_golden";
  record.config.generator = "rmat";
  record.config.scale = 10;
  record.config.algorithm = core::to_string(engine.options().algorithm);
  record.config.machine = engine.options().machine.name;
  record.config.wire_format = comm::to_string(engine.options().wire_format);
  record.config.cores = engine.cores_used();
  record.config.ranks = ranks;
  record.config.faults_enabled = engine.options().faults.enabled();
  const bfs::RunReport reports[] = {report};
  builder.add_repetition(1, reports, edges, 1, 0);
  builder.attach_profile(engine.tracer(), engine.metrics(), report, ranks);
  builder.attach_atlas(engine.comm_atlas());
  return obs::bench_record_to_json(builder.finish());
}

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
    } else if (name == "2d-flip-audit") {
      ASSERT_TRUE(out.report.sdc.enabled) << name;
      ASSERT_EQ(out.report.sdc.flips_injected, 1) << name;
    }

    std::ostringstream atlas, openmetrics, flight, trace;
    engine.comm_atlas()->write_json(atlas);
    engine.metrics()->write_openmetrics(openmetrics);
    engine.flight_recorder()->write_json(flight);
    engine.tracer()->write_chrome_json(trace);
    const obs::CriticalPathReport cp =
        obs::analyze_critical_path(*engine.tracer(), out.report.ranks);
    bfs::ReportJsonOptions jopts;
    jopts.include_per_rank = true;
    jopts.metrics = engine.metrics();
    jopts.critical_path = &cp;
    const Pin actual[kArtifacts] = {
        pin_of(atlas.str()),
        pin_of(engine.metrics()->to_json()),
        pin_of(openmetrics.str()),
        pin_of(flight.str()),
        pin_of(trace.str()),
        pin_of(bfs::report_to_json(out.report, jopts)),
        pin_of(bench_record_of(golden.name, engine, out.report,
                               built.directed_edge_count)),
        pin_of(simmpi::to_json(engine.options().faults))};
    for (int k = 0; k < kArtifacts; ++k) {
      EXPECT_EQ(actual[k].fnv, golden.pins[k].fnv)
          << name << " " << kArtifactNames[k] << "; this run's row:\n"
          << row_of(golden.name, actual);
      EXPECT_EQ(actual[k].bytes, golden.pins[k].bytes)
          << name << " " << kArtifactNames[k];
    }
  }
}

}  // namespace
}  // namespace dbfs
