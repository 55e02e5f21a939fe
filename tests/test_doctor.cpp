// Golden scenarios for the regression-attribution doctor (src/obs/
// doctor.cpp): seed a known cause into a candidate run, diagnose it
// against a clean baseline, and demand the seeded cause is ranked first.
// The records come from real Engine runs through BenchRecordBuilder —
// the same pipeline bench_suite uses — so these tests pin the whole
// chain: hooks -> metrics/trace -> record -> classifier.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "obs/bench_record.hpp"
#include "obs/doctor.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"

namespace dbfs {
namespace {

const graph::BuiltGraph& shared_graph() {
  static const graph::BuiltGraph built = test::rmat_graph(10, 8);
  return built;
}

/// One Engine run -> BenchRecord, the way bench_suite builds them but
/// with a single source and repetition so any fault fires in the
/// profiled run itself (kills are consumed by the first search, and the
/// observers are cleared per run).
obs::BenchRecord make_record(const std::string& name,
                             core::EngineOptions opts) {
  const graph::BuiltGraph& built = shared_graph();
  opts.trace = true;
  opts.metrics = true;
  core::Engine engine{built.edges, built.csr.num_vertices(), opts};
  const vid_t source = test::hub_source(built.csr);
  const auto out = engine.run(source);

  const int threads = engine.options().threads_per_rank;
  const int ranks = engine.cores_used() / (threads > 0 ? threads : 1);
  obs::BenchRecordBuilder builder;
  obs::BenchRecord& record = builder.record();
  record.name = name;
  record.created_by = "test_doctor";
  record.config.generator = "rmat";
  record.config.scale = 10;
  record.config.edge_factor = 8;
  record.config.graph_seed = 1;
  record.config.algorithm = core::to_string(opts.algorithm);
  record.config.machine = opts.machine.name;
  record.config.wire_format = comm::to_string(opts.wire_format);
  record.config.cores = engine.cores_used();
  record.config.ranks = ranks;
  record.config.threads_per_rank = threads;
  record.config.sources = 1;
  record.config.repetitions = 1;
  record.config.source_seed = 1;
  record.config.faults_enabled = opts.faults.enabled();
  const std::vector<bfs::RunReport> reports = {out.report};
  builder.add_repetition(1, reports, built.directed_edge_count, 1, 0);
  builder.attach_profile(engine.tracer(), engine.metrics(), out.report,
                         ranks);
  return builder.finish();
}

core::EngineOptions clean_options() {
  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kOneDFlat;
  opts.cores = 16;
  opts.machine = model::generic();
  return opts;
}

/// write_doctor_json's exact bytes for a seeded scenario, pinned as an
/// FNV-1a digest plus length (captured before the writer moved onto
/// util::JsonWriter). A failure prints the new pin.
void expect_json_pin(const obs::DoctorReport& report, test::Pin expected) {
  std::ostringstream out;
  obs::write_doctor_json(out, report);
  const test::Pin actual = test::pin_of(out.str());
  char pin[64];
  std::snprintf(pin, sizeof(pin), "{0x%016llxULL, %zu}",
                static_cast<unsigned long long>(actual.fnv), actual.bytes);
  EXPECT_EQ(actual.fnv, expected.fnv) << "this scenario's pin: " << pin;
  EXPECT_EQ(actual.bytes, expected.bytes) << "this scenario's pin: " << pin;
}

std::string causes_of(const obs::DoctorReport& report) {
  std::string out;
  for (const auto& f : report.findings) {
    out += f.cause + "(" + std::to_string(f.confidence) + ") ";
  }
  return out;
}

// Seeded beta_net drift (pure machine-model bandwidth slowdown, the
// bench_smoke slow-beta scenario): transfer grows uniformly while
// compute and balance stay flat. 4x rather than 2x because the tiny
// scale-10 exchanges are latency(alpha)-dominated — 2x beta only moves
// transfer ~1.17x here, under the classifier's 1.2x threshold (the
// scale-14 smoke run trips it at 2x).
TEST(Doctor, AttributesBetaDriftToNetworkBetaDrift) {
  const auto baseline = make_record("golden", clean_options());
  core::EngineOptions slowed = clean_options();
  slowed.machine.beta_net *= 4.0;  // same machine *name*: a drift, not a
                                   // config change
  const auto candidate = make_record("golden", slowed);

  const auto report = obs::diagnose(baseline, candidate);
  EXPECT_EQ(report.top_cause(), "network-beta-drift") << causes_of(report);
  EXPECT_LT(report.teps_ratio, 1.0);
  // The blame lands on transfer rows, not compute.
  ASSERT_FALSE(report.contributions.empty());
  EXPECT_NE(report.contributions.front().phase, "compute");
  expect_json_pin(report, {0x81474960c138bc93ULL, 2532});
}

// Seeded compute straggler on rank 1: the diagnosis must name the rank.
TEST(Doctor, AttributesStragglerToTheSeededRank) {
  const auto baseline = make_record("golden", clean_options());
  core::EngineOptions straggling = clean_options();
  straggling.faults.compute_stragglers = {{1, 8.0}};
  const auto candidate = make_record("golden", straggling);

  const auto report = obs::diagnose(baseline, candidate);
  EXPECT_EQ(report.top_cause(), "straggler-rank") << causes_of(report);
  EXPECT_NE(report.findings.front().detail.find("rank 1"), std::string::npos)
      << report.findings.front().detail;
  expect_json_pin(report, {0xd929f2e047111085ULL, 3108});
}

// Explicit wire-format switch (raw -> auto): the config change itself is
// the diagnosis, and it must outrank any secondary byte/time signatures.
TEST(Doctor, AttributesWireFormatSwitchToConfig) {
  const auto baseline = make_record("golden", clean_options());
  core::EngineOptions switched = clean_options();
  switched.wire_format = comm::WireFormat::kAuto;
  const auto candidate = make_record("golden", switched);

  const auto report = obs::diagnose(baseline, candidate);
  EXPECT_EQ(report.top_cause(), "wire-format-change") << causes_of(report);
  ASSERT_EQ(report.config_drift.size(), 1u);
  EXPECT_EQ(report.config_drift.front(), "wire_format");
  expect_json_pin(report, {0x7a50135781cc8245ULL, 2629});
}

// Seeded mid-run kill survived via spare + every-level checkpoints: the
// recovery overhead classifier must win, and a fault experiment against
// a clean baseline must NOT be dismissed as config drift.
TEST(Doctor, AttributesSurvivedKillToRecoveryOverhead) {
  const auto baseline = make_record("golden", clean_options());
  core::EngineOptions killed = clean_options();
  simmpi::RankKill kill;
  kill.rank = 1;
  kill.at_level = 2;
  killed.faults.rank_kills = {kill};
  killed.recover.policy = recover::Policy::kSpare;
  killed.recover.checkpoint_every = 1;
  const auto candidate = make_record("golden", killed);
  ASSERT_GT(candidate.counters.count("recover.rank_failures"), 0u)
      << "the kill must fire in the profiled run";

  const auto report = obs::diagnose(baseline, candidate);
  EXPECT_EQ(report.top_cause(), "checkpoint-recovery-overhead")
      << causes_of(report);
  EXPECT_TRUE(report.config_drift.empty());
  expect_json_pin(report, {0x5cd7e3bd89b84531ULL, 2834});
}

// Identical records: nothing to attribute, and the doctor says so
// instead of inventing a cause.
TEST(Doctor, IdenticalRecordsAreUnattributed) {
  const auto record = make_record("golden", clean_options());
  const auto report = obs::diagnose(record, record);
  EXPECT_EQ(report.top_cause(), "unattributed") << causes_of(report);
  EXPECT_DOUBLE_EQ(report.teps_ratio, 1.0);
  expect_json_pin(report, {0x7079b413d5096825ULL, 2167});
}

// Synthetic classifier coverage for signatures that are awkward to seed
// through a real run: codec fallback and frontier-shape change.
obs::BenchRecord synthetic_record() {
  obs::BenchRecord r;
  r.name = "synthetic";
  r.config.algorithm = "1d";
  r.config.machine = "generic";
  r.config.wire_format = "auto";
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
  r.counters["wire.bytes_before"] = 1000000;
  r.counters["wire.bytes_after"] = 300000;
  r.counters["wire.blocks.bitmap"] = 90;
  r.counters["wire.blocks.varint"] = 0;
  r.counters["wire.blocks.items"] = 10;
  return r;
}

TEST(Doctor, DetectsCodecRawFallback) {
  const auto baseline = synthetic_record();
  auto candidate = synthetic_record();
  // Same "auto" policy, but the blocks stopped compressing.
  candidate.counters["wire.bytes_after"] = 950000;
  candidate.counters["wire.blocks.bitmap"] = 5;
  candidate.counters["wire.blocks.items"] = 95;
  candidate.harmonic_mean_teps = 8e7;

  const auto report = obs::diagnose(baseline, candidate);
  EXPECT_EQ(report.top_cause(), "codec-raw-fallback") << causes_of(report);
  expect_json_pin(report, {0xf3d5e02b072f2270ULL, 2081});
}

TEST(Doctor, DetectsFrontierShapeChange) {
  const auto baseline = synthetic_record();
  auto candidate = synthetic_record();
  obs::BenchLevelSplit extra;
  extra.level = 4;
  extra.compute_mean = 0.1;
  candidate.levels.push_back(extra);

  const auto report = obs::diagnose(baseline, candidate);
  bool found = false;
  for (const auto& f : report.findings) {
    found = found || f.cause == "frontier-shape-change";
  }
  EXPECT_TRUE(found) << causes_of(report);
  expect_json_pin(report, {0x5f51cea0934706a3ULL, 2141});
}

// Contribution rows: shares sum to 1 and per-site rows replace (not
// duplicate) the aggregate transfer row when the split exists.
TEST(Doctor, ContributionSharesSumToOne) {
  const auto baseline = synthetic_record();
  auto candidate = synthetic_record();
  for (auto& l : candidate.levels) {
    l.transfer_mean *= 2.0;
    l.sites["1d-exchange"] = l.transfer_mean;
  }
  const auto report = obs::diagnose(baseline, candidate);
  double total = 0.0;
  for (const auto& c : report.contributions) {
    EXPECT_TRUE(c.phase != "transfer" || c.level < 0)
        << "aggregate transfer row should be replaced by the site split";
    total += c.share;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  expect_json_pin(report, {0x08ee0699fce2e5ebULL, 2101});
}

// The machine JSON parses and round-trips the ranked causes.
TEST(Doctor, JsonReportParsesAndNamesTheCause) {
  const auto baseline = synthetic_record();
  auto candidate = synthetic_record();
  candidate.config.wire_format = "raw";
  const auto report = obs::diagnose(baseline, candidate);

  std::ostringstream out;
  obs::write_doctor_json(out, report);
  const auto root = util::parse_json(out.str());
  const auto& doctor = root.at("doctor");
  EXPECT_EQ(doctor.at("baseline").as_string(), "synthetic");
  const auto& findings = doctor.at("findings");
  ASSERT_FALSE(findings.items.empty());
  EXPECT_EQ(findings.items.front().at("cause").as_string(),
            "wire-format-change");
  expect_json_pin(report, {0xaad796928fb14901ULL, 2051});
}

}  // namespace
}  // namespace dbfs
