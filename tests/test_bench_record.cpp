// BenchRecord schema tests: exact JSON round-trip, schema versioning, the
// builder's pooling/noise math, and a record emitted by a real engine run
// validating against the parser (the unit-level half of bench_smoke).
#include "obs/bench_record.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dbfs::obs {
namespace {

BenchRecord sample_record() {
  BenchRecord r;
  r.name = "rmat10_2d_auto_c16";
  r.created_by = "test";
  r.config.generator = "rmat";
  r.config.scale = 10;
  r.config.edge_factor = 16;
  r.config.graph_seed = 7;
  r.config.algorithm = "2d-flat";
  r.config.machine = "hopper";
  r.config.wire_format = "auto";
  r.config.cores = 16;
  r.config.ranks = 16;
  r.config.threads_per_rank = 1;
  r.config.sources = 2;
  r.config.repetitions = 2;
  r.config.source_seed = 2023;
  r.config.faults_enabled = true;
  r.config.fault_plan = "seed=1 fail_rate=0.01";

  r.teps.count = 4;
  r.teps.min = 1.0e8;
  r.teps.max = 1.25e8;
  r.teps.mean = 1.1e8;
  r.teps.harmonic_mean = 1.09e8;
  r.teps.median = 1.08e8;
  r.teps.p25 = 1.02e8;
  r.teps.p75 = 1.2e8;
  r.teps.p95 = 1.24e8;
  r.teps.p99 = 1.249e8;
  r.teps.stddev = 0.9e7;
  r.harmonic_mean_teps = 1.09e8;
  r.mean_seconds = 0.00123456789012345;
  r.comm_seconds_mean = 0.0004;
  r.comp_seconds_mean = 0.0008;
  r.noise = {0.021, 0.02, 0.033};
  r.repetitions.push_back({2023, 2, 2, 0, 1.1e8, 0.00124, 0.0004, 0.0008});
  r.repetitions.push_back({2024, 2, 0, 0, 1.08e8, 0.00122, 0.0004, 0.0008});

  BenchLevelSplit lvl;
  lvl.level = 3;
  lvl.compute_mean = 2e-4;
  lvl.wait_mean = 3e-5;
  lvl.transfer_mean = 1.5e-5;
  lvl.wait_max = 9e-5;
  lvl.wait_p99 = 8.5e-5;
  lvl.straggler_rank = 11;
  lvl.straggler_phase = "2d-spmsv";
  r.levels.push_back(lvl);

  r.imbalance.ranks = 16;
  r.imbalance.comm_imbalance = 1.25;
  r.imbalance.comp_imbalance = 1.05;
  r.imbalance.busy_imbalance = 1.1;
  r.imbalance.wait_imbalance = 2.5;
  r.imbalance.wait_fraction = 0.08;
  r.imbalance.straggler_ranks = {11, 3};
  r.imbalance.level_ids = {0, 3};
  r.imbalance.wait_heatmap = {{0.25, 0.5}, {0.125, 1.0 / 3.0}};

  r.counters["wire.bytes_before"] = 123456;
  r.counters["fault.collective_failures"] = 2;
  return r;
}

TEST(BenchRecord, JsonRoundTripIsExact) {
  const BenchRecord r = sample_record();
  const BenchRecord back = parse_bench_record(bench_record_to_json(r));

  EXPECT_EQ(back.schema_version, kBenchRecordSchemaVersion);
  EXPECT_EQ(back.name, r.name);
  EXPECT_EQ(back.created_by, r.created_by);
  EXPECT_EQ(back.config.generator, r.config.generator);
  EXPECT_EQ(back.config.scale, r.config.scale);
  EXPECT_EQ(back.config.graph_seed, r.config.graph_seed);
  EXPECT_EQ(back.config.algorithm, r.config.algorithm);
  EXPECT_EQ(back.config.wire_format, r.config.wire_format);
  EXPECT_EQ(back.config.cores, r.config.cores);
  EXPECT_EQ(back.config.ranks, r.config.ranks);
  EXPECT_EQ(back.config.sources, r.config.sources);
  EXPECT_EQ(back.config.repetitions, r.config.repetitions);
  EXPECT_EQ(back.config.source_seed, r.config.source_seed);
  EXPECT_EQ(back.config.faults_enabled, r.config.faults_enabled);
  EXPECT_EQ(back.config.fault_plan, r.config.fault_plan);

  // max_digits10 serialization: doubles survive bit-exactly.
  EXPECT_EQ(back.teps.count, r.teps.count);
  EXPECT_EQ(back.teps.harmonic_mean, r.teps.harmonic_mean);
  EXPECT_EQ(back.teps.p99, r.teps.p99);
  EXPECT_EQ(back.teps.stddev, r.teps.stddev);
  EXPECT_EQ(back.mean_seconds, r.mean_seconds);
  EXPECT_EQ(back.noise.teps_rel_stddev, r.noise.teps_rel_stddev);
  EXPECT_EQ(back.noise.comm_rel_stddev, r.noise.comm_rel_stddev);

  ASSERT_EQ(back.repetitions.size(), 2u);
  EXPECT_EQ(back.repetitions[1].source_seed, 2024u);
  EXPECT_EQ(back.repetitions[1].harmonic_mean_teps, 1.08e8);
  EXPECT_EQ(back.repetitions[0].validated, 2);

  ASSERT_EQ(back.levels.size(), 1u);
  EXPECT_EQ(back.levels[0].level, 3);
  EXPECT_EQ(back.levels[0].wait_p99, r.levels[0].wait_p99);
  EXPECT_EQ(back.levels[0].straggler_rank, 11);
  EXPECT_EQ(back.levels[0].straggler_phase, "2d-spmsv");

  EXPECT_EQ(back.imbalance.ranks, 16);
  EXPECT_EQ(back.imbalance.wait_imbalance, r.imbalance.wait_imbalance);
  EXPECT_EQ(back.imbalance.straggler_ranks, r.imbalance.straggler_ranks);
  EXPECT_EQ(back.imbalance.level_ids, r.imbalance.level_ids);
  ASSERT_EQ(back.imbalance.wait_heatmap.size(), 2u);
  EXPECT_EQ(back.imbalance.wait_heatmap[1][1], 1.0 / 3.0);

  EXPECT_EQ(back.counters, r.counters);
}

TEST(BenchRecord, SchemaVersionMismatchThrows) {
  BenchRecord r = sample_record();
  r.schema_version = kBenchRecordSchemaVersion + 1;
  const std::string json = bench_record_to_json(r);
  EXPECT_THROW(parse_bench_record(json), BenchSchemaError);
  try {
    parse_bench_record(json);
  } catch (const BenchSchemaError& e) {
    EXPECT_NE(std::string(e.what()).find("schema_version"), std::string::npos);
  }
}

TEST(BenchRecord, MalformedInputThrows) {
  EXPECT_THROW(parse_bench_record("{ definitely not json"), BenchSchemaError);
  EXPECT_THROW(parse_bench_record("42"), BenchSchemaError);
  EXPECT_THROW(parse_bench_record("{\"name\":\"x\"}"), BenchSchemaError);
}

TEST(BenchRecord, FilenameConvention) {
  EXPECT_EQ(bench_record_filename("rmat14_1d_raw_c64"),
            "BENCH_rmat14_1d_raw_c64.json");
}

TEST(BenchRecord, LoadMissingFileThrows) {
  EXPECT_THROW(load_bench_record("/nonexistent/BENCH_x.json"),
               BenchSchemaError);
}

TEST(BenchRecord, SaveLoadRoundTrip) {
  const BenchRecord r = sample_record();
  const std::string path =
      ::testing::TempDir() + "/" + bench_record_filename(r.name);
  save_bench_record(path, r);
  const BenchRecord back = load_bench_record(path);
  EXPECT_EQ(back.name, r.name);
  EXPECT_EQ(back.harmonic_mean_teps, r.harmonic_mean_teps);
  std::remove(path.c_str());
}

TEST(BenchRecord, LoadRecordsReadsOneFileOrASortedDirectory) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "bench_record_set";
  fs::remove_all(dir);
  fs::create_directories(dir);
  BenchRecord r = sample_record();
  for (const char* name : {"rmat12_1d_raw_c16", "rmat10_2d_auto_c16",
                           "rmat11_2d_raw_c16"}) {
    r.name = name;
    save_bench_record((dir / bench_record_filename(r.name)).string(), r);
  }
  // None of these is a record file, and loading any would throw: a doctor
  // report, a BENCH_ name that is not JSON, and a directory.
  std::ofstream(dir / "DOCTOR_rmat10_2d_auto_c16.json") << "{}";
  std::ofstream(dir / "BENCH_notes.txt") << "not a record";
  fs::create_directories(dir / "BENCH_subdir.json");

  const auto set = load_bench_records(dir.string());
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set[0].name, "rmat10_2d_auto_c16");
  EXPECT_EQ(set[1].name, "rmat11_2d_raw_c16");
  EXPECT_EQ(set[2].name, "rmat12_1d_raw_c16");

  const auto one = load_bench_records(
      (dir / bench_record_filename("rmat11_2d_raw_c16")).string());
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].name, "rmat11_2d_raw_c16");
  EXPECT_EQ(one[0].harmonic_mean_teps, r.harmonic_mean_teps);

  EXPECT_THROW(load_bench_records((dir / "BENCH_notes.txt").string()),
               BenchSchemaError);
  fs::remove_all(dir);
}

bfs::RunReport fake_report(double total, double comm, double comp) {
  bfs::RunReport rep;
  rep.total_seconds = total;
  rep.comm_seconds_mean = comm;
  rep.comp_seconds_mean = comp;
  return rep;
}

TEST(BenchRecordBuilder, PoolsSamplesAndComputesNoise) {
  BenchRecordBuilder b;
  b.record().name = "builder_test";
  // Two repetitions, two sources each; denominator 1000 edges.
  const std::vector<bfs::RunReport> rep0{fake_report(0.5, 0.2, 0.3),
                                         fake_report(0.25, 0.1, 0.15)};
  const std::vector<bfs::RunReport> rep1{fake_report(0.5, 0.2, 0.3),
                                         fake_report(0.25, 0.1, 0.15)};
  b.add_repetition(100, rep0, 1000, 2, 0);
  b.add_repetition(101, rep1, 1000, 0, 0);
  const BenchRecord r = b.finish();

  EXPECT_EQ(r.teps.count, 4u);
  EXPECT_DOUBLE_EQ(r.teps.min, 2000.0);   // 1000 / 0.5
  EXPECT_DOUBLE_EQ(r.teps.max, 4000.0);   // 1000 / 0.25
  // Harmonic mean of {2000, 4000, 2000, 4000} = 4 / (3/2000).
  EXPECT_DOUBLE_EQ(r.harmonic_mean_teps, 4.0 / (3.0 / 2000.0));
  EXPECT_DOUBLE_EQ(r.mean_seconds, 0.375);
  EXPECT_DOUBLE_EQ(r.comm_seconds_mean, 0.15);
  EXPECT_DOUBLE_EQ(r.comp_seconds_mean, 0.225);

  ASSERT_EQ(r.repetitions.size(), 2u);
  EXPECT_EQ(r.repetitions[0].source_seed, 100u);
  EXPECT_EQ(r.repetitions[0].validated, 2);
  EXPECT_DOUBLE_EQ(r.repetitions[0].mean_seconds, 0.375);

  // Identical repetitions -> zero across-repetition noise.
  EXPECT_DOUBLE_EQ(r.noise.teps_rel_stddev, 0.0);
  EXPECT_DOUBLE_EQ(r.noise.seconds_rel_stddev, 0.0);
  EXPECT_EQ(r.config.repetitions, 2);
  EXPECT_EQ(r.config.sources, 2);
}

TEST(BenchRecordBuilder, SingleRepetitionHasZeroNoise) {
  BenchRecordBuilder b;
  const std::vector<bfs::RunReport> rep{fake_report(0.5, 0.2, 0.3)};
  b.add_repetition(1, rep, 1000);
  const BenchRecord r = b.finish();
  EXPECT_DOUBLE_EQ(r.noise.teps_rel_stddev, 0.0);
  EXPECT_EQ(r.teps.count, 1u);
}

TEST(BenchRecordBuilder, ZeroTepsSampleZeroesEveryHarmonicMean) {
  // One rule for every harmonic mean a record holds (util::summarize's):
  // a zero-TEPS sample makes it 0, whether it is the repetition's or the
  // pooled one.
  BenchRecordBuilder b;
  const std::vector<bfs::RunReport> rep0{fake_report(0.5, 0.2, 0.3),
                                         fake_report(0.0, 0.0, 0.0)};
  const std::vector<bfs::RunReport> rep1{fake_report(0.5, 0.2, 0.3),
                                         fake_report(0.25, 0.1, 0.15)};
  b.add_repetition(1, rep0, 1000);
  b.add_repetition(2, rep1, 1000);
  const BenchRecord r = b.finish();
  ASSERT_EQ(r.repetitions.size(), 2u);
  EXPECT_EQ(r.repetitions[0].harmonic_mean_teps, 0.0);
  EXPECT_DOUBLE_EQ(r.repetitions[1].harmonic_mean_teps,
                   2.0 / (3.0 / 4000.0));
  EXPECT_EQ(r.teps.harmonic_mean, 0.0);
  EXPECT_EQ(r.harmonic_mean_teps, 0.0);
}

// End-to-end: a record produced from a real traced engine run must parse
// back under the current schema with all three layers populated.
TEST(BenchRecord, EngineEmittedRecordIsSchemaValid) {
  graph::RmatParams params;
  params.scale = 9;
  params.edge_factor = 8;
  const auto built = graph::build_graph(graph::generate_rmat(params));

  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kTwoDFlat;
  opts.cores = 16;
  opts.trace = true;
  opts.metrics = true;
  core::Engine engine{built.edges, built.csr.num_vertices(), opts};
  const auto comps = graph::connected_components(engine.csr());
  const auto sources = graph::sample_sources(engine.csr(), comps, 2, 42);

  BenchRecordBuilder b;
  b.record().name = "engine_smoke";
  b.record().config.scale = params.scale;
  b.record().config.cores = engine.cores_used();
  const auto batch = engine.run_batch(sources, built.directed_edge_count);
  ASSERT_EQ(batch.failed, 0) << batch.first_error;
  b.add_repetition(42, batch.reports, built.directed_edge_count,
                   batch.validated, batch.failed);
  const auto profile = engine.run(sources.front());
  const int ranks = engine.cores_used() / engine.options().threads_per_rank;
  b.attach_profile(engine.tracer(), engine.metrics(), profile.report, ranks);
  const BenchRecord r = b.finish();

  const BenchRecord back = parse_bench_record(bench_record_to_json(r));
  EXPECT_EQ(back.schema_version, kBenchRecordSchemaVersion);
  EXPECT_EQ(back.teps.count, 2u);
  EXPECT_GT(back.harmonic_mean_teps, 0.0);
  EXPECT_FALSE(back.levels.empty());
  EXPECT_EQ(back.imbalance.ranks, ranks);
  ASSERT_FALSE(back.imbalance.wait_heatmap.empty());
  EXPECT_EQ(back.imbalance.wait_heatmap.size(),
            back.imbalance.level_ids.size());
  for (const auto& row : back.imbalance.wait_heatmap) {
    EXPECT_EQ(row.size(), static_cast<std::size_t>(ranks));
  }
  EXPECT_FALSE(back.counters.empty());
}

}  // namespace
}  // namespace dbfs::obs
