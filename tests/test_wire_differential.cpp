// Differential property tests for the wire formats: every --wire-format
// must produce byte-identical BFS outputs (parents AND levels) and the
// same validator verdict as the raw path, across generators (R-MAT,
// webcrawl), algorithms (1D, 2D), and fault plans — while the sieving
// formats strictly reduce the metered alltoall traffic on R-MAT.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bfs/bfs1d.hpp"
#include "bfs/bfs2d.hpp"
#include "comm/wire_format.hpp"
#include "graph/validator.hpp"
#include "test_helpers.hpp"

namespace dbfs::bfs {
namespace {

graph::BuiltGraph webcrawl_graph(int scale) {
  graph::WebcrawlParams params;
  params.num_vertices = vid_t{1} << scale;
  params.seed = 7;
  graph::BuildOptions build;
  build.shuffle_seed = 77;
  return graph::build_graph(graph::generate_webcrawl(params), build);
}

core::EngineOptions opts_1d(comm::WireFormat format, int ranks = 8) {
  core::EngineOptions o;
  o.algorithm = core::Algorithm::kOneDFlat;
  o.cores = ranks;
  o.machine = model::franklin();
  o.wire_format = format;
  return o;
}

core::EngineOptions opts_2d(comm::WireFormat format, int cores = 16) {
  core::EngineOptions o;
  o.cores = cores;
  o.machine = model::franklin();
  o.wire_format = format;
  return o;
}

const comm::WireFormat kNonRawFormats[] = {
    comm::WireFormat::kSieve, comm::WireFormat::kBitmap,
    comm::WireFormat::kVarint, comm::WireFormat::kAuto};

class WireDifferential
    : public ::testing::TestWithParam<comm::WireFormat> {};

TEST_P(WireDifferential, OneDMatchesRawOnRmat) {
  const auto built = test::rmat_graph(10);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  Bfs1D raw{built.edges, n, opts_1d(comm::WireFormat::kRaw)};
  Bfs1D wired{built.edges, n, opts_1d(GetParam())};
  const auto raw_out = raw.run(source);
  const auto out = wired.run(source);
  EXPECT_EQ(out.parent, raw_out.parent);
  EXPECT_EQ(out.level, raw_out.level);
  const auto v = graph::validate_bfs_tree(
      built.csr, source, out.parent,
      graph::reference_levels(built.csr, source));
  EXPECT_TRUE(v.ok) << v.error;
  // A sieved exchange never ships more bytes than the raw one, and on a
  // multi-level R-MAT it must ship strictly fewer.
  EXPECT_LT(out.report.alltoall_bytes, raw_out.report.alltoall_bytes);
}

TEST_P(WireDifferential, OneDMatchesRawOnWebcrawl) {
  const auto built = webcrawl_graph(10);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  Bfs1D raw{built.edges, n, opts_1d(comm::WireFormat::kRaw, 4)};
  Bfs1D wired{built.edges, n, opts_1d(GetParam(), 4)};
  const auto raw_out = raw.run(source);
  const auto out = wired.run(source);
  EXPECT_EQ(out.parent, raw_out.parent);
  EXPECT_EQ(out.level, raw_out.level);
  const auto v = graph::validate_bfs_tree(
      built.csr, source, out.parent,
      graph::reference_levels(built.csr, source));
  EXPECT_TRUE(v.ok) << v.error;
}

TEST_P(WireDifferential, TwoDMatchesRawOnRmat) {
  const auto built = test::rmat_graph(10);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  Bfs2D raw{built.edges, n, opts_2d(comm::WireFormat::kRaw)};
  Bfs2D wired{built.edges, n, opts_2d(GetParam())};
  const auto raw_out = raw.run(source);
  const auto out = wired.run(source);
  EXPECT_EQ(out.parent, raw_out.parent);
  EXPECT_EQ(out.level, raw_out.level);
  const auto v = graph::validate_bfs_tree(
      built.csr, source, out.parent,
      graph::reference_levels(built.csr, source));
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_LT(out.report.alltoall_bytes, raw_out.report.alltoall_bytes);
}

TEST_P(WireDifferential, TwoDMatchesRawOnWebcrawl) {
  const auto built = webcrawl_graph(10);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  Bfs2D raw{built.edges, n, opts_2d(comm::WireFormat::kRaw)};
  Bfs2D wired{built.edges, n, opts_2d(GetParam())};
  const auto raw_out = raw.run(source);
  const auto out = wired.run(source);
  EXPECT_EQ(out.parent, raw_out.parent);
  EXPECT_EQ(out.level, raw_out.level);
  const auto v = graph::validate_bfs_tree(
      built.csr, source, out.parent,
      graph::reference_levels(built.csr, source));
  EXPECT_TRUE(v.ok) << v.error;
}

TEST_P(WireDifferential, OneDSurvivesFaultPlan) {
  // Corruption + transient failures hit the compressed payloads; the
  // checked collectives must repair them and the outputs must still match
  // the raw run under the identical plan.
  const auto built = test::rmat_graph(10);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  simmpi::FaultPlan plan;
  plan.seed = 99;
  plan.collective_fail_rate = 0.05;
  plan.corrupt_rate = 0.05;
  auto raw_opts = opts_1d(comm::WireFormat::kRaw);
  raw_opts.faults = plan;
  auto wire_opts = opts_1d(GetParam());
  wire_opts.faults = plan;
  Bfs1D raw{built.edges, n, raw_opts};
  Bfs1D wired{built.edges, n, wire_opts};
  const auto raw_out = raw.run(source);
  const auto out = wired.run(source);
  EXPECT_EQ(out.parent, raw_out.parent);
  EXPECT_EQ(out.level, raw_out.level);
  EXPECT_GT(out.report.faults.payload_corruptions +
                out.report.faults.collective_failures,
            0)
      << "fault plan injected nothing; test is vacuous";
}

TEST_P(WireDifferential, TwoDSurvivesFaultPlan) {
  const auto built = test::rmat_graph(10);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  simmpi::FaultPlan plan;
  plan.seed = 123;
  plan.collective_fail_rate = 0.05;
  plan.corrupt_rate = 0.05;
  auto raw_opts = opts_2d(comm::WireFormat::kRaw);
  raw_opts.faults = plan;
  auto wire_opts = opts_2d(GetParam());
  wire_opts.faults = plan;
  Bfs2D raw{built.edges, n, raw_opts};
  Bfs2D wired{built.edges, n, wire_opts};
  const auto raw_out = raw.run(source);
  const auto out = wired.run(source);
  EXPECT_EQ(out.parent, raw_out.parent);
  EXPECT_EQ(out.level, raw_out.level);
}

INSTANTIATE_TEST_SUITE_P(Formats, WireDifferential,
                         ::testing::ValuesIn(kNonRawFormats),
                         [](const auto& info) {
                           return std::string(comm::to_string(info.param));
                         });

TEST(WireDifferential2D, TriangularHybridAutoMatchesRaw) {
  // The hardest configuration: triangular storage mirrors candidates
  // into the fold, hybrid threads the ranks, auto mixes encodings.
  const auto built = test::rmat_graph(10);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  auto raw_opts = opts_2d(comm::WireFormat::kRaw, 36);
  raw_opts.algorithm = core::Algorithm::kTwoDHybrid;
  raw_opts.threads_per_rank = 4;
  raw_opts.triangular_storage = true;
  auto wire_opts = raw_opts;
  wire_opts.wire_format = comm::WireFormat::kAuto;
  Bfs2D raw{built.edges, n, raw_opts};
  Bfs2D wired{built.edges, n, wire_opts};
  const auto raw_out = raw.run(source);
  const auto out = wired.run(source);
  EXPECT_EQ(out.parent, raw_out.parent);
  EXPECT_EQ(out.level, raw_out.level);
  EXPECT_LT(out.report.alltoall_bytes, raw_out.report.alltoall_bytes);
}

TEST(WireDifferential1D, HybridAutoMatchesRaw) {
  const auto built = test::rmat_graph(10);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  auto raw_opts = opts_1d(comm::WireFormat::kRaw, 16);
  raw_opts.algorithm = core::Algorithm::kOneDHybrid;
  raw_opts.threads_per_rank = 4;  // 4 ranks of 4 threads
  auto wire_opts = raw_opts;
  wire_opts.wire_format = comm::WireFormat::kAuto;
  Bfs1D raw{built.edges, n, raw_opts};
  Bfs1D wired{built.edges, n, wire_opts};
  const auto raw_out = raw.run(source);
  const auto out = wired.run(source);
  EXPECT_EQ(out.parent, raw_out.parent);
  EXPECT_EQ(out.level, raw_out.level);
  EXPECT_LT(out.report.alltoall_bytes, raw_out.report.alltoall_bytes);
}

TEST(WireDifferential1D, RepeatedWireRunsAreDeterministic) {
  // The sieve must be fully reset between runs — a leaked bitmap would
  // drop first-level candidates on the second run.
  const auto built = test::rmat_graph(9);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  Bfs1D bfs{built.edges, n, opts_1d(comm::WireFormat::kAuto, 4)};
  const auto first = bfs.run(source);
  const auto second = bfs.run(source);
  EXPECT_EQ(first.parent, second.parent);
  EXPECT_EQ(first.level, second.level);
  EXPECT_EQ(first.report.alltoall_bytes, second.report.alltoall_bytes);
}

TEST(WireDifferential1D, SieveOrderingIsByteMonotone) {
  // On the same instance the encodings order as expected: any compressed
  // format ships no more than plain sieve, which ships less than raw; and
  // auto is the per-block minimum so it lower-bounds bitmap and varint.
  const auto built = test::rmat_graph(10);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  auto run_bytes = [&](comm::WireFormat f) {
    Bfs1D bfs{built.edges, n, opts_1d(f)};
    return bfs.run(source).report.alltoall_bytes;
  };
  const auto raw = run_bytes(comm::WireFormat::kRaw);
  const auto sieve = run_bytes(comm::WireFormat::kSieve);
  const auto bitmap = run_bytes(comm::WireFormat::kBitmap);
  const auto varint = run_bytes(comm::WireFormat::kVarint);
  const auto aut = run_bytes(comm::WireFormat::kAuto);
  EXPECT_LT(sieve, raw);
  EXPECT_LT(bitmap, raw);
  EXPECT_LE(varint, sieve);
  EXPECT_LE(aut, sieve);
  EXPECT_LE(aut, bitmap);
  EXPECT_LE(aut, varint);
}

}  // namespace
}  // namespace dbfs::bfs
