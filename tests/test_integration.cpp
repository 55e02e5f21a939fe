// Cross-module integration tests: every distributed algorithm against
// every graph family, validated by the Graph500 checker, with property
// sweeps over (algorithm, cores, source).
#include <gtest/gtest.h>

#include <tuple>

#include "bfs/serial.hpp"
#include "core/engine.hpp"
#include "dist/partition1d.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/validator.hpp"
#include "test_helpers.hpp"

namespace dbfs {
namespace {

using core::Algorithm;

struct IntegrationCase {
  Algorithm algorithm;
  int cores;
};

class AllAlgorithmsAllCores
    : public ::testing::TestWithParam<IntegrationCase> {};

TEST_P(AllAlgorithmsAllCores, RmatValidated) {
  const auto built = test::rmat_graph(9, 8, 42);
  const vid_t n = built.csr.num_vertices();
  core::EngineOptions opts;
  opts.algorithm = GetParam().algorithm;
  opts.cores = GetParam().cores;
  opts.machine = model::hopper();
  core::Engine engine{built.edges, n, opts};

  const auto comps = graph::connected_components(engine.csr());
  const auto sources = graph::sample_sources(engine.csr(), comps, 2, 7);
  for (vid_t source : sources) {
    const auto out = engine.run(source);
    const auto v = graph::validate_bfs_tree(
        engine.csr(), source, out.parent,
        graph::reference_levels(engine.csr(), source));
    EXPECT_TRUE(v.ok) << core::to_string(GetParam().algorithm) << " cores="
                      << GetParam().cores << ": " << v.error;
  }
}

std::vector<IntegrationCase> integration_cases() {
  std::vector<IntegrationCase> cases;
  for (Algorithm a :
       {Algorithm::kOneDFlat, Algorithm::kOneDHybrid, Algorithm::kTwoDFlat,
        Algorithm::kTwoDHybrid}) {
    for (int cores : {4, 16, 36}) {
      cases.push_back({a, cores});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllAlgorithmsAllCores, ::testing::ValuesIn(integration_cases()),
    [](const auto& info) {
      std::string name = core::to_string(info.param.algorithm);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_c" + std::to_string(info.param.cores);
    });

TEST(Integration, ErdosRenyiAllAlgorithmsAgree) {
  graph::ErdosRenyiParams params;
  params.num_vertices = 1 << 9;
  params.edge_probability = 16.0 / (1 << 9);
  auto built = graph::build_graph(graph::generate_erdos_renyi(params));
  const vid_t n = built.csr.num_vertices();
  const auto serial = bfs::serial_bfs(built.csr, 0);
  for (Algorithm a : {Algorithm::kOneDFlat, Algorithm::kTwoDFlat}) {
    core::EngineOptions opts;
    opts.algorithm = a;
    opts.cores = 16;
    core::Engine engine{built.edges, n, opts};
    EXPECT_EQ(engine.run(0).level, serial.level) << core::to_string(a);
  }
}

TEST(Integration, WebcrawlHighDiameterAllAlgorithms) {
  graph::WebcrawlParams params;
  params.num_vertices = 1 << 12;
  params.target_diameter = 40;
  auto built = graph::build_graph(graph::generate_webcrawl(params));
  const vid_t n = built.csr.num_vertices();
  const auto serial = bfs::serial_bfs(built.csr, 0);
  ASSERT_GT(serial.report.levels.size(), 25u);  // genuinely high diameter
  for (Algorithm a : {Algorithm::kOneDFlat, Algorithm::kTwoDFlat,
                      Algorithm::kTwoDHybrid}) {
    core::EngineOptions opts;
    opts.algorithm = a;
    opts.cores = 16;
    core::Engine engine{built.edges, n, opts};
    EXPECT_EQ(engine.run(0).level, serial.level) << core::to_string(a);
  }
}

TEST(Integration, ShuffleDoesNotChangeDistances) {
  // Relabeling is a graph isomorphism: distances must transfer through
  // the permutation.
  graph::RmatParams params;
  params.scale = 9;
  params.edge_factor = 8;
  const auto raw = graph::generate_rmat(params);

  graph::BuildOptions no_shuffle;
  no_shuffle.shuffle = false;
  const auto plain = graph::build_graph(raw, no_shuffle);

  graph::BuildOptions with_shuffle;
  with_shuffle.shuffle = true;
  with_shuffle.shuffle_seed = 99;
  const auto shuffled = graph::build_graph(raw, with_shuffle);

  const vid_t source_old = 5;
  const auto plain_out = bfs::serial_bfs(plain.csr, source_old);
  // new_to_old[new] == old  =>  find the shuffled id of vertex 5.
  vid_t source_new = kNoVertex;
  for (vid_t v = 0; v < static_cast<vid_t>(shuffled.new_to_old.size()); ++v) {
    if (shuffled.new_to_old[v] == source_old) {
      source_new = v;
      break;
    }
  }
  ASSERT_NE(source_new, kNoVertex);
  const auto shuffled_out = bfs::serial_bfs(shuffled.csr, source_new);
  for (vid_t v = 0; v < plain.csr.num_vertices(); ++v) {
    EXPECT_EQ(plain_out.level[shuffled.new_to_old[v]], shuffled_out.level[v]);
  }
}

TEST(Integration, ShuffleBalancesEdgeLoad) {
  // §4.4: with the shuffle, per-rank edge counts are near-uniform even on
  // skewed R-MAT graphs.
  graph::RmatParams params;
  params.scale = 12;
  params.edge_factor = 16;
  const auto raw = graph::generate_rmat(params);
  const int ranks = 16;
  auto edge_imbalance = [&](bool shuffle) {
    graph::BuildOptions build;
    build.shuffle = shuffle;
    const auto built = graph::build_graph(raw, build);
    // Each rank's load: the out-edges of the vertices its block owns.
    const dist::BlockPartition part(built.csr.num_vertices(), ranks);
    std::vector<double> loads;
    for (int r = 0; r < ranks; ++r) {
      eid_t edges = 0;
      for (vid_t v = part.begin(r); v < part.end(r); ++v) {
        edges += built.csr.degree(v);
      }
      loads.push_back(static_cast<double>(edges));
    }
    return util::imbalance(loads);
  };
  const double shuffled = edge_imbalance(true);
  const double unshuffled = edge_imbalance(false);
  // R-MAT concentrates edges in the low-id quadrant; the shuffle must
  // repair most of that skew (hub degrees keep it from being perfect).
  EXPECT_LT(shuffled, 2.0);
  EXPECT_LT(shuffled, unshuffled);
}

TEST(Integration, TepsDenominatorIndependentOfAlgorithm) {
  const auto built = test::rmat_graph(9);
  const vid_t n = built.csr.num_vertices();
  core::EngineOptions o1;
  o1.algorithm = Algorithm::kOneDFlat;
  o1.cores = 16;
  core::EngineOptions o2;
  o2.algorithm = Algorithm::kTwoDFlat;
  o2.cores = 16;
  core::Engine e1{built.edges, n, o1};
  core::Engine e2{built.edges, n, o2};
  // Both traverse the same component: identical edge counts.
  const vid_t source = test::hub_source(built.csr);
  EXPECT_EQ(e1.run(source).report.edges_traversed,
            e2.run(source).report.edges_traversed);
}

// The paper's scaling claims, run on the functional engines at the core
// counts the figures use (every exchange costs O(items + blocks + p), so
// tens of thousands of simulated ranks take milliseconds here).
bfs::RunReport paper_point(const graph::BuiltGraph& built, Algorithm algo,
                           int cores, const model::MachineModel& machine) {
  core::EngineOptions opts;
  opts.algorithm = algo;
  opts.cores = cores;
  opts.machine = machine;
  core::Engine engine{built.edges, built.csr.num_vertices(), opts};
  return engine.run(test::hub_source(built.csr)).report;
}

TEST(PaperClaims, TwoDCommBelowOneDAt16384Cores) {
  // 2D collectives span sqrt(p) ranks, 1D's span all p: the central
  // claim of the paper.
  const auto built = test::rmat_graph(10, 16);
  const auto one_d =
      paper_point(built, Algorithm::kOneDFlat, 16384, model::hopper());
  const auto two_d =
      paper_point(built, Algorithm::kTwoDFlat, 16384, model::hopper());
  EXPECT_EQ(two_d.cores, 16384);
  EXPECT_LT(two_d.comm_seconds_mean, one_d.comm_seconds_mean);
}

TEST(PaperClaims, HybridOneDCommBelowFlatAt8192Cores) {
  const auto built = test::rmat_graph(10, 16);
  const auto flat =
      paper_point(built, Algorithm::kOneDFlat, 8192, model::hopper());
  const auto hybrid =
      paper_point(built, Algorithm::kOneDHybrid, 8192, model::hopper());
  EXPECT_LT(hybrid.ranks, flat.ranks);
  EXPECT_LT(hybrid.comm_seconds_mean, flat.comm_seconds_mean);
}

TEST(PaperClaims, OneDCompFallsCommShareRisesWithCores) {
  const auto built = test::rmat_graph(10, 16);
  const auto small =
      paper_point(built, Algorithm::kOneDFlat, 64, model::franklin());
  const auto large =
      paper_point(built, Algorithm::kOneDFlat, 4096, model::franklin());
  EXPECT_LT(large.comp_seconds_mean, small.comp_seconds_mean);
  EXPECT_GT(large.comm_fraction(), small.comm_fraction());
}

}  // namespace
}  // namespace dbfs
