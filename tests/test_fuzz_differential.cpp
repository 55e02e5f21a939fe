// Differential fuzzing: every distributed implementation must agree with
// the serial reference on randomized (generator, density, seed, source,
// core-count, option) combinations. Each case validates the Graph500
// invariants as well — the broadest correctness net in the suite.
#include <gtest/gtest.h>

#include "bfs/direction_optimizing.hpp"
#include "bfs/serial.hpp"
#include "comm/wire_format.hpp"
#include "core/engine.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/validator.hpp"
#include "simmpi/fault.hpp"
#include "test_helpers.hpp"
#include "util/prng.hpp"

namespace dbfs {
namespace {

struct FuzzCase {
  std::uint64_t seed;
};

class DifferentialFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(DifferentialFuzz, AllAlgorithmsAgreeWithSerial) {
  util::Xoshiro256 rng{GetParam().seed};

  // Random graph family and shape.
  graph::EdgeList raw{0};
  switch (rng.next_below(3)) {
    case 0: {
      graph::RmatParams p;
      p.scale = 7 + static_cast<int>(rng.next_below(3));
      p.edge_factor = 4 << rng.next_below(3);
      p.seed = rng();
      raw = graph::generate_rmat(p);
      break;
    }
    case 1: {
      graph::ErdosRenyiParams p;
      p.num_vertices = vid_t{1} << (7 + rng.next_below(3));
      p.edge_probability =
          static_cast<double>(4 + rng.next_below(20)) /
          static_cast<double>(p.num_vertices);
      p.seed = rng();
      raw = graph::generate_erdos_renyi(p);
      break;
    }
    default: {
      graph::WebcrawlParams p;
      p.num_vertices = vid_t{1} << (8 + rng.next_below(3));
      p.target_diameter = 10 + static_cast<int>(rng.next_below(40));
      p.seed = rng();
      raw = graph::generate_webcrawl(p);
      break;
    }
  }

  graph::BuildOptions build;
  build.shuffle = rng.next_below(2) == 0;
  build.shuffle_seed = rng();
  const auto built = graph::build_graph(std::move(raw), build);
  const vid_t n = built.csr.num_vertices();

  // Random source with at least one edge.
  vid_t source = test::hub_source(built.csr);
  for (int tries = 0; tries < 20; ++tries) {
    const auto candidate =
        static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (built.csr.degree(candidate) > 0) {
      source = candidate;
      break;
    }
  }

  const auto serial = bfs::serial_bfs(built.csr, source);
  const auto reference = graph::reference_levels(built.csr, source);

  const core::Algorithm algorithms[] = {
      core::Algorithm::kOneDFlat, core::Algorithm::kOneDHybrid,
      core::Algorithm::kTwoDFlat, core::Algorithm::kTwoDHybrid};
  for (core::Algorithm algorithm : algorithms) {
    core::EngineOptions opts;
    opts.algorithm = algorithm;
    opts.cores = 1 << (1 + rng.next_below(7));  // 2..128
    opts.machine = rng.next_below(2) == 0 ? model::franklin()
                                          : model::hopper();
    opts.backend = static_cast<sparse::SpmsvBackend>(rng.next_below(3));
    if ((algorithm == core::Algorithm::kTwoDFlat ||
         algorithm == core::Algorithm::kTwoDHybrid) &&
        rng.next_below(3) == 0) {
      opts.triangular_storage = true;
    }
    core::Engine engine{built.edges, n, opts};
    const auto out = engine.run(source);

    EXPECT_EQ(out.level, serial.level)
        << core::to_string(algorithm) << " cores=" << opts.cores
        << " seed=" << GetParam().seed;
    const auto v =
        graph::validate_bfs_tree(built.csr, source, out.parent, reference);
    EXPECT_TRUE(v.ok) << core::to_string(algorithm)
                      << " seed=" << GetParam().seed << ": " << v.error;
  }

  // Hybrid direction-optimized 2D joins the same net: the per-level
  // alpha-beta decisions must never change the answer, across every
  // wire format and grid shape. Forced bottom-up rides along as the
  // harsher variant (pull on every level after the first).
  const comm::WireFormat wires[] = {
      comm::WireFormat::kRaw, comm::WireFormat::kSieve,
      comm::WireFormat::kBitmap, comm::WireFormat::kVarint,
      comm::WireFormat::kAuto};
  const core::Algorithm two_d[] = {core::Algorithm::kTwoDFlat,
                                   core::Algorithm::kTwoDHybrid};
  for (core::Algorithm algorithm : two_d) {
    core::EngineOptions opts;
    opts.algorithm = algorithm;
    opts.cores = 1 << (1 + rng.next_below(7));  // 2..128
    opts.wire_format = wires[rng.next_below(5)];
    opts.direction = rng.next_below(4) == 0 ? bfs::DirectionMode::kBottomUp
                                            : bfs::DirectionMode::kHybrid;
    // Sweep the switch thresholds too: they change *when* the direction
    // flips, never the level structure.
    opts.alpha = static_cast<double>(1 + rng.next_below(64));
    opts.beta = static_cast<double>(1 + rng.next_below(64));
    core::Engine engine{built.edges, n, opts};
    const auto out = engine.run(source);

    EXPECT_EQ(out.level, serial.level)
        << core::to_string(algorithm) << " direction="
        << bfs::to_string(opts.direction) << " wire="
        << comm::to_string(opts.wire_format) << " cores=" << opts.cores
        << " seed=" << GetParam().seed;
    const auto v =
        graph::validate_bfs_tree(built.csr, source, out.parent, reference);
    EXPECT_TRUE(v.ok) << core::to_string(algorithm) << " direction="
                      << bfs::to_string(opts.direction)
                      << " seed=" << GetParam().seed << ": " << v.error;
  }

  // Direction-optimizing BFS is host-side but shares the differential
  // net: its hybrid top-down/bottom-up switching must never change the
  // level structure, and its parents must validate.
  const auto diropt = bfs::direction_optimizing_bfs(built.csr, source);
  EXPECT_EQ(diropt.out.level, serial.level)
      << "direction-optimizing seed=" << GetParam().seed;
  const auto dv = graph::validate_bfs_tree(built.csr, source,
                                           diropt.out.parent, reference);
  EXPECT_TRUE(dv.ok) << "direction-optimizing seed=" << GetParam().seed
                     << ": " << dv.error;
}

// Chaos mode: the same differential net, but each engine runs under a
// randomized fault plan — stragglers, transient collective failures, and
// payload corruption. The contract is all-or-nothing: a run either
// completes agreeing exactly with the serial reference, or aborts loudly
// with a structured FaultError. A silently wrong answer is the only
// failure mode.
TEST_P(DifferentialFuzz, ChaosRunsMatchSerialOrFailLoudly) {
  util::Xoshiro256 rng{GetParam().seed * 0x9e3779b9ULL + 17};

  graph::RmatParams p;
  p.scale = 8 + static_cast<int>(rng.next_below(2));
  p.edge_factor = 8;
  p.seed = rng();
  graph::BuildOptions build;
  build.shuffle_seed = rng();
  const auto built = graph::build_graph(graph::generate_rmat(p), build);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  const auto serial = bfs::serial_bfs(built.csr, source);
  const auto reference = graph::reference_levels(built.csr, source);

  const core::Algorithm algorithms[] = {
      core::Algorithm::kOneDFlat, core::Algorithm::kOneDHybrid,
      core::Algorithm::kTwoDFlat, core::Algorithm::kTwoDHybrid};
  int completed = 0;
  int aborted = 0;
  for (core::Algorithm algorithm : algorithms) {
    core::EngineOptions opts;
    opts.algorithm = algorithm;
    opts.cores = 1 << (2 + rng.next_below(5));  // 4..64
    opts.wire_format = static_cast<comm::WireFormat>(rng.next_below(5));
    if ((algorithm == core::Algorithm::kTwoDFlat ||
         algorithm == core::Algorithm::kTwoDHybrid) &&
        rng.next_below(2) == 0) {
      // Hybrid 2D under chaos: kills scheduled at levels 1..4 routinely
      // land mid-bottom-up-level, so recovery must replay the direction
      // decision trail — shrink and spare both appear via the policy
      // draw below.
      opts.direction = bfs::DirectionMode::kHybrid;
    }

    simmpi::FaultPlan& faults = opts.faults;
    faults.seed = rng();
    faults.collective_fail_rate =
        static_cast<double>(rng.next_below(30)) / 100.0;  // 0..0.29
    faults.corrupt_rate =
        static_cast<double>(rng.next_below(35)) / 100.0;  // 0..0.34
    const auto straggler_count = rng.next_below(3);
    for (std::uint64_t s = 0; s < straggler_count; ++s) {
      const int rank = static_cast<int>(rng.next_below(64));
      const double factor =
          1.5 + static_cast<double>(rng.next_below(40)) / 10.0;
      if (rng.next_below(2) == 0) {
        faults.compute_stragglers.emplace_back(rank, factor);
      } else {
        faults.nic_stragglers.emplace_back(rank, factor);
      }
    }
    // Fail-stop kills join the chaos mix: a recovered run must still
    // agree exactly; an unrecoverable one (spares exhausted) must abort
    // with the structured RankFailedError like any other fault.
    const auto kill_count = rng.next_below(3);
    for (std::uint64_t k = 0; k < kill_count; ++k) {
      simmpi::RankKill kill;
      kill.rank = static_cast<int>(rng.next_below(16));
      kill.at_level = 1 + static_cast<int>(rng.next_below(4));
      faults.rank_kills.push_back(kill);
    }
    if (!faults.rank_kills.empty()) {
      opts.recover.checkpoint_every = static_cast<int>(rng.next_below(3));
      opts.recover.policy = rng.next_below(2) == 0
                                ? recover::Policy::kShrink
                                : recover::Policy::kSpare;
      opts.recover.spare_ranks = 1;
    }
    // At-rest corruption joins the mix: random flips against every
    // resident-state target, always with auditing armed so each applied
    // flip is detected and rolled back — the completed-run contract
    // (exact agreement with serial) is unchanged.
    const auto flip_count = rng.next_below(3);
    for (std::uint64_t f = 0; f < flip_count; ++f) {
      simmpi::MemFlip flip;
      flip.rank = static_cast<int>(rng.next_below(16));
      flip.at_level = 1 + static_cast<int>(rng.next_below(4));
      flip.target = static_cast<simmpi::FlipTarget>(rng.next_below(5));
      faults.mem_flips.push_back(flip);
    }
    if (!faults.mem_flips.empty()) {
      opts.recover.audit_every = 1 + static_cast<int>(rng.next_below(2));
      if (opts.recover.checkpoint_every == 0) {
        opts.recover.checkpoint_every =
            1 + static_cast<int>(rng.next_below(2));
      }
    }

    core::Engine engine{built.edges, n, opts};
    try {
      const auto out = engine.run(source);
      ++completed;
      EXPECT_EQ(out.level, serial.level)
          << core::to_string(algorithm) << " chaos seed=" << faults.seed;
      const auto v =
          graph::validate_bfs_tree(built.csr, source, out.parent, reference);
      EXPECT_TRUE(v.ok) << core::to_string(algorithm)
                        << " chaos seed=" << faults.seed << ": " << v.error;
    } catch (const simmpi::FaultError& e) {
      // Loud structured abort: acceptable. Assert the error says enough
      // for a harness to triage it.
      ++aborted;
      EXPECT_FALSE(e.site().empty());
      EXPECT_FALSE(e.kind().empty());
      EXPECT_GT(e.attempts(), 0);
    }
  }
  EXPECT_EQ(completed + aborted, 4);
}

// The shapes a sparse exchange must get right, through the same
// differential net in plain, recovery (a kill repaired by shrink or by a
// spare) and SDC (a flip caught by an audit and rolled back) modes, on
// flat and hybrid 1D, 2D and direction-optimized 2D with a raw and a
// sieving wire: more ranks than vertices (empty shards; a source with no
// edges makes a level in which no rank sends anything), a hub larger
// than a rank's share, grids and rank counts that do not divide n, and
// graphs made only of duplicate edges. Every run must complete and agree
// exactly with the serial reference.
TEST(DifferentialShapes, DegenerateInputsInEveryMode) {
  struct Shape {
    const char* name;
    graph::EdgeList edges;
    vid_t source;
    int cores;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"ranks>vertices", test::path_edges(5), 2, 64});
  graph::EdgeList isolated{9};  // source 0 has no edges at all
  for (vid_t v = 1; v + 1 < 9; ++v) isolated.add(v, v + 1);
  isolated.symmetrize();
  shapes.push_back({"ranks>vertices/isolated-source", isolated, 0, 64});
  shapes.push_back({"hub>share/from-leaf", test::star_edges(300), 17, 16});
  shapes.push_back({"hub>share/from-hub", test::star_edges(300), 0, 16});
  graph::ErdosRenyiParams er;
  er.num_vertices = 101;  // prime: no grid or rank count divides it
  er.edge_probability = 0.05;
  er.seed = 3;
  const auto odd = graph::build_graph(graph::generate_erdos_renyi(er));
  shapes.push_back({"indivisible/25", odd.edges,
                    test::hub_source(odd.csr), 25});
  shapes.push_back({"indivisible/7", odd.edges, test::hub_source(odd.csr),
                    7});
  graph::EdgeList twin{4};  // one edge, forty times over
  for (int k = 0; k < 40; ++k) twin.add(0, 1);
  twin.symmetrize();
  shapes.push_back({"duplicates/one-edge", twin, 1, 4});
  graph::EdgeList repeated{40};  // ring + chords, each edge 2-4 times
  util::Xoshiro256 rng{11};
  for (vid_t v = 0; v < 40; ++v) {
    const auto copies = 2 + rng.next_below(3);
    for (std::uint64_t k = 0; k < copies; ++k) {
      repeated.add(v, (v + 1) % 40);
      repeated.add((v + 7) % 40, v);
    }
  }
  repeated.symmetrize();
  shapes.push_back({"duplicates/ring", repeated, 5, 16});

  enum class Mode { kPlain, kShrink, kSpare, kSdc };
  const simmpi::FlipTarget targets[] = {
      simmpi::FlipTarget::kParents, simmpi::FlipTarget::kLevels,
      simmpi::FlipTarget::kVisited, simmpi::FlipTarget::kCheckpoint};
  int flips = 0;
  std::int64_t recovered = 0;
  std::int64_t rolled_back = 0;
  for (const Shape& shape : shapes) {
    const auto csr = graph::CsrGraph::from_edges(shape.edges);
    const auto serial = bfs::serial_bfs(csr, shape.source);
    const auto reference = graph::reference_levels(csr, shape.source);
    for (const core::Algorithm algorithm :
         {core::Algorithm::kOneDFlat, core::Algorithm::kOneDHybrid,
          core::Algorithm::kTwoDFlat, core::Algorithm::kTwoDHybrid}) {
      for (const comm::WireFormat wire :
           {comm::WireFormat::kRaw, comm::WireFormat::kAuto}) {
        for (const Mode mode :
             {Mode::kPlain, Mode::kShrink, Mode::kSpare, Mode::kSdc}) {
          core::EngineOptions opts;
          opts.algorithm = algorithm;
          opts.cores = shape.cores;
          opts.threads_per_rank =
              algorithm == core::Algorithm::kOneDHybrid ||
                      algorithm == core::Algorithm::kTwoDHybrid
                  ? 4
                  : 1;
          opts.machine = model::generic();
          opts.wire_format = wire;
          if (algorithm == core::Algorithm::kTwoDHybrid) {
            opts.direction = bfs::DirectionMode::kHybrid;
          }
          if (mode == Mode::kShrink || mode == Mode::kSpare) {
            simmpi::RankKill kill;
            kill.rank = 1;
            kill.at_level = 1;
            opts.faults.rank_kills = {kill};
            opts.recover.checkpoint_every = 1;
            opts.recover.policy = mode == Mode::kShrink
                                      ? recover::Policy::kShrink
                                      : recover::Policy::kSpare;
            opts.recover.spare_ranks = 1;
          } else if (mode == Mode::kSdc) {
            simmpi::MemFlip flip;
            flip.rank = 1;
            flip.at_level = 1;
            flip.target = targets[flips++ % 4];
            opts.faults.mem_flips = {flip};
            opts.recover.audit_every = 1;
            opts.recover.checkpoint_every = 1;
          }
          const std::string label =
              std::string(shape.name) + "/" + core::to_string(algorithm) +
              "/" + comm::to_string(wire) + "/mode" +
              std::to_string(static_cast<int>(mode));
          try {
            core::Engine engine{shape.edges, shape.edges.num_vertices(),
                                opts};
            const auto out = engine.run(shape.source);
            EXPECT_EQ(out.level, serial.level) << label;
            const auto v = graph::validate_bfs_tree(csr, shape.source,
                                                    out.parent, reference);
            EXPECT_TRUE(v.ok) << label << ": " << v.error;
            recovered += out.report.recover.rank_failures;
            rolled_back += out.report.sdc.rollbacks;
          } catch (const std::exception& e) {
            ADD_FAILURE() << label << ": " << e.what();
          }
        }
      }
    }
  }
  // The fault modes did fire: kills were survived and flips rolled back.
  EXPECT_GT(recovered, 0);
  EXPECT_GT(rolled_back, 0);
}

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  for (std::uint64_t s = 1; s <= 12; ++s) cases.push_back({s * 7919});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::ValuesIn(fuzz_cases()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace dbfs
