// Host-thread independence of graph set-up. R-MAT generation, build_graph,
// the engine's CSR and the 2D partition all run on the host threads
// (util::for_each_slot); none of their outputs may depend on how many
// there are. Each is checked at 1..kMaxHostThreads threads against
// a serial oracle kept here: the single-stream R-MAT loop, and the
// symmetrize + sort_and_dedup pipeline with a CSR read off its list.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "dist/partition2d.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/permutation.hpp"
#include "simmpi/process_grid.hpp"
#include "test_helpers.hpp"
#include "util/prng.hpp"

namespace dbfs {
namespace {

using graph::Edge;
using graph::EdgeList;

// ---- R-MAT: the single-stream loop the chunked generator replaced ----

Edge oracle_rmat_edge(const graph::RmatParams& p, util::Xoshiro256& rng) {
  double a = p.a;
  double b = p.b;
  double c = p.c;
  double d = 1.0 - a - b - c;
  vid_t row = 0;
  vid_t col = 0;
  for (int level = 0; level < p.scale; ++level) {
    const double r = rng.next_double();
    row <<= 1;
    col <<= 1;
    if (r < a) {
    } else if (r < a + b) {
      col |= 1;
    } else if (r < a + b + c) {
      row |= 1;
    } else {
      row |= 1;
      col |= 1;
    }
    if (p.noise) {
      auto jitter = [&rng](double x) {
        return x * (0.95 + 0.1 * rng.next_double());
      };
      a = jitter(a);
      b = jitter(b);
      c = jitter(c);
      d = jitter(d);
      const double norm = a + b + c + d;
      a /= norm;
      b /= norm;
      c /= norm;
      d /= norm;
    }
  }
  return Edge{row, col};
}

std::vector<Edge> oracle_rmat(const graph::RmatParams& p) {
  const eid_t m = static_cast<eid_t>(p.edge_factor) * (vid_t{1} << p.scale);
  std::vector<Edge> edges;
  util::Xoshiro256 rng{p.seed};
  for (eid_t i = 0; i < m; ++i) edges.push_back(oracle_rmat_edge(p, rng));
  return edges;
}

// ---- build_graph: symmetrize + sort_and_dedup, CSR read off the list ----

struct OracleGraph {
  std::vector<Edge> edges;
  std::vector<eid_t> offsets;
  std::vector<vid_t> adjacency;
  std::vector<vid_t> new_to_old;
};

OracleGraph oracle_build(EdgeList input, const graph::BuildOptions& opts) {
  OracleGraph out;
  if (opts.shuffle) {
    const graph::Permutation perm =
        graph::Permutation::random(input.num_vertices(), opts.shuffle_seed);
    for (Edge& e : input.edges()) e = Edge{perm(e.u), perm(e.v)};
    out.new_to_old = perm.inverse().mapping();
  }
  if (opts.symmetrize) input.symmetrize();
  input.sort_and_dedup();
  out.offsets.assign(static_cast<std::size_t>(input.num_vertices()) + 1, 0);
  for (const Edge& e : input.edges()) {
    ++out.offsets[static_cast<std::size_t>(e.u) + 1];
    out.adjacency.push_back(e.v);
  }
  for (std::size_t v = 1; v < out.offsets.size(); ++v) {
    out.offsets[v] += out.offsets[v - 1];
  }
  out.edges = std::move(input.edges());
  return out;
}

struct Input {
  std::string name;
  EdgeList edges;
};

std::vector<Input> build_inputs() {
  std::vector<Input> inputs;
  graph::RmatParams rmat;
  rmat.scale = 10;
  rmat.edge_factor = 8;
  rmat.seed = 3;
  inputs.push_back({"rmat10", graph::generate_rmat(rmat)});
  graph::WebcrawlParams crawl;
  crawl.num_vertices = 1 << 12;
  inputs.push_back({"webcrawl12", graph::generate_webcrawl(crawl)});
  graph::ErdosRenyiParams er;
  er.num_vertices = 1000;
  er.edge_probability = 0.01;
  er.seed = 5;
  inputs.push_back({"erdos-renyi", graph::generate_erdos_renyi(er)});

  EdgeList single{1};
  single.add(0, 0);
  inputs.push_back({"n=1", std::move(single)});

  EdgeList loops{5};
  for (int rep = 0; rep < 2; ++rep) {
    for (vid_t v = 0; v < 5; ++v) loops.add(v, v);
  }
  inputs.push_back({"self-loops only", std::move(loops)});

  EdgeList dups{4};
  for (int rep = 0; rep < 50; ++rep) dups.add(1, 2);
  inputs.push_back({"duplicates only", std::move(dups)});

  // Vertex 0's block is several slots' even share of the arcs.
  EdgeList hub{64};
  for (int rep = 0; rep < 4; ++rep) {
    for (vid_t v = 1; v < 64; ++v) hub.add(0, v);
  }
  for (vid_t v = 1; v + 1 < 64; ++v) hub.add(v, v + 1);
  inputs.push_back({"hub", std::move(hub)});

  // Only vertices 0..9 have edges.
  EdgeList isolated{100};
  for (vid_t u = 0; u < 10; ++u) {
    for (vid_t v = 0; v < 10; ++v) {
      if ((u * 7 + v * 3) % 4 == 0) isolated.add(u, v);
    }
  }
  inputs.push_back({"isolated vertices", std::move(isolated)});

  // A prime vertex count: no slot count divides it.
  graph::ErdosRenyiParams prime;
  prime.num_vertices = 1009;
  prime.edge_probability = 8.0 / 1009;
  prime.seed = 11;
  inputs.push_back({"n=1009", graph::generate_erdos_renyi(prime)});
  return inputs;
}

void expect_same_csr(const graph::CsrGraph& got,
                     const std::vector<eid_t>& offsets,
                     const std::vector<vid_t>& adjacency) {
  EXPECT_EQ(got.offsets(), offsets);
  EXPECT_EQ(got.adjacency(), adjacency);
}

// ---- partitions: the one-thread build, and a push_back + sort oracle ----

struct Block {
  vid_t nrows, ncols;
  std::vector<vid_t> jc, ir;
  std::vector<eid_t> cp;
  std::size_t bytes;
  friend bool operator==(const Block&, const Block&) = default;
};

std::vector<Block> blocks_of(const dist::Partition2D& part, int ranks) {
  std::vector<Block> out;
  for (int r = 0; r < ranks; ++r) {
    const sparse::DcscMatrix& b = part.block(r);
    out.push_back(
        {b.nrows(), b.ncols(), b.jc(), b.ir(), b.cp(), b.memory_bytes()});
  }
  return out;
}

std::vector<Block> oracle_blocks(const EdgeList& edges, vid_t n,
                                 const simmpi::ProcessGrid& grid,
                                 bool triangular) {
  const dist::BlockPartition blocks(n, grid.pr());
  std::vector<std::vector<sparse::Triple>> triples(
      static_cast<std::size_t>(grid.ranks()));
  for (const Edge& e : edges.edges()) {
    if (triangular && e.v > e.u) continue;
    const int i = blocks.owner(e.v);
    const int j = blocks.owner(e.u);
    triples[static_cast<std::size_t>(grid.rank_of(i, j))].push_back(
        {e.v - blocks.begin(i), e.u - blocks.begin(j)});
  }
  std::vector<Block> out;
  for (int r = 0; r < grid.ranks(); ++r) {
    const auto b = sparse::DcscMatrix::from_triples(
        blocks.size(grid.row_of(r)), blocks.size(grid.col_of(r)),
        std::move(triples[static_cast<std::size_t>(r)]));
    out.push_back({b.nrows(), b.ncols(), b.jc(), b.ir(), b.cp(), 0});
  }
  return out;
}

TEST(GraphSetUp, MatchesSerialOracleAtEveryHostThreadCount) {
  std::vector<std::pair<graph::RmatParams, std::vector<Edge>>> rmats;
  for (int scale : {4, 12, 15}) {
    for (bool noise : {true, false}) {
      graph::RmatParams p;
      p.scale = scale;
      p.noise = noise;
      p.seed = 17 + static_cast<std::uint64_t>(scale);
      rmats.emplace_back(p, oracle_rmat(p));
    }
  }

  const std::vector<Input> inputs = build_inputs();
  std::vector<graph::BuildOptions> builds;
  for (bool shuffle : {false, true}) {
    for (bool symmetrize : {false, true}) {
      graph::BuildOptions opts;
      opts.shuffle = shuffle;
      opts.symmetrize = symmetrize;
      opts.shuffle_seed = 23;
      builds.push_back(opts);
    }
  }

  // Partitions of a symmetric graph (the triangular form needs one).
  const graph::BuiltGraph built = test::rmat_graph(11, 8, 9);
  const vid_t n = built.csr.num_vertices();
  const std::vector<simmpi::ProcessGrid> grids = {
      simmpi::ProcessGrid::closest_square(16, 1),
      simmpi::ProcessGrid::closest_square(9, 1)};
  std::vector<std::vector<Block>> blocks_1t;

  for (int threads = 1; threads <= test::kMaxHostThreads; ++threads) {
    test::HostThreads scope(threads);
    SCOPED_TRACE("host threads " + std::to_string(threads));

    for (const auto& [params, expected] : rmats) {
      SCOPED_TRACE("rmat scale " + std::to_string(params.scale) +
                   (params.noise ? " noise" : " pure"));
      EXPECT_EQ(graph::generate_rmat(params).edges(), expected);
    }

    for (const Input& input : inputs) {
      for (const graph::BuildOptions& opts : builds) {
        SCOPED_TRACE(input.name + (opts.shuffle ? " shuffled" : "") +
                     (opts.symmetrize ? " symmetrized" : ""));
        const OracleGraph want = oracle_build(input.edges, opts);
        const graph::BuiltGraph got = graph::build_graph(input.edges, opts);
        EXPECT_EQ(got.edges.edges(), want.edges);
        EXPECT_EQ(got.edges.num_vertices(), input.edges.num_vertices());
        EXPECT_EQ(got.new_to_old, want.new_to_old);
        EXPECT_EQ(got.directed_edge_count, input.edges.num_edges());
        expect_same_csr(got.csr, want.offsets, want.adjacency);
      }
    }

    for (core::Algorithm algo :
         {core::Algorithm::kSerial, core::Algorithm::kOneDFlat,
          core::Algorithm::kTwoDFlat}) {
      SCOPED_TRACE(core::to_string(algo));
      core::EngineOptions opts;
      opts.algorithm = algo;
      opts.cores = 16;
      const core::Engine engine(built.edges, n, opts);
      expect_same_csr(engine.csr(), built.csr.offsets(),
                      built.csr.adjacency());
    }

    std::size_t k = 0;
    for (const simmpi::ProcessGrid& grid : grids) {
      for (bool triangular : {false, true}) {
        SCOPED_TRACE("grid " + std::to_string(grid.ranks()) +
                     (triangular ? " triangular" : " plain"));
        const dist::Partition2D part(built.csr, grid, triangular);
        std::vector<Block> got = blocks_of(part, grid.ranks());
        if (threads == 1) {
          std::vector<Block> without_bytes = got;
          for (Block& b : without_bytes) b.bytes = 0;
          EXPECT_EQ(without_bytes,
                    oracle_blocks(built.edges, n, grid, triangular));
          blocks_1t.push_back(std::move(got));
        } else {
          EXPECT_EQ(got, blocks_1t[k]);
        }
        ++k;
      }
    }
  }
}

}  // namespace
}  // namespace dbfs
