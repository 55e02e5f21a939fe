// Ablation: 1D partition strategies on natural-order (unshuffled) R-MAT.
// The paper balances load by randomly relabeling vertices (§4.4) and
// lists smarter partitioning as future work (§7). When relabeling is not
// an option (vertex ids carry meaning, or the reordering pass is too
// expensive), non-uniform block boundaries equalizing per-rank *edges*
// recover most of the balance deterministically — at the cost of keeping
// the natural order's locality-driven communication pattern.
#include "harness/harness.hpp"

#include "bfs/bfs1d.hpp"

int main() {
  using namespace dbfs;
  using namespace dbfs::bench;

  const int scale = util::bench_scale(14);
  const int ranks = 64;

  graph::RmatParams params;
  params.scale = scale;
  params.edge_factor = 16;
  graph::BuildOptions build;
  build.shuffle = false;  // the regime where partitioning must do the work
  Workload w;
  w.built = graph::build_graph(graph::generate_rmat(params), build);
  w.n = w.built.csr.num_vertices();
  const auto comps = graph::connected_components(w.built.csr);
  w.sources = graph::sample_sources(w.built.csr, comps, bench_sources(2), 5);
  const auto machine =
      scaled_machine(model::franklin(), w.built.directed_edge_count, 33.0);

  print_header("Ablation: 1D partition strategy on natural-order R-MAT",
               "§4.4 shuffle vs §7 smarter partitioning",
               "ours: scale " + std::to_string(scale) + ", " +
                   std::to_string(ranks) + " ranks, no vertex relabeling");

  std::printf("%-16s %16s %16s %16s\n", "partition", "edge imbalance",
              "BFS time (ms)", "GTEPS");
  for (auto mode : {bfs::PartitionMode::kUniform,
                    bfs::PartitionMode::kEdgeBalanced}) {
    // Exact per-rank volumes: imbalance is the subject.
    bfs::Bfs1D bfs{w.built.csr,
                   {.algorithm = core::Algorithm::kOneDFlat,
                    .cores = ranks,
                    .machine = machine,
                    .partition_mode = mode,
                    .load_smoothing = 0.0}};

    // Each rank's edge load: the out-edges of the vertices it owns.
    const auto& part = bfs.partition();
    const std::vector<eid_t>& offsets = w.built.csr.offsets();
    std::vector<double> loads;
    for (int r = 0; r < ranks; ++r) {
      loads.push_back(static_cast<double>(
          offsets[static_cast<std::size_t>(part.end(r))] -
          offsets[static_cast<std::size_t>(part.begin(r))]));
    }

    double total = 0;
    for (vid_t source : w.sources) {
      total += bfs.run(source).report.total_seconds;
    }
    total /= static_cast<double>(w.sources.size());
    std::printf("%-16s %16.3f %16.3f %16.3f\n",
                mode == bfs::PartitionMode::kUniform ? "uniform"
                                                     : "edge-balanced",
                util::imbalance(loads), total * 1e3,
                static_cast<double>(w.built.directed_edge_count) / total /
                    1e9);
  }
  std::printf("\nexpected: edge-balanced boundaries remove most of the "
              "natural-order skew (R-MAT packs edges onto low vertex ids) "
              "and recover much of the shuffle's BFS-time benefit\n");
  return 0;
}
