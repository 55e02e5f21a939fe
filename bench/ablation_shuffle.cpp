// Ablation A (paper §4.4): random vertex relabeling before partitioning.
// Measures per-rank vertex/edge imbalance and the resulting simulated
// BFS time with and without the shuffle, on skewed R-MAT input.
// Expected: R-MAT's self-similarity concentrates edges on low vertex ids,
// so without the shuffle rank 0's overload throttles every level; the
// shuffle restores near-uniform loads (the Graph500 strategy).
#include "harness/harness.hpp"

#include "dist/partition1d.hpp"

int main() {
  using namespace dbfs;
  using namespace dbfs::bench;

  const int scale = util::bench_scale(14);
  const int nsources = bench_sources(2);
  const int ranks = 64;

  graph::RmatParams params;
  params.scale = scale;
  params.edge_factor = 16;
  const auto raw = graph::generate_rmat(params);

  print_header("Ablation: random vertex shuffle before 1D partitioning",
               "§4.4 load-balancing strategy",
               "ours: scale " + std::to_string(scale) + " R-MAT, " +
                   std::to_string(ranks) + " ranks, franklin");

  std::printf("%-12s %16s %16s %16s %16s\n", "variant", "edge imbalance",
              "max edges/rank", "BFS time (ms)", "GTEPS");
  for (bool shuffle : {false, true}) {
    graph::BuildOptions build;
    build.shuffle = shuffle;
    Workload w;
    w.built = graph::build_graph(raw, build);
    w.n = w.built.csr.num_vertices();
    const auto comps = graph::connected_components(w.built.csr);
    w.sources = graph::sample_sources(w.built.csr, comps, nsources, 3);

    // Each rank's edge load: the out-edges of the vertices it owns.
    const dist::BlockPartition part(w.n, ranks);
    const std::vector<eid_t>& offsets = w.built.csr.offsets();
    std::vector<double> loads;
    eid_t max_edges = 0;
    for (int r = 0; r < ranks; ++r) {
      const eid_t edges = offsets[static_cast<std::size_t>(part.end(r))] -
                          offsets[static_cast<std::size_t>(part.begin(r))];
      loads.push_back(static_cast<double>(edges));
      max_edges = std::max(max_edges, edges);
    }

    core::EngineOptions opts;
    opts.algorithm = core::Algorithm::kOneDFlat;
    opts.cores = ranks;
    opts.machine = scaled_machine(model::franklin(),
                                  w.built.directed_edge_count, 33.0);
    // Exact per-rank pricing: this experiment is *about* imbalance.
    opts.load_smoothing = 0.0;
    const MeanTimes mt = run_config(w, opts);

    std::printf("%-12s %16.3f %16lld %16.3f %16.3f\n",
                shuffle ? "shuffled" : "natural",
                util::imbalance(loads), static_cast<long long>(max_edges),
                mt.total * 1e3, mt.gteps);
  }
  std::printf("\nexpected: the shuffle cuts edge imbalance sharply and "
              "improves BFS time/GTEPS accordingly\n");
  return 0;
}
