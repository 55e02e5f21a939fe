// Figure 11: the uk-union web crawl (diameter ~140, ~140 BFS iterations)
// on Hopper — 2D Flat vs 2D Hybrid, computation/communication split,
// p in {500, 1000, 2000, 4000}. Expected shapes (paper §6):
//  * communication is a small fraction of execution even at 4000 cores
//    (many tiny frontiers -> little data to move),
//  * because communication doesn't matter here, the hybrid code's
//    intra-node overheads make it *slower* than flat MPI,
//  * ~4x speedup going from 500 to 4000 cores.
// We substitute the proprietary crawl with the synthetic `webcrawl`
// generator (see DESIGN.md) at the same diameter.
#include "harness/harness.hpp"

int main() {
  using namespace dbfs;
  using namespace dbfs::bench;

  const int log_n = util::bench_scale(17);
  const int diameter =
      static_cast<int>(util::env_int("DISTBFS_DIAMETER", 140));
  const int nsources = bench_sources(2);

  graph::WebcrawlParams params;
  params.num_vertices = vid_t{1} << log_n;
  params.target_diameter = diameter;
  // uk-union averages ~40 links/page; match its density so the
  // compute:communication balance lands in the paper's regime.
  params.intra_edge_factor = 16;
  Workload w;
  w.built = graph::build_graph(graph::generate_webcrawl(params));
  w.n = w.built.csr.num_vertices();
  const auto comps = graph::connected_components(w.built.csr);
  w.sources = graph::sample_sources(w.built.csr, comps, nsources, 11);

  // uk-union has ~5.5B directed edges; rescale latencies accordingly.
  const auto machine =
      scaled_machine(model::hopper(), w.built.directed_edge_count,
                     std::log2(5.5e9));

  print_header("Figure 11: high-diameter web crawl (uk-union stand-in), "
               "Hopper",
               "Fig 11, uk-union, diameter ~140",
               "ours: 2^" + std::to_string(log_n) + " pages, diameter " +
                   std::to_string(diameter) + ", latency-rescaled hopper");

  std::printf("%-8s %-12s %14s %14s %14s %8s\n", "cores", "algorithm",
              "total (ms)", "comp (ms)", "comm (ms)", "comm%");
  double flat_500 = 0;
  double flat_4000 = 0;
  for (int cores : {500, 1000, 2000, 4000}) {
    for (bool hybrid : {false, true}) {
      core::EngineOptions opts;
      opts.algorithm = hybrid ? core::Algorithm::kTwoDHybrid
                              : core::Algorithm::kTwoDFlat;
      opts.cores = cores;
      opts.machine = machine;
      const MeanTimes mt = run_config(w, opts);
      std::printf("%-8d %-12s %14.3f %14.3f %14.3f %7.1f%%\n", cores,
                  hybrid ? "2D Hybrid" : "2D Flat", mt.total * 1e3,
                  mt.comp * 1e3, mt.comm * 1e3,
                  100.0 * mt.comm / (mt.comm + mt.comp));
      if (!hybrid && cores == 500) flat_500 = mt.total;
      if (!hybrid && cores == 4000) flat_4000 = mt.total;
    }
  }
  std::printf("\nspeedup of 2D Flat from 500 to 4000 cores: %.2fx "
              "(paper: ~4x)\n",
              flat_500 / flat_4000);
  std::printf("expected: hybrid slower than flat here (communication is "
              "minor, intra-node overheads dominate ~%d tiny levels)\n",
              diameter);
  return 0;
}
