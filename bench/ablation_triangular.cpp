// Ablation (paper §7, "Exploiting symmetry in undirected graphs"): store
// only the upper wedge of the symmetric adjacency matrix. The paper
// proposes the 50% space saving and leaves the algorithmic cost an open
// question; this bench quantifies both sides of the trade on our
// implementation (scan-based transpose product + pairwise exchanges):
//   * matrix memory: should drop by ~2x,
//   * BFS time: extra per-level O(nnz_local) scan — cheap when frontiers
//     are huge (R-MAT's bulk levels touch most columns anyway), painful
//     on high-diameter graphs whose ~140 tiny levels each rescan the
//     whole block.
#include "harness/harness.hpp"

#include "dist/partition2d.hpp"

namespace {

using namespace dbfs;
using namespace dbfs::bench;

void run_case(const char* name, const Workload& w,
              const model::MachineModel& machine, int cores) {
  std::printf("\n-- %s, %d cores --\n", name, cores);
  std::printf("%-12s %16s %16s %16s\n", "storage", "matrix MB", "BFS (ms)",
              "comp (ms)");
  for (bool triangular : {false, true}) {
    core::EngineOptions opts;
    opts.algorithm = core::Algorithm::kTwoDFlat;
    opts.cores = cores;
    opts.machine = machine;
    opts.triangular_storage = triangular;
    const MeanTimes mt = run_config(w, opts);

    // Memory measured on a standalone partition with the same grid.
    const auto grid = simmpi::ProcessGrid::closest_square(cores);
    const dist::Partition2D part{w.built.edges, w.n, grid, triangular};
    std::printf("%-12s %16.2f %16.3f %16.3f\n",
                triangular ? "triangular" : "full",
                static_cast<double>(part.memory_bytes()) / 1e6,
                mt.total * 1e3, mt.comp * 1e3);
  }
}

}  // namespace

int main() {
  using namespace dbfs;
  using namespace dbfs::bench;

  const int scale = util::bench_scale(15);
  const int nsources = bench_sources(2);

  print_header("Ablation: triangular (symmetry-exploiting) matrix storage",
               "§7 future work: 50% space via upper-triangle storage",
               "ours: scan-based transpose product per level");

  {
    const Workload w = make_rmat_workload(scale, 16, nsources);
    const auto machine = scaled_machine(model::hopper(),
                                        w.built.directed_edge_count, 34.0);
    for (int cores : {256, 1024}) run_case("R-MAT (low diameter)", w, machine, cores);
  }
  {
    graph::WebcrawlParams params;
    params.num_vertices = vid_t{1} << scale;
    params.target_diameter = 100;
    Workload w;
    w.built = graph::build_graph(graph::generate_webcrawl(params));
    w.n = w.built.csr.num_vertices();
    const auto comps = graph::connected_components(w.built.csr);
    w.sources = graph::sample_sources(w.built.csr, comps, nsources, 3);
    const auto machine = scaled_machine(model::hopper(),
                                        w.built.directed_edge_count, 34.0);
    for (int cores : {256}) run_case("web crawl (high diameter)", w, machine, cores);
  }
  std::printf("\nexpected: ~2x matrix-memory saving in both cases; modest "
              "slowdown on R-MAT, large slowdown on the high-diameter graph "
              "(per-level full-block rescans)\n");
  return 0;
}
