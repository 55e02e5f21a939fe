// Figure 5: BFS strong-scaling GTEPS on Franklin (Cray XT4) for Graph500
// R-MAT graphs. Panel (a): p in {512..4096} on the scale-29 class; panel
// (b): p in {4096..8192} on the scale-32 class. Expected shapes (paper
// §6): flat 1D leads the 2D codes by ~1.5-1.8x on this architecture
// (slow cores, relatively strong network), and the 1D hybrid overtakes
// flat 1D at the highest concurrencies as the NIC/bisection saturates.
//
// Graphs are scaled down (DISTBFS_SCALE overrides); machine latencies are
// rescaled by the same factor (see scaled_machine in harness/harness.hpp).
#include "harness/scaling.hpp"

int main() {
  using namespace dbfs;
  using namespace dbfs::bench;

  const int nsources = bench_sources();

  {
    const int scale = util::bench_scale(15);
    ScalingSpec spec;
    spec.title = "Figure 5(a): strong scaling GTEPS, Franklin";
    spec.paper_ref = "Fig 5(a), n=2^29 m=2^33";
    spec.machine = model::franklin();
    spec.paper_log2_edges = 33;
    spec.cores = {512, 1024, 2048, 4096};
    spec.scale = scale;
    spec.edge_factor = 16;
    const Workload w = make_rmat_workload(scale, 16, nsources);
    print_header(spec.title, spec.paper_ref,
                 "ours: scale " + std::to_string(scale) +
                     ", edgefactor 16, latency-rescaled franklin");
    ScalingRunner runner{spec, w};
    runner.print_table(/*show_comm=*/false);
  }

  {
    const int scale = util::bench_scale(16);
    ScalingSpec spec;
    spec.title = "Figure 5(b): strong scaling GTEPS, Franklin";
    spec.paper_ref = "Fig 5(b), n=2^32 m=2^36";
    spec.machine = model::franklin();
    spec.paper_log2_edges = 36;
    spec.cores = {4096, 6400, 8192};
    spec.scale = scale;
    spec.edge_factor = 16;
    const Workload w = make_rmat_workload(scale, 16, nsources);
    print_header(spec.title, spec.paper_ref,
                 "ours: scale " + std::to_string(scale) +
                     ", edgefactor 16, latency-rescaled franklin");
    ScalingRunner runner{spec, w};
    runner.print_table(/*show_comm=*/false);
  }
  return 0;
}
