// Figure 7: BFS strong-scaling GTEPS on Hopper (Cray XE6). Panel (a):
// p in {1224..10008} on the scale-30 class; panel (b): p in
// {5040..40000} on the scale-32 class. Expected shape (paper §6): in
// contrast to Franklin, the 2D algorithms score *higher* than 1D here —
// Magny-Cours integer cores got much faster while per-core bisection
// bandwidth regressed, so communication efficiency decides the race.
// The paper did not run flat 1D at 40K cores (its communication already
// consumed >90% of execution beyond 10-20K); the simulator runs it for
// comparison.
#include "harness/scaling.hpp"

int main() {
  using namespace dbfs;
  using namespace dbfs::bench;

  const int nsources = bench_sources();

  {
    const int scale = util::bench_scale(15);
    ScalingSpec spec;
    spec.title = "Figure 7(a): strong scaling GTEPS, Hopper";
    spec.paper_ref = "Fig 7(a), n=2^30 m=2^34";
    spec.machine = model::hopper();
    spec.paper_log2_edges = 34;
    spec.cores = {1224, 2500, 5040, 10008};
    spec.scale = scale;
    spec.edge_factor = 16;
    const Workload w = make_rmat_workload(scale, 16, nsources);
    print_header(spec.title, spec.paper_ref,
                 "ours: scale " + std::to_string(scale) +
                     ", edgefactor 16, latency-rescaled hopper");
    ScalingRunner runner{spec, w};
    runner.print_table(/*show_comm=*/false);
  }

  {
    const int scale = util::bench_scale(16);
    ScalingSpec spec;
    spec.title = "Figure 7(b): strong scaling GTEPS, Hopper";
    spec.paper_ref = "Fig 7(b), n=2^32 m=2^36";
    spec.machine = model::hopper();
    spec.paper_log2_edges = 36;
    spec.cores = {5040, 10008, 20000, 40000};
    spec.scale = scale;
    spec.edge_factor = 16;
    const Workload w = make_rmat_workload(scale, 16, nsources);
    print_header(spec.title, spec.paper_ref,
                 "ours: scale " + std::to_string(scale) +
                     ", edgefactor 16, latency-rescaled hopper");
    ScalingRunner runner{spec, w};
    runner.print_table(/*show_comm=*/false);
  }
  return 0;
}
