// Figure 8: inter-node communication time on Hopper for the Figure 7
// configurations. Expected shape (paper §6): 1D communication blows up
// with core count (flat 1D's comm consumed >90% of execution by 20K
// cores) while the 2D hybrid stays under ~50% at 20K — the headline
// "3.5x communication reduction" of the paper comes from comparing these
// series.
#include "harness/scaling.hpp"

int main() {
  using namespace dbfs;
  using namespace dbfs::bench;

  const int nsources = bench_sources();

  {
    const int scale = util::bench_scale(15);
    ScalingSpec spec;
    spec.title = "Figure 8(a): communication time, Hopper";
    spec.paper_ref = "Fig 8(a), n=2^30 m=2^34";
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
    runner.print_table(/*show_comm=*/true);
  }

  {
    const int scale = util::bench_scale(16);
    ScalingSpec spec;
    spec.title = "Figure 8(b): communication time, Hopper";
    spec.paper_ref = "Fig 8(b), n=2^32 m=2^36";
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
    runner.print_table(/*show_comm=*/true);

    // The paper's headline: communication reduced by up to 3.5x relative
    // to the flat 1D code. Report the measured ratio at the top end.
    const MeanTimes flat1d = runner.point(Algo::kOneDFlat, 20000);
    const MeanTimes hyb2d = runner.point(Algo::kTwoDHybrid, 20000);
    std::printf("\ncomm(1D Flat)/comm(2D Hybrid) at 20000 cores: %.2fx "
                "(paper: up to 3.5x)\n",
                flat1d.comm / hyb2d.comm);
  }
  return 0;
}
