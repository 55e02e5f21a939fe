// Figures 7 and 8: BFS strong scaling on Hopper (Cray XE6), printed as
// two views of one sweep per panel: GTEPS (Fig 7), then inter-node
// communication time (Fig 8). Panel (a): p in {1224..10008} on the
// scale-30 class; panel (b): p in {5040..40000} on the scale-32 class.
// Expected shapes (paper §6):
//  * Fig 7: in contrast to Franklin, the 2D algorithms score *higher*
//    than 1D here — Magny-Cours integer cores got much faster while
//    per-core bisection bandwidth regressed, so communication efficiency
//    decides the race.
//  * Fig 8: 1D communication blows up with core count (flat 1D's comm
//    consumed >90% of execution by 20K cores) while the 2D hybrid stays
//    under ~50% at 20K — the headline "3.5x communication reduction" of
//    the paper comes from comparing these series.
// The paper did not run flat 1D at 40K cores (its communication already
// consumed >90% of execution beyond 10-20K); the simulator runs it for
// comparison.
#include "harness/scaling.hpp"

int main() {
  using namespace dbfs;
  using namespace dbfs::bench;

  const int nsources = bench_sources();
  const int scale_a = util::bench_scale(15);
  const int scale_b = util::bench_scale(16);
  const Workload wa = make_rmat_workload(scale_a, 16, nsources);
  const Workload wb = make_rmat_workload(scale_b, 16, nsources);
  ScalingRunner a{{.machine = model::hopper(),
                   .paper_log2_edges = 34,
                   .cores = {1224, 2500, 5040, 10008},
                   .scale = scale_a,
                   .edge_factor = 16},
                  wa};
  ScalingRunner b{{.machine = model::hopper(),
                   .paper_log2_edges = 36,
                   .cores = {5040, 10008, 20000, 40000},
                   .scale = scale_b,
                   .edge_factor = 16},
                  wb};

  a.print_panel("Figure 7(a): strong scaling GTEPS, Hopper",
                "Fig 7(a), n=2^30 m=2^34", /*show_comm=*/false);
  b.print_panel("Figure 7(b): strong scaling GTEPS, Hopper",
                "Fig 7(b), n=2^32 m=2^36", /*show_comm=*/false);
  a.print_panel("Figure 8(a): communication time, Hopper",
                "Fig 8(a), n=2^30 m=2^34", /*show_comm=*/true);
  b.print_panel("Figure 8(b): communication time, Hopper",
                "Fig 8(b), n=2^32 m=2^36", /*show_comm=*/true);

  // The paper's headline: communication reduced by up to 3.5x relative
  // to the flat 1D code. Report the measured ratio at the top end.
  const MeanTimes flat1d = b.point(core::Algorithm::kOneDFlat, 20000);
  const MeanTimes hyb2d = b.point(core::Algorithm::kTwoDHybrid, 20000);
  std::printf("\ncomm(1D Flat)/comm(2D Hybrid) at 20000 cores: %.2fx "
              "(paper: up to 3.5x)\n",
              flat1d.comm / hyb2d.comm);
  return 0;
}
