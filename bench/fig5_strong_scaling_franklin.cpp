// Figures 5 and 6: BFS strong scaling on Franklin (Cray XT4) for Graph500
// R-MAT graphs, printed as two views of one sweep per panel: GTEPS
// (Fig 5), then inter-node MPI communication time including barrier
// waits (Fig 6). Panel (a): p in {512..4096} on the scale-29 class;
// panel (b): p in {4096..8192} on the scale-32 class. Expected shapes
// (paper §6):
//  * Fig 5: flat 1D leads the 2D codes by ~1.5-1.8x on this architecture
//    (slow cores, relatively strong network), and the 1D hybrid
//    overtakes flat 1D at the highest concurrencies as the NIC/bisection
//    saturates.
//  * Fig 6: the 2D algorithms consistently spend 30-60% less time in
//    communication than their 1D counterparts — smaller collective
//    groups (sqrt(p) participants) move the same data faster — and the
//    hybrid variants cut communication further by shrinking the groups.
//
// Graphs are scaled down (DISTBFS_SCALE overrides); machine latencies are
// rescaled by the same factor (see scaled_machine in harness/harness.hpp).
#include "harness/scaling.hpp"

int main() {
  using namespace dbfs;
  using namespace dbfs::bench;

  const int nsources = bench_sources();
  const int scale_a = util::bench_scale(15);
  const int scale_b = util::bench_scale(16);
  const Workload wa = make_rmat_workload(scale_a, 16, nsources);
  const Workload wb = make_rmat_workload(scale_b, 16, nsources);
  ScalingRunner a{{.machine = model::franklin(),
                   .paper_log2_edges = 33,
                   .cores = {512, 1024, 2048, 4096},
                   .scale = scale_a,
                   .edge_factor = 16},
                  wa};
  ScalingRunner b{{.machine = model::franklin(),
                   .paper_log2_edges = 36,
                   .cores = {4096, 6400, 8192},
                   .scale = scale_b,
                   .edge_factor = 16},
                  wb};

  a.print_panel("Figure 5(a): strong scaling GTEPS, Franklin",
                "Fig 5(a), n=2^29 m=2^33", /*show_comm=*/false);
  b.print_panel("Figure 5(b): strong scaling GTEPS, Franklin",
                "Fig 5(b), n=2^32 m=2^36", /*show_comm=*/false);
  a.print_panel("Figure 6(a): communication time, Franklin",
                "Fig 6(a), n=2^29 m=2^33", /*show_comm=*/true);
  b.print_panel("Figure 6(b): communication time, Franklin",
                "Fig 6(b), n=2^32 m=2^36", /*show_comm=*/true);
  return 0;
}
