// Figure 9: weak scaling on Franklin — fixed R-MAT edges per core (the
// paper fixes ~17M/core), p in {512..4096}; panel (a) mean search time,
// panel (b) communication time. Ideal is a flat line. Expected shapes
// (paper §6): in this regime flat 1D beats hybrid 1D (hybrid's intra-node
// overheads aren't yet bought back by smaller collectives), and the 2D
// codes communicate least but pay more computation, landing behind 1D
// overall on this architecture.
#include "harness/scaling.hpp"

int main() {
  using namespace dbfs;
  using namespace dbfs::bench;

  const int nsources = bench_sources();
  // Scale 13 at 512 cores, +1 per doubling: fixed edges per core.
  const int base_scale = util::bench_scale(13);
  const int cores_list[] = {512, 1024, 2048, 4096};

  print_header("Figure 9: weak scaling, Franklin",
               "Fig 9, ~17M edges/core",
               "ours: scale " + std::to_string(base_scale) + "+log2(p/512)"
                   ", edgefactor 16, latency-rescaled franklin");

  struct Row {
    int cores;
    MeanTimes results[4];
  };
  std::vector<Row> rows;
  for (int i = 0; i < 4; ++i) {
    const int cores = cores_list[i];
    const int scale = base_scale + i;
    const Workload w = make_rmat_workload(scale, 16, nsources);
    ScalingSpec spec;
    spec.machine = model::franklin();
    spec.paper_log2_edges = 33 + i;  // paper: ~17M edges/core => 2^33 total at 512
    spec.cores = {cores};
    spec.scale = scale;
    spec.edge_factor = 16;
    ScalingRunner runner{spec, w};
    Row row;
    row.cores = cores;
    int k = 0;
    for (const Column& c : kColumns) {
      row.results[k++] = runner.point(c.algorithm, cores);
    }
    rows.push_back(row);
  }

  std::printf("\n(a) mean search time (seconds; flat line = ideal)\n");
  std::printf("%-8s", "cores");
  print_column_names();
  std::printf("\n");
  for (const Row& row : rows) {
    std::printf("%-8d", row.cores);
    for (const MeanTimes& r : row.results) {
      std::printf(" %14.6f ", r.total);
    }
    std::printf("\n");
  }

  std::printf("\n(b) communication time (seconds)\n");
  std::printf("%-8s", "cores");
  print_column_names();
  std::printf("\n");
  for (const Row& row : rows) {
    std::printf("%-8d", row.cores);
    for (const MeanTimes& r : row.results) {
      std::printf(" %14.6f ", r.comm);
    }
    std::printf("\n");
  }
  return 0;
}
