// Figure 10: GTEPS under varying average degree at fixed total edge
// count — (scale 31, degree 4), (scale 29, degree 16), (scale 27,
// degree 64) in the paper, at p = 1024 and p = 4096. Expected shape
// (paper §6): the 1D lead over 2D grows as the graph gets *sparser*, and
// the flat 2D algorithm beats flat 1D for the first time on the densest
// (degree 64) instance — for fixed edges, denser graphs mean shorter
// frontier/parent vectors, shrinking the 2D code's cache-miss penalty.
#include "harness/scaling.hpp"

int main() {
  using namespace dbfs;
  using namespace dbfs::bench;

  const int nsources = bench_sources();
  // Fixed edge budget: scale+2/deg4, scale/deg16, scale-2/deg64.
  const int mid_scale = util::bench_scale(14);

  struct Config {
    int scale;
    int degree;
  };
  const Config configs[] = {{mid_scale + 2, 4},
                            {mid_scale, 16},
                            {mid_scale - 2, 64}};

  for (int cores : {1024, 4096}) {
    print_header(
        cores == 1024 ? "Figure 10(a): GTEPS vs average degree, p=1024"
                      : "Figure 10(b): GTEPS vs average degree, p=4096",
        "Fig 10, fixed edges, degrees {4,16,64}",
        "ours: scales {" + std::to_string(mid_scale + 2) + "," +
            std::to_string(mid_scale) + "," + std::to_string(mid_scale - 2) +
            "}, latency-rescaled franklin");

    std::printf("%-22s", "config");
    print_column_names();
    std::printf("  (GTEPS)\n");

    for (const Config& cfg : configs) {
      const Workload w = make_rmat_workload(cfg.scale, cfg.degree, nsources);
      ScalingSpec spec;
      spec.machine = model::franklin();
      // Paper's fixed budget is 2^33 edges across all three configs.
      spec.paper_log2_edges = 33;
      spec.cores = {cores};
      spec.scale = cfg.scale;
      spec.edge_factor = cfg.degree;
      ScalingRunner runner{spec, w};

      std::printf("scale %-2d, degree %-5d", cfg.scale, cfg.degree);
      for (const Column& c : kColumns) {
        const MeanTimes r = runner.point(c.algorithm, cores);
        std::printf(" %14.3f ", r.gteps);
      }
      std::printf("\n");
    }
    }
  return 0;
}
