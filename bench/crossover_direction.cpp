// Crossover study for the direction-optimized 2D engine: the Beamer
// SC'12 "edge examinations per level" plot, reproduced on the simulated
// 2D SpMSV traversal. For each scale we run the same search twice —
// --direction topdown and --direction hybrid — and print the per-level
// edge examinations side by side, marking the levels where the alpha-beta
// heuristic crossed over to bottom-up (and back). The middle levels are
// where the R-MAT frontier covers most of the graph and bottom-up's
// early-exit scan examines a small fraction of the top-down adjacencies.
//
// Doubles as the acceptance gate for the hybrid: at the largest scale the
// hybrid must examine < 50% of the top-down edge count or the bench exits
// nonzero.
#include "harness/harness.hpp"

#include "bfs/report.hpp"

namespace {

using namespace dbfs;
using namespace dbfs::bench;

struct ScaleResult {
  eid_t top_down = 0;
  eid_t hybrid = 0;
};

ScaleResult run_scale(int scale) {
  const Workload w = make_rmat_workload(scale, 16, 1);
  const vid_t source = w.sources.front();

  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kTwoDFlat;
  opts.cores = 64;
  opts.machine = model::hopper();
  opts.wire_format = comm::WireFormat::kAuto;

  core::Engine td_engine{w.built.edges, w.n, opts};
  const auto td = td_engine.run(source);

  opts.direction = bfs::DirectionMode::kHybrid;
  core::Engine hy_engine{w.built.edges, w.n, opts};
  const auto hy = hy_engine.run(source);

  std::printf("\nscale %d (%lld vertices, %lld directed edges)\n", scale,
              static_cast<long long>(w.n),
              static_cast<long long>(w.built.directed_edge_count));
  std::printf("%5s %12s %16s %16s %9s  %s\n", "level", "frontier",
              "top-down edges", "hybrid edges", "ratio", "direction");

  ScaleResult total;
  const std::size_t levels =
      std::max(td.report.levels.size(), hy.report.levels.size());
  for (std::size_t i = 0; i < levels; ++i) {
    const bfs::LevelStats* t =
        i < td.report.levels.size() ? &td.report.levels[i] : nullptr;
    const bfs::LevelStats* h =
        i < hy.report.levels.size() ? &hy.report.levels[i] : nullptr;
    const eid_t te = t != nullptr ? t->edges_scanned : 0;
    const eid_t he = h != nullptr ? h->edges_scanned : 0;
    total.top_down += te;
    total.hybrid += he;
    const bool bottom_up = h != nullptr && h->bottom_up;
    std::printf("%5zu %12lld %16lld %16lld %9.3f  %s%s\n", i,
                static_cast<long long>(t != nullptr ? t->frontier : 0),
                static_cast<long long>(te), static_cast<long long>(he),
                te > 0 ? static_cast<double>(he) / static_cast<double>(te)
                       : 0.0,
                bottom_up ? "bottom-up" : "top-down",
                h != nullptr && static_cast<bfs::DiropRationale>(
                                    h->dirop_rationale) ==
                                    bfs::DiropRationale::kEngage
                    ? "  <- crossover"
                    : (h != nullptr && static_cast<bfs::DiropRationale>(
                                           h->dirop_rationale) ==
                                           bfs::DiropRationale::kDisengage
                           ? "  <- crossover back"
                           : ""));
  }
  const double ratio =
      total.top_down > 0
          ? static_cast<double>(total.hybrid) /
                static_cast<double>(total.top_down)
          : 0.0;
  std::printf("%5s %12s %16lld %16lld %9.3f  (%lld bottom-up level(s), "
              "%.1f%% of edges cut)\n",
              "total", "", static_cast<long long>(total.top_down),
              static_cast<long long>(total.hybrid), ratio,
              static_cast<long long>(hy.report.dirop.bottom_up_levels),
              100.0 * (1.0 - ratio));
  return total;
}

}  // namespace

int main() {
  using namespace dbfs;
  using namespace dbfs::bench;

  const int max_scale = util::bench_scale(16);

  print_header("Crossover: direction-optimized 2D SpMSV traversal",
               "edge-examination plot after Beamer et al., SC'12",
               "R-MAT ef 16, 64 cores, hopper, --wire-format auto; "
               "topdown vs hybrid per level");

  ScaleResult last;
  for (int scale = max_scale - 2; scale <= max_scale; ++scale) {
    last = run_scale(scale);
  }

  const double final_ratio =
      static_cast<double>(last.hybrid) / static_cast<double>(last.top_down);
  std::printf("\nacceptance: hybrid examines %.1f%% of top-down edges at "
              "scale %d (gate: < 50%%)\n",
              100.0 * final_ratio, max_scale);
  if (final_ratio >= 0.5) {
    std::fprintf(stderr,
                 "crossover_direction: FAILED — hybrid examined %.1f%% of "
                 "top-down edges at scale %d (>= 50%%)\n",
                 100.0 * final_ratio, max_scale);
    return 1;
  }
  return 0;
}
