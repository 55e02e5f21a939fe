// Figure 4: per-rank MPI-time heatmap on a 16x16 process grid when the
// sparse vectors are distributed to the *diagonal* processors only (the
// classical "1D vector distribution"). Expected shape (paper §4.3): the
// diagonal's serial fold-side merge leaves the off-diagonal ranks idling
// in the next blocking collective — idle time ~3-4x the actual transfer
// time — while the 2D vector distribution shows almost no imbalance.
//
// We print both heatmaps (percent of the max rank's MPI time, as in the
// paper's normalization) plus summary ratios.
#include "harness/harness.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"

namespace {

using namespace dbfs;
using namespace dbfs::bench;

void print_heatmap(const bfs::RunReport& report, int s) {
  double max_comm = 0;
  for (double c : report.per_rank_comm) max_comm = std::max(max_comm, c);
  for (int i = 0; i < s; ++i) {
    for (int j = 0; j < s; ++j) {
      const double c = report.per_rank_comm[static_cast<std::size_t>(
          i * s + j)];
      std::printf(" %3.0f", 100.0 * c / max_comm);
    }
    std::printf("\n");
  }
}

double diagonal_vs_offdiagonal(const bfs::RunReport& report, int s) {
  double diag = 0;
  double off = 0;
  for (int i = 0; i < s; ++i) {
    for (int j = 0; j < s; ++j) {
      const double c = report.per_rank_comm[static_cast<std::size_t>(
          i * s + j)];
      if (i == j) {
        diag += c;
      } else {
        off += c / (s - 1);
      }
    }
  }
  return off / diag;  // >1: off-diagonal ranks wait on the diagonal
}

}  // namespace

int main() {
  using namespace dbfs;
  using namespace dbfs::bench;

  const int scale = util::bench_scale(14);
  const Workload w = make_rmat_workload(scale, 16, 1);
  const auto machine =
      scaled_machine(model::franklin(), w.built.directed_edge_count, 33.0);
  const int s = 16;

  print_header("Figure 4: MPI time per rank, 16x16 grid, vector "
               "distribution comparison",
               "Fig 4 (diagonal-only vectors) + §4.3 (2D vectors)",
               "ours: scale " + std::to_string(scale) +
                   " R-MAT, 256 simulated ranks");

  bfs::RunReport diag_report;
  bfs::RunReport twod_report;
  obs::ImbalanceProfile diag_profile;
  obs::ImbalanceProfile twod_profile;
  for (auto kind : {dist::VectorDistKind::kDiagonal,
                    dist::VectorDistKind::kTwoD}) {
    core::EngineOptions opts;
    opts.algorithm = core::Algorithm::kTwoDFlat;
    opts.cores = s * s;
    opts.machine = machine;
    opts.vector_dist = kind;
    opts.trace = true;  // feed the per-level idle-time profiler
    core::Engine engine{w.built.edges, w.n, opts};
    const auto out = engine.run(w.sources.front());
    const obs::ImbalanceProfile profile = obs::profile_imbalance(
        obs::analyze_critical_path(*engine.tracer(), s * s));
    if (kind == dist::VectorDistKind::kDiagonal) {
      diag_report = out.report;
      diag_profile = profile;
    } else {
      twod_report = out.report;
      twod_profile = profile;
    }
  }

  std::printf("\n-- 1D (diagonal) vector distribution: %% of max rank's "
              "MPI time --\n");
  print_heatmap(diag_report, s);
  std::printf("\n-- 2D vector distribution: %% of max rank's MPI time --\n");
  print_heatmap(twod_report, s);

  const double diag_ratio = diagonal_vs_offdiagonal(diag_report, s);
  const double twod_spread =
      util::imbalance(twod_report.per_rank_comm);
  std::printf("\noff-diagonal/diagonal MPI-time ratio, diagonal dist: "
              "%.2fx (paper: idle ~3-4x transfer)\n", diag_ratio);
  std::printf("per-rank MPI-time imbalance (max/mean), 2D dist: %.2f "
              "(paper: almost no imbalance)\n", twod_spread);
  std::printf("BFS time: diagonal dist %.3f ms vs 2D dist %.3f ms\n",
              diag_report.total_seconds * 1e3,
              twod_report.total_seconds * 1e3);

  // The same story from the trace-derived profiler (the data BenchRecord
  // persists into BENCH_*.json): idle share of all per-rank seconds, and
  // which ranks the levels waited on — under the diagonal distribution
  // the stragglers should be exactly the diagonal ranks (i*s + i).
  std::printf("\nidle fraction of per-rank time (trace profiler): "
              "diagonal dist %.1f%%, 2D dist %.1f%%\n",
              100.0 * diag_profile.wait_fraction,
              100.0 * twod_profile.wait_fraction);
  std::printf("stragglers under diagonal dist (most frequent first):");
  for (std::size_t i = 0; i < diag_profile.straggler_ranks.size() && i < 8;
       ++i) {
    std::printf(" %d", diag_profile.straggler_ranks[i]);
  }
  std::printf("  (diagonal ranks are multiples of %d)\n", s + 1);
  return 0;
}
