// Shared engine for the strong-/weak-scaling figures (paper Figs 5-10):
// runs the four BFS implementations (1D/2D x flat/hybrid) over a list of
// core counts on the functional cluster simulator and prints GTEPS and
// communication-time series. Every point is a simulator run: the
// exchanges cost O(items + blocks + p) per level, so flat 1D reaches the
// paper's 40 000 cores.
#pragma once

#include <map>
#include <utility>

#include "harness/harness.hpp"

namespace dbfs::bench {

struct ScalingSpec {
  model::MachineModel machine;
  double paper_log2_edges;   ///< latency rescale anchor (see scaled_machine)
  std::vector<int> cores;
  int scale;
  int edge_factor;
};

/// The four codes every scaling figure compares, in column order, with
/// the names the paper's legends give them.
struct Column {
  core::Algorithm algorithm;
  const char* name;
};

inline constexpr Column kColumns[] = {
    {core::Algorithm::kOneDFlat, "1D Flat MPI"},
    {core::Algorithm::kOneDHybrid, "1D Hybrid"},
    {core::Algorithm::kTwoDFlat, "2D Flat MPI"},
    {core::Algorithm::kTwoDHybrid, "2D Hybrid"},
};

/// One right-aligned header cell per column.
inline void print_column_names() {
  for (const Column& c : kColumns) std::printf(" %16s", c.name);
}

class ScalingRunner {
 public:
  ScalingRunner(const ScalingSpec& spec, const Workload& workload)
      : spec_(spec),
        workload_(workload),
        machine_(scaled_machine(spec.machine,
                                workload.built.directed_edge_count,
                                spec.paper_log2_edges)) {}

  /// Print one figure panel: a header naming the workload, then the
  /// table. `show_comm` selects the communication-time view (Figs 6, 8)
  /// of the points the GTEPS view (Figs 5, 7) runs; points are cached, so
  /// printing both views costs one sweep.
  void print_panel(const char* title, const char* paper_ref, bool show_comm) {
    print_header(title, paper_ref,
                 "ours: scale " + std::to_string(spec_.scale) +
                     ", edgefactor " + std::to_string(spec_.edge_factor) +
                     ", latency-rescaled " + spec_.machine.name);
    print_table(show_comm);
  }

  /// Print the full table: one row per core count, one column per algo.
  void print_table(bool show_comm) {
    std::printf("%-8s", "cores");
    print_column_names();
    std::printf("  %s\n", show_comm ? "(comm seconds, lower=better)"
                                    : "(GTEPS, higher=better)");
    for (int cores : spec_.cores) {
      std::printf("%-8d", cores);
      for (const Column& c : kColumns) {
        const MeanTimes r = point(c.algorithm, cores);
        if (show_comm) {
          std::printf(" %14.6f ", r.comm);
        } else {
          std::printf(" %14.3f ", r.gteps);
        }
      }
      std::printf("\n");
    }
  }

  /// One (algorithm, cores) point, run once; the engine gives the hybrid
  /// codes the machine's default threads per rank.
  MeanTimes point(core::Algorithm algorithm, int cores) {
    const auto key = std::make_pair(algorithm, cores);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      const MeanTimes times = run_config(
          workload_,
          {.algorithm = algorithm, .cores = cores, .machine = machine_});
      it = cache_.emplace(key, times).first;
    }
    return it->second;
  }

 private:
  ScalingSpec spec_;
  const Workload& workload_;
  model::MachineModel machine_;
  std::map<std::pair<core::Algorithm, int>, MeanTimes> cache_;
};

}  // namespace dbfs::bench
