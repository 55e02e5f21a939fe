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

enum class Algo { kOneDFlat, kOneDHybrid, kTwoDFlat, kTwoDHybrid };

inline const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kOneDFlat:
      return "1D Flat MPI";
    case Algo::kOneDHybrid:
      return "1D Hybrid";
    case Algo::kTwoDFlat:
      return "2D Flat MPI";
    case Algo::kTwoDHybrid:
      return "2D Hybrid";
  }
  return "?";
}

class ScalingRunner {
 public:
  ScalingRunner(const ScalingSpec& spec, const Workload& workload)
      : spec_(spec),
        workload_(workload),
        machine_(scaled_machine(spec.machine,
                                workload.built.directed_edge_count,
                                spec.paper_log2_edges)) {}

  /// Run one (algorithm, cores) point; the engine gives the hybrid codes
  /// the machine's default threads per rank.
  MeanTimes run(Algo algo, int cores) {
    core::EngineOptions opts;
    opts.cores = cores;
    opts.machine = machine_;
    switch (algo) {
      case Algo::kOneDFlat:
        opts.algorithm = core::Algorithm::kOneDFlat;
        break;
      case Algo::kOneDHybrid:
        opts.algorithm = core::Algorithm::kOneDHybrid;
        break;
      case Algo::kTwoDFlat:
        opts.algorithm = core::Algorithm::kTwoDFlat;
        break;
      case Algo::kTwoDHybrid:
        opts.algorithm = core::Algorithm::kTwoDHybrid;
        break;
    }
    return run_config(workload_, opts);
  }

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
    for (Algo a : kAll) std::printf(" %16s", algo_name(a));
    std::printf("  %s\n", show_comm ? "(comm seconds, lower=better)"
                                    : "(GTEPS, higher=better)");
    for (int cores : spec_.cores) {
      std::printf("%-8d", cores);
      for (Algo a : kAll) {
        const MeanTimes r = point(a, cores);
        if (show_comm) {
          std::printf(" %14.6f ", r.comm);
        } else {
          std::printf(" %14.3f ", r.gteps);
        }
      }
      std::printf("\n");
    }
  }

  MeanTimes point(Algo a, int cores) {
    const auto key = std::make_pair(static_cast<int>(a), cores);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_.emplace(key, run(a, cores)).first;
    }
    return it->second;
  }

  static constexpr Algo kAll[] = {Algo::kOneDFlat, Algo::kOneDHybrid,
                                  Algo::kTwoDFlat, Algo::kTwoDHybrid};

 private:
  ScalingSpec spec_;
  const Workload& workload_;
  model::MachineModel machine_;
  std::map<std::pair<int, int>, MeanTimes> cache_;
};

}  // namespace dbfs::bench
