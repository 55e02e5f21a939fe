// The shared benchmark harness: workload preparation, consistent table
// headers, the single per-source timing loop every table/figure binary
// uses (run_config), and the BenchRunner that turns one benchmark
// configuration into a machine-readable obs::BenchRecord — the
// BENCH_<name>.json artifacts bench_suite emits and bench_diff gates on.
// The printed blocks are the EXPERIMENTS.md raw data (bench/expected/).
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "obs/bench_record.hpp"
#include "util/options.hpp"

namespace dbfs::bench {

inline void print_header(const char* experiment, const char* paper_ref,
                         const std::string& config) {
  std::printf("\n================================================================\n");
  std::printf("%s  (paper: %s)\n", experiment, paper_ref);
  if (!config.empty()) std::printf("%s\n", config.c_str());
  std::printf("================================================================\n");
}

/// Prepared R-MAT instance + sampled sources in the big component.
struct Workload {
  graph::BuiltGraph built;
  std::vector<vid_t> sources;
  vid_t n = 0;
};

Workload make_rmat_workload(int scale, int edge_factor, int nsources,
                            std::uint64_t seed = 1);

/// Number of BFS sources per configuration; benches default low so the
/// whole suite runs in seconds (DISTBFS_SOURCES overrides; the paper
/// uses >= 16).
inline int bench_sources(int dflt = 4) {
  return static_cast<int>(util::env_int("DISTBFS_SOURCES", dflt));
}

/// Mean simulated times for one engine config over the workload's
/// sources — the single timing loop the tables and figures share.
struct MeanTimes {
  double total = 0;      ///< mean simulated seconds per search
  double comm = 0;       ///< mean per-rank communication seconds
  double comp = 0;
  double gteps = 0;      ///< harmonic mean over sources
  double allgather = 0;  ///< mean expand-side transfer seconds (Table 1)
  double alltoall = 0;   ///< mean fold-side transfer seconds
  std::uint64_t a2a_bytes = 0;  ///< summed over sources
  std::uint64_t ag_bytes = 0;
};

MeanTimes run_config(const Workload& w, core::EngineOptions opts);

/// Machine miniaturization (see DESIGN.md and EXPERIMENTS.md): our graphs
/// are ~2^10-2^17x smaller than the paper's, so per-rank data volumes —
/// and with them every bandwidth-proportional term — shrink by that
/// factor automatically. Two classes of constants do NOT shrink by
/// themselves and must be rescaled to keep the paper's operating point:
///  * fixed latencies (per-message αN, thread barriers), which would
///    otherwise swamp the scaled-down levels at the paper's core counts;
///  * cache capacities: at the paper's scale the n/p-sized 1D distance
///    array is DRAM-resident and the n/sqrt(p)-sized 2D vectors more so —
///    the very contrast §5 builds on. Unscaled caches would swallow both
///    working sets and erase the 1D-vs-2D computation gap.
/// `paper_log2_edges` is the log2 of the paper run's directed edge count
/// (e.g. 33 for the scale-29, ef-16 instances).
inline model::MachineModel scaled_machine(model::MachineModel m,
                                          eid_t our_directed_edges,
                                          double paper_log2_edges) {
  const double factor = static_cast<double>(our_directed_edges) /
                        std::pow(2.0, paper_log2_edges);
  return model::miniaturized(std::move(m), factor);
}

/// One benchmark configuration for the continuous-benchmark trajectory.
struct BenchSpec {
  std::string name;          ///< record name; file = BENCH_<name>.json
  std::string created_by = "bench_harness";
  int scale = 14;
  int edge_factor = 16;
  std::uint64_t graph_seed = 1;
  /// BFS sources per repetition and the number of virtual-seed
  /// repetitions; repetition r samples sources with source_seed + r. The
  /// across-repetition spread is the noise model bench_diff scales by k.
  int sources = 2;
  int repetitions = 5;
  std::uint64_t source_seed = 2023;
  /// Validate trees on the first repetition (host-side; free of simulated
  /// time, so it cannot shift the recorded numbers).
  bool validate = true;
  /// When > 0, engine.machine is miniaturized to the paper's operating
  /// point via scaled_machine() once the graph (and with it the directed
  /// edge count) exists — the same latency rescale every figure applies.
  double paper_log2_edges = 0.0;
  core::EngineOptions engine;
};

/// Runs one BenchSpec end to end: builds the graph, runs every
/// repetition through core::Engine::run_batch, then re-runs one source
/// with tracer + metrics attached to capture the per-level
/// compute/wait/transfer split, the Fig 4-style idle-time heatmap, and
/// the wire.*/fault.* counters. Throws std::runtime_error when
/// validation fails — a benchmark of a wrong BFS tree is not a data
/// point.
obs::BenchRecord run_bench_record(const BenchSpec& spec);

/// Human-readable one-liner for suite progress output.
std::string describe_bench_record(const obs::BenchRecord& record);

}  // namespace dbfs::bench
