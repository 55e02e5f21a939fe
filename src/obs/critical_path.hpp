// Critical-path and wait-attribution analysis over a virtual-time trace.
//
// The per-level accounting the paper builds its analysis on (Table 1's
// communication decomposition, Figure 4's idle-time heatmap) is derived
// here directly from trace events instead of bespoke accounting inside
// the algorithms: for each BFS level, which rank was the straggler
// everyone else waited on, which compute phase made it late, how the wait
// time distributes across ranks (the heatmap row), and how many mean
// per-rank seconds each collective pattern contributed.
//
// Invariants (verified by tests/test_trace.cpp): per-rank sums of
// compute + wait + transfer spans reconcile with the cluster clocks the
// RunReport is built from, and the per-pattern transfer means equal the
// RunReport's per-collective seconds to 1e-9.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dbfs::util {
class JsonWriter;
}  // namespace dbfs::util

namespace dbfs::obs {

class Tracer;

/// One BFS level's attribution (levels are the spans' `level` tags).
struct LevelAttribution {
  int level = -1;
  double begin = 0.0;  ///< earliest span begin at this level
  double end = 0.0;    ///< latest span end at this level
  double makespan() const { return end - begin; }

  /// The rank the level waited on: the one with the least wait time (it
  /// arrives last at the collectives, so everyone else idles on it).
  int straggler_rank = 0;
  /// The compute phase the straggler spent the most time in this level —
  /// the paper's "which phase made it late".
  std::string straggler_phase;
  double straggler_phase_seconds = 0.0;

  double compute_mean = 0.0;  ///< mean per-rank compute seconds
  double compute_max = 0.0;
  double wait_mean = 0.0;  ///< mean per-rank barrier-wait seconds
  double wait_max = 0.0;
  double wait_p95 = 0.0;
  double wait_p99 = 0.0;

  /// Per-rank wait seconds — one row of the Figure 4 idle-time heatmap.
  std::vector<double> wait_by_rank;

  /// Mean per-rank transfer seconds by collective site at this level,
  /// i.e. how much each collective contributed to the level.
  std::map<std::string, double> collective_seconds;
};

/// Whole-run contribution of one collective pattern (Table 1 rows).
struct PatternDecomposition {
  std::string pattern;
  std::int64_t spans = 0;       ///< participant-spans recorded
  double transfer_mean = 0.0;   ///< mean per-rank transfer seconds
  double wait_mean = 0.0;       ///< mean per-rank wait seconds at it
};

struct CriticalPathReport {
  int ranks = 0;
  double total_seconds = 0.0;    ///< latest span end (the makespan)
  double compute_mean = 0.0;     ///< whole-run mean per-rank seconds
  double wait_mean = 0.0;
  double transfer_mean = 0.0;

  std::vector<LevelAttribution> levels;          ///< ascending by level
  std::vector<PatternDecomposition> decomposition;  ///< by pattern name

  /// Sum of transfer means over the decomposition — with wait_mean, the
  /// split of comm time into data movement vs barrier idling.
  double transfer_total() const;
};

/// Run the pass. `ranks` bounds the heatmap rows; the tracer's own rank
/// table is used when it is larger.
CriticalPathReport analyze_critical_path(const Tracer& tracer, int ranks);

/// Serialize as one JSON object (embedded into the run report by
/// bfs::write_report_json when requested).
void write_critical_path_json(util::JsonWriter& json,
                              const CriticalPathReport& report);

/// Human-readable per-level table for CLI output: level, makespan,
/// straggler, its dominant phase, wait mean/max/p99, top collective.
std::string format_critical_path_table(const CriticalPathReport& report);

}  // namespace dbfs::obs
