// Critical-path and wait-attribution analysis over a virtual-time trace.
//
// The per-level accounting the paper builds its analysis on (Table 1's
// communication decomposition, Figure 4's idle-time heatmap) is derived
// here directly from trace events instead of bespoke accounting inside
// the algorithms, in one walk over the spans: for each BFS level, which
// rank was the straggler everyone else waited on, which compute phase
// made it late, how the wait and busy time distribute across ranks (the
// heatmap rows), and how many mean per-rank seconds each collective
// pattern contributed. The Figure 4 roll-ups (ImbalanceProfile) are
// derived from that report, not from a second walk. Spans recorded
// outside a level (tag -1, e.g. setup) count only in the whole-run sums.
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
  /// Per-rank busy (compute + transfer) seconds, summed in span order.
  std::vector<double> busy_by_rank;

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

/// Figure 4's whole-run roll-ups of a report's per-level wait and busy
/// rows — what BenchRecord persists into BENCH_*.json so the 1D-vs-2D
/// vector-distribution story is diffable across changes.
struct ImbalanceProfile {
  /// Per-rank sums over the levels of wait_by_rank and busy_by_rank.
  std::vector<double> rank_wait_total;
  std::vector<double> rank_busy_total;
  /// Per level, the busiest rank (ties to the lower rank): the straggler
  /// by work done, where LevelAttribution::straggler_rank is the
  /// straggler by wait.
  std::vector<int> busiest_rank;

  /// max/mean over the rank totals (util::imbalance; 1.0 = balanced).
  double busy_imbalance = 1.0;
  double wait_imbalance = 1.0;
  /// Fraction of all per-rank level seconds spent idling at collectives.
  double wait_fraction = 0.0;
  /// Distinct busiest ranks over the run, most often busiest first (ties
  /// to the lower rank).
  std::vector<int> straggler_ranks;
};

/// Roll up a report from analyze_critical_path (every level row holds
/// `report.ranks` cells).
ImbalanceProfile profile_imbalance(const CriticalPathReport& report);

/// Serialize as one JSON object (embedded into the run report by
/// bfs::write_report_json when requested).
void write_critical_path_json(util::JsonWriter& json,
                              const CriticalPathReport& report);

/// Human-readable per-level table for CLI output: level, makespan,
/// straggler, its dominant phase, wait mean/max/p99, top collective.
std::string format_critical_path_table(const CriticalPathReport& report);

}  // namespace dbfs::obs
