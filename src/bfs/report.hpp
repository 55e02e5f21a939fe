// Instrumented outputs of every BFS variant: the parent/level arrays
// (validated against the Graph500 rules in tests), plus a per-level and
// per-rank breakdown of simulated computation and communication time —
// the raw material for every table and figure harness in bench/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace dbfs::bfs {

struct LevelStats {
  level_t level = 0;
  vid_t frontier = 0;          ///< global frontier size entering this level
  eid_t edges_scanned = 0;     ///< adjacencies enumerated / SpMSV flops
  vid_t newly_visited = 0;
  /// This level's share of the run's alltoall, allgather and transpose
  /// bytes (bfs::TrafficColumn): the fold or 1D exchange, the expand,
  /// and the 2D transpose (0 in 1D).
  std::uint64_t a2a_bytes = 0;
  std::uint64_t expand_bytes = 0;
  std::uint64_t other_bytes = 0;
  double wall_seconds = 0.0;         ///< simulated level makespan
  double comm_seconds = 0.0;         ///< mean per-rank comm delta
  double comp_seconds = 0.0;         ///< mean per-rank compute delta
  /// Slowest rank's deltas for this level (straggler view). Populated —
  /// along with the means above — only when observers are attached (see
  /// RunReport::has_level_breakdown), so unobserved reports stay
  /// byte-identical.
  double comm_seconds_max = 0.0;
  double comp_seconds_max = 0.0;

  /// Direction-optimization heuristic state for this level. Filled only
  /// by direction-aware drivers (the hybrid 2D engine and the host
  /// direction_optimizing extension); emitted in the JSON `dirop` block,
  /// never in the plain `levels` array, so top-down reports stay
  /// byte-identical.
  bool bottom_up = false;          ///< direction this level actually ran in
  eid_t frontier_edges = 0;        ///< m_f: deg-sum of the entering frontier
  eid_t unexplored_edges = 0;      ///< m_u at decision time (Beamer's count)
  int dirop_rationale = 0;         ///< DiropRationale the decision followed
};

/// Why a level ran in the direction it did (one per LevelStats).
enum class DiropRationale : int {
  kTopDownStay = 0,   ///< heuristic kept top-down
  kEngage = 1,        ///< m_f > m_u / alpha and frontier >= n / beta
  kBottomUpStay = 2,  ///< stayed bottom-up (frontier still broad)
  kDisengage = 3,     ///< frontier fell below n / beta, back to top-down
  kForced = 4,        ///< direction pinned by options (no heuristic)
};

const char* to_string(DiropRationale r);

/// The direction a level runs in, and why.
struct DiropDecision {
  bool bottom_up = false;
  DiropRationale rationale = DiropRationale::kTopDownStay;
};

/// Beamer's alpha-beta switch rule, shared by the host and 2D engines:
/// engage bottom-up only when the frontier is both edge-heavy (m_f >
/// m_u / alpha) and broad (frontier >= n / beta) — a narrow frontier late
/// in a traversal can trip the edge ratio while bottom-up would still
/// probe every unvisited vertex — stay while it is broad, and disengage
/// once it narrows. Directions pinned by options never reach it.
DiropDecision beamer_switch(bool was_bottom_up, vid_t frontier, vid_t n,
                            eid_t frontier_edges, eid_t unexplored_edges,
                            double alpha, double beta);

/// Fault-injection outcome of one run (plain fields so this header stays
/// free of simulator dependencies; finalize_report copies them from the
/// cluster's FaultCounters). All-zero when no fault plan was configured.
struct FaultReport {
  bool enabled = false;
  std::uint64_t seed = 0;
  std::int64_t collective_failures = 0;  ///< transient failures injected
  std::int64_t collective_retries = 0;   ///< re-issues that went through
  double backoff_seconds = 0.0;          ///< total backoff waited
  double reissue_seconds = 0.0;          ///< transfer time paid again
  std::int64_t payload_corruptions = 0;  ///< items mangled in flight
  std::int64_t checksum_checks = 0;      ///< verification rounds run
  std::int64_t payload_retries = 0;      ///< exchanges re-issued on mismatch
  int compute_stragglers = 0;            ///< plan entries, not cluster hits
  int nic_stragglers = 0;
};

/// Fail-stop recovery outcome of one run (see src/recover/). The JSON
/// "recover" block is emitted only once a rank actually dies; checkpoint
/// accounting with no failures lives only in the recover.* metrics so
/// the plain report stays byte-identical to pre-recovery output.
struct RecoverReport {
  /// Recovery armed: kills scheduled or a checkpoint cadence set.
  bool enabled = false;
  int checkpoint_every = 0;
  std::string policy;            ///< "shrink" | "spare"; empty when off
  std::int64_t checkpoints_taken = 0;
  std::uint64_t checkpoint_bytes = 0;   ///< incremental replicated bytes
  std::int64_t rank_failures = 0;
  std::int64_t replayed_levels = 0;     ///< levels recomputed after restores
  double recovery_seconds = 0.0;        ///< detection + restore virtual time
  int ranks_lost = 0;                   ///< shrink: ranks retired for good
  int spares_used = 0;
};

/// Silent-data-corruption resilience outcome of one run (see
/// src/bfs/audit.*). `enabled` gates the JSON `sdc` block like
/// RecoverReport gates `recover`: a run with auditing off and no at-rest
/// fault plan emits nothing and stays byte-identical to the pre-SDC
/// engine.
struct SdcReport {
  bool enabled = false;        ///< audits armed or at-rest flips scheduled
  int audit_every = 0;
  std::int64_t audits = 0;             ///< audit barriers executed
  std::int64_t audit_failures = 0;     ///< audits that detected corruption
  std::int64_t flips_injected = 0;     ///< at-rest flips actually applied
  std::int64_t rollbacks = 0;          ///< clean-checkpoint restores taken
  std::int64_t replayed_levels = 0;    ///< levels recomputed after rollbacks
  std::int64_t checkpoints_rejected = 0;  ///< stored replicas failing scrub
  double audit_seconds = 0.0;          ///< virtual time spent auditing
  double rollback_seconds = 0.0;       ///< virtual time spent rolling back
};

/// Direction-optimization outcome of one run. `enabled` gates the JSON
/// `dirop` block the same way RecoverReport gates `recover`: a pure
/// top-down run (the default) emits nothing and stays byte-identical to
/// the pre-hybrid engine.
struct DiropReport {
  bool enabled = false;
  std::string mode;           ///< "topdown" | "bottomup" | "hybrid"
  double alpha = 0.0;
  double beta = 0.0;
  std::int64_t top_down_levels = 0;
  std::int64_t bottom_up_levels = 0;
  eid_t top_down_edges = 0;   ///< adjacencies examined while top-down
  eid_t bottom_up_edges = 0;  ///< adjacencies examined while bottom-up
  std::int64_t switches = 0;  ///< direction changes after level 0

  /// Per-direction wire accounting (2D engine only; zero on host runs):
  /// pre-codec vs shipped bytes of the frontier/candidate exchanges,
  /// split by the direction the level ran in. The acceptance check
  /// "bottom-up shipped-bytes ratio <= top-down ratio" reads these.
  std::uint64_t top_down_wire_raw_bytes = 0;
  std::uint64_t top_down_wire_bytes = 0;
  std::uint64_t bottom_up_wire_raw_bytes = 0;
  std::uint64_t bottom_up_wire_bytes = 0;
};

struct RunReport {
  std::string algorithm;
  std::string machine;
  int ranks = 1;
  int threads_per_rank = 1;
  int cores = 1;

  std::vector<LevelStats> levels;

  /// True when the run was observed (tracer/metrics attached) and the
  /// per-level comm/comp means and maxima above were captured. Gates the
  /// extra per-level JSON keys so a plain run's report is byte-identical
  /// to one produced before the observability layer existed.
  bool has_level_breakdown = false;

  double total_seconds = 0.0;       ///< simulated BFS makespan
  double comm_seconds_mean = 0.0;   ///< per-rank communication (incl. waits)
  double comm_seconds_max = 0.0;
  double comp_seconds_mean = 0.0;
  double comp_seconds_max = 0.0;

  /// Per-rank splits for the Figure 4 heatmap.
  std::vector<double> per_rank_comm;
  std::vector<double> per_rank_comp;

  /// Network bytes per report column (bfs::TrafficColumn files each
  /// collective pattern under one of these four).
  std::uint64_t alltoall_bytes = 0;
  std::uint64_t allgather_bytes = 0;
  std::uint64_t transpose_bytes = 0;
  std::uint64_t allreduce_bytes = 0;

  /// Mean per-rank modelled transfer seconds per column (excl. waiting) —
  /// the quantities behind the paper's Table 1 percentages.
  double alltoall_seconds = 0.0;
  double allgather_seconds = 0.0;
  double transpose_seconds = 0.0;
  double allreduce_seconds = 0.0;

  eid_t edges_traversed = 0;  ///< total adjacencies touched during the run

  /// SpMSV back-end usage over the run (2D algorithms; ablation C).
  std::int64_t spmsv_spa_calls = 0;
  std::int64_t spmsv_heap_calls = 0;

  /// Fault injection outcome (zero when no plan was configured).
  FaultReport faults;

  /// Fail-stop recovery outcome (zero when no rank died).
  RecoverReport recover;

  /// SDC audit/rollback outcome (disabled unless audits or flips armed).
  SdcReport sdc;

  /// Direction-optimization outcome (disabled for pure top-down runs).
  DiropReport dirop;

  /// TEPS for a given edge denominator (Graph500 counts the input's
  /// directed edges): edges / total_seconds.
  double teps(eid_t edge_count) const {
    return total_seconds > 0.0
               ? static_cast<double>(edge_count) / total_seconds
               : 0.0;
  }

  /// Fraction of the makespan attributable to communication (mean).
  double comm_fraction() const {
    const double denom = comm_seconds_mean + comp_seconds_mean;
    return denom > 0.0 ? comm_seconds_mean / denom : 0.0;
  }
};

struct BfsOutput {
  std::vector<vid_t> parent;    ///< size n; kNoVertex when unreachable
  std::vector<level_t> level;   ///< size n; kUnreached when unreachable
  RunReport report;
};

}  // namespace dbfs::bfs
