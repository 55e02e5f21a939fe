// BenchRecord: the versioned, machine-readable artifact every benchmark
// run emits (BENCH_<name>.json), turning the ad-hoc printed tables into a
// perf trajectory that can be diffed across PRs (obs/bench_diff.hpp).
//
// One record = one benchmark configuration, run for >= 1 virtual-seed
// repetitions. It captures three layers the paper's analysis is built on:
//   * config    — generator/scale/algorithm/cores/wire format/fault plan,
//                 enough to re-run the point exactly;
//   * results   — the TEPS distribution over all (repetition, source)
//                 samples (util::Summary, so p95/p99 ride along), the
//                 Graph500 harmonic mean, mean search/comm/comp seconds,
//                 per-repetition roll-ups, and the across-repetition
//                 relative stddevs that bench_diff uses as its noise
//                 model;
//   * structure — from one critical-path pass over the profile run's
//                 trace: the per-level compute/wait/transfer split
//                 (Table 1) and the per-rank/per-level idle-time heatmap
//                 with its imbalance roll-ups (Fig 4); plus the
//                 wire.*/fault.* metric counters.
//
// The JSON schema is versioned (kBenchRecordSchemaVersion); the parser
// refuses records from a different version with BenchSchemaError so the
// regression gate fails loudly instead of comparing apples to oranges.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bfs/report.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace dbfs::obs {

class Tracer;
class MetricsRegistry;
class CommAtlas;

inline constexpr int kBenchRecordSchemaVersion = 1;

/// Everything needed to reproduce the configuration of a record.
struct BenchSetup {
  std::string generator = "rmat";
  int scale = 0;
  int edge_factor = 16;
  std::uint64_t graph_seed = 1;
  std::string algorithm;
  std::string machine;
  std::string wire_format = "raw";
  int cores = 0;
  int ranks = 0;
  int threads_per_rank = 1;
  int sources = 0;        ///< BFS sources per repetition
  int repetitions = 0;
  std::uint64_t source_seed = 0;  ///< repetition r samples with seed + r
  bool faults_enabled = false;
  std::string fault_plan;  ///< human-readable plan summary; "" when none
};

/// One virtual-seed repetition's roll-up (the noise-model samples).
struct BenchRepetition {
  std::uint64_t source_seed = 0;
  int sources = 0;
  int validated = 0;
  int failed = 0;
  double harmonic_mean_teps = 0.0;
  double mean_seconds = 0.0;
  double comm_seconds_mean = 0.0;
  double comp_seconds_mean = 0.0;
};

/// Per-level compute/wait/transfer split (mean per-rank seconds), from
/// the critical-path pass over the profile run's trace.
struct BenchLevelSplit {
  int level = -1;
  double compute_mean = 0.0;
  double wait_mean = 0.0;
  double transfer_mean = 0.0;
  double wait_max = 0.0;
  double wait_p99 = 0.0;
  int straggler_rank = 0;
  std::string straggler_phase;
  /// Mean per-rank transfer seconds by collective site at this level
  /// (from LevelAttribution::collective_seconds). Schema-additive:
  /// absent in pre-doctor baselines, parsed as empty.
  std::map<std::string, double> sites;
};

/// Across-repetition relative stddevs (population stddev / mean; 0 when
/// fewer than two repetitions) — the re-run variance bench_diff scales by
/// k to decide whether a delta is noise.
struct BenchNoise {
  double teps_rel_stddev = 0.0;
  double seconds_rel_stddev = 0.0;
  double comm_rel_stddev = 0.0;
};

/// Fig 4-style imbalance snapshot of the profile run.
struct BenchImbalanceSummary {
  int ranks = 0;
  double comm_imbalance = 1.0;  ///< max/mean over per-rank comm seconds
  double comp_imbalance = 1.0;  ///< max/mean over per-rank compute seconds
  double busy_imbalance = 1.0;  ///< trace-derived, whole-run busy totals
  double wait_imbalance = 1.0;
  double wait_fraction = 0.0;   ///< idle share of all per-rank seconds
  std::vector<int> straggler_ranks;  ///< most-often-straggling first
  std::vector<int> level_ids;
  /// Idle seconds [level][rank]; empty when the run was not traced.
  std::vector<std::vector<double>> wait_heatmap;
};

/// Communication-atlas roll-up of the profile run (obs/comm_atlas.hpp).
/// Schema-additive: absent in records written before the atlas existed
/// (and in untraced runs), parsed back with `present` false.
struct BenchAtlasSummary {
  bool present = false;
  int grid_rows = 0;
  int grid_cols = 0;
  std::int64_t total_bytes = 0;
  std::int64_t network_bytes = 0;
  double max_pair_share = 0.0;
  double row_skew = 1.0;
  double col_skew = 1.0;
  int hotspot_rank = -1;
  int incast_rank = -1;
  double locality_share = 0.0;
  double self_share = 0.0;
};

struct BenchRecord {
  int schema_version = kBenchRecordSchemaVersion;
  std::string name;        ///< file stem: BENCH_<name>.json
  std::string created_by;  ///< "bench_suite", "graph500_runner", ...

  BenchSetup config;

  util::Summary teps;  ///< all (repetition, source) TEPS samples pooled
  double harmonic_mean_teps = 0.0;
  double mean_seconds = 0.0;
  double comm_seconds_mean = 0.0;
  double comp_seconds_mean = 0.0;
  BenchNoise noise;
  std::vector<BenchRepetition> repetitions;

  std::vector<BenchLevelSplit> levels;
  BenchImbalanceSummary imbalance;
  BenchAtlasSummary atlas;
  /// Metric counters from the profile run (wire.*, fault.*, comm.*).
  std::map<std::string, std::int64_t> counters;
};

struct BenchSchemaError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Serialize as one JSON object (max_digits10 precision, so a written
/// record parses back to the exact same doubles).
void write_bench_record_json(std::ostream& out, const BenchRecord& record);
std::string bench_record_to_json(const BenchRecord& record);

/// Parse a record. Throws BenchSchemaError when the document is not a
/// BenchRecord of the current schema version (including any structural
/// surprise the underlying JSON layer reports).
BenchRecord parse_bench_record(const std::string& json);

/// Read + parse one BENCH_*.json file; throws BenchSchemaError with the
/// path in the message on any failure.
BenchRecord load_bench_record(const std::string& path);

/// A record set: `path` names one record file, or a directory whose
/// BENCH_*.json files load in sorted file-name order (other files are
/// skipped).
std::vector<BenchRecord> load_bench_records(const std::string& path);

/// Write `record` to `path` (canonical name: dir + "/BENCH_<name>.json").
void save_bench_record(const std::string& path, const BenchRecord& record);

/// Canonical file name for a record name: "BENCH_<name>.json".
std::string bench_record_filename(const std::string& name);

/// Assembles a BenchRecord from engine outputs. Usage:
///   BenchRecordBuilder b;
///   b.record().name = ...; b.record().config = ...;   // fill setup
///   for each repetition: b.add_repetition(seed, reports, denom, ok, bad);
///   b.attach_profile(tracer, metrics, profile_report, ranks);  // optional
///   BenchRecord r = b.finish();
class BenchRecordBuilder {
 public:
  BenchRecord& record() { return record_; }

  /// Fold one repetition's per-source reports into the record: pools the
  /// TEPS samples and appends the repetition roll-up used for the noise
  /// model. `edge_denominator` is the Graph500 TEPS denominator. The
  /// roll-up's harmonic mean is util::summarize's, so a zero-TEPS sample
  /// makes it 0 like the record's pooled one.
  void add_repetition(std::uint64_t source_seed,
                      std::span<const bfs::RunReport> reports,
                      eid_t edge_denominator, int validated = 0,
                      int failed = 0);

  /// Capture the structural layers from one observed run: critical-path
  /// per-level splits (when `tracer` is non-null), the idle-time heatmap,
  /// metric counters, and per-rank comm/comp imbalance from the report.
  void attach_profile(const Tracer* tracer, const MetricsRegistry* metrics,
                      const bfs::RunReport& profile_run, int ranks);

  /// Fold the profile run's communication-atlas summary into the record.
  /// Null or empty atlas = no-op (the record keeps `atlas.present` false
  /// and its JSON stays byte-identical to a pre-atlas writer's).
  void attach_atlas(const CommAtlas* atlas);

  /// Compute the pooled summary + noise stddevs and return the record.
  BenchRecord finish();

 private:
  BenchRecord record_;
  std::vector<double> teps_samples_;
  double seconds_sum_ = 0.0;
  double comm_sum_ = 0.0;
  double comp_sum_ = 0.0;
  std::size_t run_count_ = 0;
};

}  // namespace dbfs::obs
