// JSON serialization of RunReport: lets downstream tooling (plotters,
// dashboards, regression trackers) consume the per-level and per-pattern
// breakdowns without linking the library. Written with util::JsonWriter,
// the one writer behind every artifact the project emits.
#pragma once

#include <iosfwd>
#include <string>

#include "bfs/report.hpp"

namespace dbfs::obs {
class MetricsRegistry;
struct CriticalPathReport;
}  // namespace dbfs::obs

namespace dbfs::bfs {

/// Optional parts of the serialization.
struct ReportJsonOptions {
  /// Append the per_rank_comm / per_rank_comp arrays.
  bool include_per_rank = false;
  /// When non-null and non-empty, embedded as a top-level "metrics" key.
  const obs::MetricsRegistry* metrics = nullptr;
  /// When non-null, embedded as a top-level "critical_path" key.
  const obs::CriticalPathReport* critical_path = nullptr;
};

/// Serialize a report as a single JSON object. Stable schema, in order:
/// {algorithm, machine, ranks, threads_per_rank, cores, total_seconds,
///  comm_seconds_{mean,max}, comp_seconds_{mean,max}, comm_fraction,
///  edges_traversed, traffic:{...bytes,...seconds}, spmsv:{spa,heap},
///  faults:{enabled, seed, collective_failures, collective_retries,
///          backoff_seconds, reissue_seconds, payload_corruptions,
///          checksum_checks, payload_retries, compute_stragglers,
///          nic_stragglers},
///  recover:{...}   only when a rank died (report.recover.rank_failures),
///  sdc:{...}       only when audits or at-rest flips were armed,
///  dirop:{..., levels:[{level, direction, rationale, ...}]}
///                  only for direction-aware runs,
///  levels:[{level, frontier, edges, newly_visited, wall_seconds,
///           a2a_bytes, expand_bytes, other_bytes}, ...],
///  per_rank_comm, per_rank_comp   with options.include_per_rank,
///  metrics, critical_path         when attached in options}
/// When the run was observed (report.has_level_breakdown), each level
/// additionally carries comm_seconds{,_max} and comp_seconds{,_max}. Every
/// gated key is absent otherwise, so a plain report serializes
/// byte-identically to the historical schema.
void write_report_json(std::ostream& out, const RunReport& report,
                       const ReportJsonOptions& options = {});

std::string report_to_json(const RunReport& report,
                           const ReportJsonOptions& options = {});
std::string report_to_json(const RunReport& report, bool include_per_rank);

}  // namespace dbfs::bfs
