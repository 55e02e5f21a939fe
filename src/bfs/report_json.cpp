#include "bfs/report_json.hpp"

#include <sstream>

#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace dbfs::bfs {

void write_report_json(std::ostream& out, const RunReport& report,
                       const ReportJsonOptions& options) {
  util::JsonWriter json(out);
  json.object()
      .field("algorithm", report.algorithm)
      .field("machine", report.machine)
      .field("ranks", report.ranks)
      .field("threads_per_rank", report.threads_per_rank)
      .field("cores", report.cores)
      .field("total_seconds", report.total_seconds)
      .field("comm_seconds_mean", report.comm_seconds_mean)
      .field("comm_seconds_max", report.comm_seconds_max)
      .field("comp_seconds_mean", report.comp_seconds_mean)
      .field("comp_seconds_max", report.comp_seconds_max)
      .field("comm_fraction", report.comm_fraction())
      .field("edges_traversed", report.edges_traversed);

  json.object("traffic")
      .field("alltoall_bytes", report.alltoall_bytes)
      .field("allgather_bytes", report.allgather_bytes)
      .field("transpose_bytes", report.transpose_bytes)
      .field("allreduce_bytes", report.allreduce_bytes)
      .field("alltoall_seconds", report.alltoall_seconds)
      .field("allgather_seconds", report.allgather_seconds)
      .field("transpose_seconds", report.transpose_seconds)
      .field("allreduce_seconds", report.allreduce_seconds)
      .end();

  json.object("spmsv")
      .field("spa_calls", report.spmsv_spa_calls)
      .field("heap_calls", report.spmsv_heap_calls)
      .end();

  const FaultReport& f = report.faults;
  json.object("faults")
      .field("enabled", f.enabled)
      .field("seed", f.seed)
      .field("collective_failures", f.collective_failures)
      .field("collective_retries", f.collective_retries)
      .field("backoff_seconds", f.backoff_seconds)
      .field("reissue_seconds", f.reissue_seconds)
      .field("payload_corruptions", f.payload_corruptions)
      .field("checksum_checks", f.checksum_checks)
      .field("payload_retries", f.payload_retries)
      .field("compute_stragglers", f.compute_stragglers)
      .field("nic_stragglers", f.nic_stragglers)
      .end();

  if (report.recover.rank_failures > 0) {
    // Emitted only when a rank actually died: a recovery-armed run with
    // no failures keeps its report byte-identical to pre-recovery output
    // (checkpoint accounting then lives only in the recover.* metrics).
    const RecoverReport& r = report.recover;
    json.object("recover")
        .field("policy", r.policy)
        .field("checkpoint_every", r.checkpoint_every)
        .field("checkpoints_taken", r.checkpoints_taken)
        .field("checkpoint_bytes", r.checkpoint_bytes)
        .field("rank_failures", r.rank_failures)
        .field("replayed_levels", r.replayed_levels)
        .field("recovery_seconds", r.recovery_seconds)
        .field("ranks_lost", r.ranks_lost)
        .field("spares_used", r.spares_used)
        .end();
  }

  if (report.sdc.enabled) {
    // Emitted only when audits or at-rest flips were armed: a plain run
    // keeps its report byte-identical to the pre-SDC engine.
    const SdcReport& s = report.sdc;
    json.object("sdc")
        .field("audit_every", s.audit_every)
        .field("audits", s.audits)
        .field("audit_failures", s.audit_failures)
        .field("flips_injected", s.flips_injected)
        .field("rollbacks", s.rollbacks)
        .field("replayed_levels", s.replayed_levels)
        .field("checkpoints_rejected", s.checkpoints_rejected)
        .field("audit_seconds", s.audit_seconds)
        .field("rollback_seconds", s.rollback_seconds)
        .end();
  }

  if (report.dirop.enabled) {
    // Direction-aware runs only: a pure top-down run (the default) emits
    // nothing here and its per-level objects below stay untouched, so
    // the legacy report is byte-identical to the pre-hybrid engine.
    const DiropReport& d = report.dirop;
    json.object("dirop")
        .field("mode", d.mode)
        .field("alpha", d.alpha)
        .field("beta", d.beta)
        .field("top_down_levels", d.top_down_levels)
        .field("bottom_up_levels", d.bottom_up_levels)
        .field("top_down_edges", d.top_down_edges)
        .field("bottom_up_edges", d.bottom_up_edges)
        .field("switches", d.switches)
        .field("top_down_wire_raw_bytes", d.top_down_wire_raw_bytes)
        .field("top_down_wire_bytes", d.top_down_wire_bytes)
        .field("bottom_up_wire_raw_bytes", d.bottom_up_wire_raw_bytes)
        .field("bottom_up_wire_bytes", d.bottom_up_wire_bytes)
        .array("levels");
    for (const LevelStats& l : report.levels) {
      json.object()
          .field("level", l.level)
          .field("direction", l.bottom_up ? "bottomup" : "topdown")
          .field("rationale",
                 to_string(static_cast<DiropRationale>(l.dirop_rationale)))
          .field("frontier_edges", l.frontier_edges)
          .field("unexplored_edges", l.unexplored_edges)
          .field("edges", l.edges_scanned)
          .end();
    }
    json.end().end();
  }

  json.array("levels");
  for (const LevelStats& l : report.levels) {
    json.object()
        .field("level", l.level)
        .field("frontier", l.frontier)
        .field("edges", l.edges_scanned)
        .field("newly_visited", l.newly_visited)
        .field("wall_seconds", l.wall_seconds)
        .field("a2a_bytes", l.a2a_bytes)
        .field("expand_bytes", l.expand_bytes)
        .field("other_bytes", l.other_bytes);
    if (report.has_level_breakdown) {
      // Only observed runs captured the per-level clock deltas; gating
      // the keys keeps unobserved reports byte-identical to the
      // pre-observability schema.
      json.field("comm_seconds", l.comm_seconds)
          .field("comm_seconds_max", l.comm_seconds_max)
          .field("comp_seconds", l.comp_seconds)
          .field("comp_seconds_max", l.comp_seconds_max);
    }
    json.end();
  }
  json.end();

  if (options.include_per_rank) {
    json.field("per_rank_comm", report.per_rank_comm)
        .field("per_rank_comp", report.per_rank_comp);
  }
  if (options.metrics != nullptr && !options.metrics->empty()) {
    options.metrics->write_json(json.key("metrics"));
  }
  if (options.critical_path != nullptr) {
    obs::write_critical_path_json(json.key("critical_path"),
                                  *options.critical_path);
  }
  json.end();
}

std::string report_to_json(const RunReport& report,
                           const ReportJsonOptions& options) {
  std::ostringstream out;
  write_report_json(out, report, options);
  return out.str();
}

std::string report_to_json(const RunReport& report, bool include_per_rank) {
  ReportJsonOptions options;
  options.include_per_rank = include_per_rank;
  return report_to_json(report, options);
}

}  // namespace dbfs::bfs
