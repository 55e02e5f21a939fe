// RunReport helpers that need the simulator types (kept out of report.hpp
// so that header stays dependency-light for downstream users).
#include "bfs/report.hpp"

#include <iterator>

#include "bfs/finalize.hpp"
#include "simmpi/cluster.hpp"
#include "util/stats.hpp"

namespace dbfs::bfs {

const char* to_string(DiropRationale r) {
  switch (r) {
    case DiropRationale::kTopDownStay: return "topdown-stay";
    case DiropRationale::kEngage: return "engage";
    case DiropRationale::kBottomUpStay: return "bottomup-stay";
    case DiropRationale::kDisengage: return "disengage";
    case DiropRationale::kForced: return "forced";
  }
  return "unknown";
}

DiropDecision beamer_switch(bool was_bottom_up, vid_t frontier, vid_t n,
                            eid_t frontier_edges, eid_t unexplored_edges,
                            double alpha, double beta) {
  const bool broad =
      static_cast<double>(frontier) >= static_cast<double>(n) / beta;
  if (!was_bottom_up && broad &&
      static_cast<double>(frontier_edges) >
          static_cast<double>(unexplored_edges) / alpha) {
    return {true, DiropRationale::kEngage};
  }
  if (was_bottom_up && !broad) return {false, DiropRationale::kDisengage};
  if (was_bottom_up) return {true, DiropRationale::kBottomUpStay};
  return {false, DiropRationale::kTopDownStay};
}

namespace {

/// The column of each simmpi::Pattern, indexed by the enum. Point-to-point
/// sends are the baselines' per-peer exchange and Gatherv the diagonal
/// fold, so both count with the alltoallv they stand in for.
constexpr TrafficColumn kColumnOf[] = {
    TrafficColumn::kAlltoall,   // Alltoallv
    TrafficColumn::kAllgather,  // Allgatherv
    TrafficColumn::kAllreduce,  // Allreduce
    TrafficColumn::kAllgather,  // Broadcast
    TrafficColumn::kAlltoall,   // Gatherv
    TrafficColumn::kTranspose,  // Transpose
    TrafficColumn::kAlltoall,   // PointToPoint
};
static_assert(std::size(kColumnOf) ==
              static_cast<std::size_t>(simmpi::Pattern::kCount));

}  // namespace

ColumnTotals column_totals(const simmpi::TrafficMeter& traffic) {
  ColumnTotals c;
  for (std::size_t p = 0; p < std::size(kColumnOf); ++p) {
    const simmpi::PatternTotals& t =
        traffic.totals(static_cast<simmpi::Pattern>(p));
    const auto col = static_cast<std::size_t>(kColumnOf[p]);
    c.bytes[col] += t.bytes;
    c.rank_seconds[col] += t.rank_seconds;
  }
  return c;
}

void finalize_report(RunReport& report, const simmpi::Cluster& cluster) {
  const auto& clocks = cluster.clocks();
  report.ranks = cluster.ranks();
  report.threads_per_rank = cluster.threads_per_rank();
  report.cores = cluster.cores();
  report.machine = cluster.machine().name;

  report.total_seconds = clocks.max_now();
  report.per_rank_comm = clocks.all_comm();
  report.per_rank_comp = clocks.all_compute();

  const auto comm = util::summarize(report.per_rank_comm);
  const auto comp = util::summarize(report.per_rank_comp);
  report.comm_seconds_mean = comm.mean;
  report.comm_seconds_max = comm.max;
  report.comp_seconds_mean = comp.mean;
  report.comp_seconds_max = comp.max;

  const ColumnTotals traffic = column_totals(cluster.traffic());
  const double ranks = static_cast<double>(cluster.ranks());
  const auto column = [&](TrafficColumn c, std::uint64_t& bytes,
                          double& seconds) {
    bytes = traffic.bytes_in(c);
    seconds = traffic.rank_seconds[static_cast<std::size_t>(c)] / ranks;
  };
  column(TrafficColumn::kAlltoall, report.alltoall_bytes,
         report.alltoall_seconds);
  column(TrafficColumn::kAllgather, report.allgather_bytes,
         report.allgather_seconds);
  column(TrafficColumn::kTranspose, report.transpose_bytes,
         report.transpose_seconds);
  column(TrafficColumn::kAllreduce, report.allreduce_bytes,
         report.allreduce_seconds);

  eid_t scanned = 0;
  for (const LevelStats& l : report.levels) scanned += l.edges_scanned;
  report.edges_traversed = scanned;

  const simmpi::FaultPlan& plan = cluster.faults();
  const simmpi::FaultCounters& fc = cluster.fault_counters();
  report.faults.enabled = cluster.faults_enabled();
  report.faults.seed = plan.seed;
  report.faults.collective_failures = fc.collective_failures;
  report.faults.collective_retries = fc.collective_retries;
  report.faults.backoff_seconds = fc.backoff_seconds;
  report.faults.reissue_seconds = fc.reissue_seconds;
  report.faults.payload_corruptions = fc.payload_corruptions;
  report.faults.checksum_checks = fc.checksum_checks;
  report.faults.payload_retries = fc.payload_retries;
  report.faults.compute_stragglers =
      static_cast<int>(plan.compute_stragglers.size());
  report.faults.nic_stragglers = static_cast<int>(plan.nic_stragglers.size());
}

}  // namespace dbfs::bfs
