// Shared by the distributed BFS implementations: fold the cluster's
// clock/traffic accounting into a RunReport after a run completes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "bfs/report.hpp"

namespace dbfs::simmpi {
class Cluster;
class TrafficMeter;
}

namespace dbfs::bfs {

/// The report columns collective traffic is filed under: the run's
/// alltoall/allgather/transpose/allreduce bytes and seconds, and each
/// level's a2a/expand/other bytes (allreduce has no level column).
enum class TrafficColumn : std::size_t {
  kAlltoall,   ///< Alltoallv, Gatherv (the diagonal fold), PointToPoint
  kAllgather,  ///< Allgatherv, Broadcast (the expand)
  kTranspose,
  kAllreduce,
};

/// A traffic meter's totals summed per column through one
/// pattern-to-column table, patterns in enum order.
struct ColumnTotals {
  std::array<std::uint64_t, 4> bytes{};
  std::array<double, 4> rank_seconds{};  ///< participants x seconds

  std::uint64_t bytes_in(TrafficColumn c) const {
    return bytes[static_cast<std::size_t>(c)];
  }
};

ColumnTotals column_totals(const simmpi::TrafficMeter& traffic);

void finalize_report(RunReport& report, const simmpi::Cluster& cluster);

}  // namespace dbfs::bfs
