// One description of a run, taken by bfs::Bfs1D and bfs::Bfs2D and
// passed through unchanged by the core::Engine facade. The paper's
// distributed codes are one level-synchronous family (§4, §6):
// `algorithm` picks the partition, threading and exchange pricing; an
// algorithm ignores the knobs it has no use for.
#pragma once

#include <algorithm>
#include <string>

#include "comm/wire_format.hpp"
#include "dist/vector_dist.hpp"
#include "model/cost.hpp"
#include "model/machine.hpp"
#include "recover/checkpoint.hpp"
#include "simmpi/fault.hpp"
#include "sparse/spmsv.hpp"

namespace dbfs::bfs {

/// Traversal direction policy for the 2D engine (Beamer et al. SC'12
/// brought into the 2D SpMSV formulation, after Buluç et al. 2017).
enum class DirectionMode {
  kTopDown,   ///< classic Algorithm 3 only — the byte-identical legacy path
  kBottomUp,  ///< transposed-SpMSV pull on every level after the first
  kHybrid,    ///< per-level alpha-beta switch, agreed globally per level
};

const char* to_string(DirectionMode mode);
/// Parse "topdown" | "bottomup" | "hybrid"; throws std::invalid_argument.
DirectionMode parse_direction_mode(const std::string& name);

enum class PartitionMode {
  kUniform,       ///< the paper's floor(n/p) blocks (default)
  kEdgeBalanced,  ///< non-uniform boundaries equalizing per-rank edges —
                  ///< a deterministic alternative to the §4.4 shuffle
};

}  // namespace dbfs::bfs

namespace dbfs::core {

enum class Algorithm {
  kSerial,       ///< Algorithm 1, host execution
  kShared,       ///< intra-node OpenMP BFS, host execution
  kOneDFlat,     ///< Algorithm 2, flat MPI (one rank per core)
  kOneDHybrid,   ///< Algorithm 2 + t-way threading per rank
  kTwoDFlat,     ///< Algorithm 3, flat MPI
  kTwoDHybrid,   ///< Algorithm 3 + t-way threading per rank
  kGraph500Ref,  ///< baseline: reference MPI code behavior
  kPbglLike,     ///< baseline: PBGL behavior
};

struct EngineOptions {
  Algorithm algorithm = Algorithm::kTwoDFlat;
  /// Total simulated cores: one rank per core for flat algorithms,
  /// cores / threads ranks for hybrid ones; the 2D grid is the closest
  /// square over those ranks (paper §6).
  int cores = 16;
  /// Hybrid algorithms only (every other one runs 1): 0 = the machine's
  /// natural degree (4 on Franklin, 6 on Hopper, §6). See rank_threads.
  int threads_per_rank = 0;
  model::MachineModel machine = model::generic();
  /// 2D: local SpMSV back end (§4.2), vector distribution (the diagonal
  /// one reproduces Fig 4's fold serialization), and expand allgather
  /// (§7; kRing is calibrated, kAuto switches per call).
  sparse::SpmsvBackend backend = sparse::SpmsvBackend::kAuto;
  dist::VectorDistKind vector_dist = dist::VectorDistKind::kTwoD;
  model::AllgatherAlgo allgather_algo = model::AllgatherAlgo::kRing;
  /// 1D vertex-block boundaries.
  bfs::PartitionMode partition_mode = bfs::PartitionMode::kUniform;
  /// 2D: §7 triangular storage — the symmetric matrix's upper wedge only,
  /// plus a transpose scan and pairwise exchange per level. Needs
  /// symmetric input and the 2D vector distribution.
  bool triangular_storage = false;
  /// Sender-side visited sieve + bitmap/varint payload compression for
  /// the 1D alltoallv and the 2D fold/expand (comm/wire_format.hpp).
  /// kRaw keeps the legacy byte-for-byte paths. The diagonal vector
  /// distribution and the baselines always ship raw structs.
  comm::WireFormat wire_format = comm::WireFormat::kRaw;
  /// Compute pricing in [0,1]: 1 prices each rank at its group's mean
  /// volume (§5's balanced regime of ~1M edges/rank, which one hub breaks
  /// at miniature scale), 0 at its exact volume. Fig 4's structural
  /// concentration is never smoothed away. The baselines always use 1.
  double load_smoothing = 1.0;
  /// Deterministic faults for the distributed algorithms (simmpi/fault.hpp).
  /// A zero plan leaves the run bit-identical; unrepairable corruption
  /// throws simmpi::FaultError rather than returning a wrong tree.
  simmpi::FaultPlan faults{};
  /// Checkpoint, shrink-vs-spare and audit settings (recover/checkpoint.hpp);
  /// inert without kills or flips. The baselines always run the defaults:
  /// the codes they model have no recovery story.
  recover::RecoverOptions recover{};
  /// Engine attaches the tracer, metrics registry and per-rank-pair atlas
  /// (src/obs/) to a distributed run. Passive: the run and its report stay
  /// byte-identical. Each run overwrites the last one's recordings.
  bool trace = false;
  bool metrics = false;
  bool atlas = false;
  /// 2D traversal direction. kHybrid prices Beamer's alpha-beta switch on
  /// allreduced frontier statistics, so ranks turn in lockstep and replays
  /// repeat the turns; it needs full storage and the 2D vector
  /// distribution. alpha/beta <= 0 derive from the machine model.
  bfs::DirectionMode direction = bfs::DirectionMode::kTopDown;
  double alpha = 14.0;
  double beta = 24.0;
};

/// The machine's natural hybrid threading degree: one NUMA domain per
/// rank (6-way on 24-core Hopper nodes, 4-way on quad-core Franklin).
inline int default_threads_per_rank(const model::MachineModel& machine) {
  return machine.cores_per_node >= 24 ? 6
         : machine.cores_per_node >= 4 ? 4
                                       : machine.cores_per_node;
}

/// Threads per rank a run of `o` uses: 1 unless the algorithm is hybrid,
/// and never more than `cores`, so a run uses at most the cores it asks
/// for.
inline int rank_threads(const EngineOptions& o) {
  if (o.algorithm != Algorithm::kOneDHybrid &&
      o.algorithm != Algorithm::kTwoDHybrid) {
    return 1;
  }
  const int threads = o.threads_per_rank > 0
                          ? o.threads_per_rank
                          : default_threads_per_rank(o.machine);
  return std::min(threads, std::max(1, o.cores));
}

}  // namespace dbfs::core
