// Distributed BFS with 1D vertex partitioning (paper Algorithm 2).
//
// Each simulated rank owns a contiguous vertex range and the out-edges of
// those vertices. A level proceeds as: scan the local frontier's
// adjacencies, bucket each (neighbor, parent) candidate by owner rank,
// exchange everything in one Alltoallv, then let owners apply distance
// checks and build the next local frontier. The hybrid variant models
// t-way intra-node threading in the cost model (four thread barriers per
// level as in Algorithm 2). Its thread-local buffers would merge into the
// same owner-ordered send buffer the flat variant packs, so both variants
// pack that buffer directly. The exchange and the owners' merge are
// bfs/exchange.hpp, shared with Bfs2D's fold.
//
// CommMode selects how the exchange is *priced* (the data movement is
// identical): kAlltoallv is the paper's aggregated collective; the other
// modes reproduce the per-message behavior of the baseline codes the
// paper compares against (Graph500 reference, PBGL).
#pragma once

#include <cstdint>
#include <memory>

#include "bfs/report.hpp"
#include "comm/wire_format.hpp"
#include "dist/local_graph1d.hpp"
#include "graph/edge_list.hpp"
#include "model/machine.hpp"
#include "recover/checkpoint.hpp"
#include "simmpi/cluster.hpp"

namespace dbfs::bfs {

enum class PartitionMode {
  kUniform,       ///< the paper's floor(n/p) blocks (default)
  kEdgeBalanced,  ///< non-uniform boundaries equalizing per-rank edges —
                  ///< a deterministic alternative to the §4.4 shuffle
};

enum class CommMode {
  kAlltoallv,      ///< aggregated collective exchange (our 1D codes)
  kChunkedSends,   ///< per-destination bounded buffers (reference code)
  kPerEdgeSends,   ///< tiny coalescing buffers (PBGL-style)
};

struct Bfs1DOptions {
  int ranks = 4;
  int threads_per_rank = 1;
  model::MachineModel machine = model::generic();
  PartitionMode partition_mode = PartitionMode::kUniform;
  CommMode comm_mode = CommMode::kAlltoallv;
  /// Bytes per message for the chunked mode (per-edge always pays one
  /// message per candidate — that is what makes it the PBGL-style
  /// worst case).
  std::size_t chunk_bytes = 16 * 1024;
  /// Wire format for the aggregated exchange payload (kAlltoallv mode
  /// only; the unaggregated baselines model codes that ship raw structs).
  /// kRaw preserves the legacy byte-for-byte code path and reports; see
  /// comm/wire_format.hpp for the sieve/compression variants.
  comm::WireFormat wire_format = comm::WireFormat::kRaw;
  /// Additional per-edge local cost (baseline implementations' heavier
  /// inner loops: allocation, property-map lookups).
  double extra_per_edge_seconds = 0.0;
  /// Per-peer, per-level host overhead: generic message-buffer frameworks
  /// (PBGL's message buffers, termination detection bookkeeping) touch a
  /// per-destination structure every level, costing CPU time proportional
  /// to the rank count regardless of data volume — the reason PBGL gains
  /// little from added cores (Table 2).
  double per_peer_level_seconds = 0.0;
  /// Statistical load smoothing in [0,1] for compute pricing. 1 prices
  /// every rank at the level's mean volume — the balanced regime of §5's
  /// model, which holds at the paper's per-rank volumes (~1M edges/rank)
  /// but not at a miniaturized instance where a single hub's adjacency
  /// dwarfs a rank's mean level volume. 0 prices each rank on its exact
  /// volumes (used by the shuffle ablation to expose real imbalance).
  double load_smoothing = 1.0;
  /// Deterministic perturbations (stragglers, transient collective
  /// failures, payload corruption); see simmpi/fault.hpp. A zero plan
  /// leaves the run bit-identical to an unfaulted build.
  simmpi::FaultPlan faults;
  /// Fail-stop recovery: checkpoint cadence and shrink-vs-spare policy
  /// (see recover/checkpoint.hpp). Checkpoints are simulated as overlapped
  /// replication, so arming this without scheduling kills leaves the run
  /// and its report bit-identical.
  recover::RecoverOptions recover;
  /// Passive observers (obs/observers.hpp); attaching any never perturbs
  /// the run. The atlas gets the 1×p grid, so its subcommunicator
  /// locality share is 0 by construction (the paper's 1D contrast).
  obs::Observers observers;
  std::string label = "1d";
};

class Bfs1D {
 public:
  /// Partition `edges` (already shuffled/symmetrized as desired) over the
  /// configured number of ranks.
  Bfs1D(const graph::EdgeList& edges, vid_t n, Bfs1DOptions opts);
  ~Bfs1D();

  Bfs1D(const Bfs1D&) = delete;
  Bfs1D& operator=(const Bfs1D&) = delete;

  /// Run one BFS; returns global parent/level arrays plus the report.
  BfsOutput run(vid_t source);

  const dist::BlockPartition& partition() const;
  int ranks() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dbfs::bfs
