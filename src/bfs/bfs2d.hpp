// Distributed BFS with 2D matrix partitioning (paper Algorithm 3).
//
// The adjacency matrix is checkerboard-partitioned over a square process
// grid; each BFS level is one sparse matrix–sparse vector multiply on the
// (select, max) semiring, realized as:
//   TransposeVector  -> pairwise exchange of frontier pieces
//   Allgatherv       -> "expand" over processor columns (pr participants)
//   local SpMSV      -> DCSC blocks, SPA or heap back end (§4.2)
//   Alltoallv        -> "fold" over processor rows (pc participants)
// followed by element-wise filtering against the parents array and the
// parents update (lines 9-10).
//
// The vector distribution is selectable: the scalable 2D distribution, or
// the diagonal-only ("1D") distribution whose fold-side serialization
// produces the idle-time imbalance of Figure 4.
#pragma once

#include <memory>

#include "bfs/report.hpp"
#include "comm/wire_format.hpp"
#include "dist/vector_dist.hpp"
#include "graph/edge_list.hpp"
#include "model/cost.hpp"
#include "model/machine.hpp"
#include "obs/observers.hpp"
#include "recover/checkpoint.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/process_grid.hpp"
#include "sparse/spmsv.hpp"

namespace dbfs::obs {
class CommAtlas;
}

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

struct Bfs2DOptions {
  /// Total simulated cores; the grid is the closest square over
  /// cores/threads_per_rank ranks (paper §6).
  int cores = 16;
  int threads_per_rank = 1;
  model::MachineModel machine = model::generic();
  sparse::SpmsvBackend backend = sparse::SpmsvBackend::kAuto;
  dist::VectorDistKind vector_dist = dist::VectorDistKind::kTwoD;
  /// Expand-phase allgather implementation (§7 exploration). kRing is the
  /// calibrated default; kAuto switches per call like a tuned MPI would.
  model::AllgatherAlgo allgather_algo = model::AllgatherAlgo::kRing;
  /// Paper §7 space optimization: store only the upper wedge of the
  /// symmetric adjacency matrix (half the memory). Each level then also
  /// runs a scan-based transpose product to cover the mirrored edge
  /// directions, plus a pairwise frontier/result exchange with the
  /// transpose partner. Requires symmetric input; incompatible with the
  /// diagonal vector distribution.
  bool triangular_storage = false;
  /// Wire format for the fold alltoallv (sieve + optional compression)
  /// and the expand allgatherv (compression only — the expand payload is
  /// already deduplicated). kRaw preserves the legacy byte-for-byte code
  /// path and reports; the diagonal vector distribution always stays raw.
  comm::WireFormat wire_format = comm::WireFormat::kRaw;
  /// See Bfs1DOptions::load_smoothing. Smoothing applies within each
  /// phase's participant group, so *structural* concentration (e.g. the
  /// diagonal-only merge of the 1D vector distribution, Fig 4) is never
  /// smoothed away.
  double load_smoothing = 1.0;
  /// Deterministic perturbations (stragglers, transient collective
  /// failures, payload corruption); see simmpi/fault.hpp. A zero plan
  /// leaves the run bit-identical to an unfaulted build.
  simmpi::FaultPlan faults;
  /// Fail-stop recovery: checkpoint cadence and shrink-vs-spare policy
  /// (see recover/checkpoint.hpp). The shrink path re-folds the process
  /// grid to the largest square fitting in the surviving ranks (the grid
  /// must stay square for the transpose exchanges). Arming this without
  /// scheduling kills leaves the run and its report bit-identical.
  recover::RecoverOptions recover;
  /// Passive observers (obs/observers.hpp); attaching any never perturbs
  /// the run. The atlas gets the pr×pc grid, splitting row/column
  /// subcommunicator traffic (expand, fold) from grid-wide traffic — the
  /// 2D locality contrast of the paper's §6 breakdown.
  obs::Observers observers;
  /// Direction optimization. kTopDown (the default) keeps every code path
  /// and report byte-identical to the pre-hybrid engine; kHybrid prices
  /// the per-level switch with Beamer's alpha-beta rule on globally
  /// agreed (allreduced) frontier statistics, so every rank changes
  /// direction in lockstep and the decision replays deterministically
  /// under recovery. Requires full (non-triangular) storage and a
  /// non-diagonal vector distribution. alpha/beta <= 0 derive the
  /// thresholds from the machine model (model::dirop_alpha/dirop_beta).
  DirectionMode direction = DirectionMode::kTopDown;
  double alpha = 14.0;
  double beta = 24.0;
  std::string label = "2d";
};

class Bfs2D {
 public:
  Bfs2D(const graph::EdgeList& edges, vid_t n, Bfs2DOptions opts);
  ~Bfs2D();

  Bfs2D(const Bfs2D&) = delete;
  Bfs2D& operator=(const Bfs2D&) = delete;

  BfsOutput run(vid_t source);

  const simmpi::ProcessGrid& grid() const;
  /// Cores actually used: ranks()*threads (<= opts.cores when the square
  /// grid doesn't divide the request evenly).
  int cores_used() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dbfs::bfs
