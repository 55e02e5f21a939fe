// Fail-stop recovery for the level-synchronous BFS drivers.
//
// Level-synchronous BFS has a natural consistency point — the level
// barrier — so cheap checkpoint/restart is a snapshot of (parents,
// levels, current frontier) taken after a level completes. The snapshot
// is simulated as an asynchronous replicated copy (diskless checkpointing
// to a partner rank's memory): it is metered in bytes and counted in the
// recover.* metrics, but overlapped with the traversal, so a run with
// checkpointing enabled and no failures keeps clocks — and the report —
// bit-identical to a run without the subsystem.
//
// When a collective raises simmpi::RankFailedError the driver recovers:
//   * Policy::kShrink — rebuild the communicator with p-1 ranks (2D
//     grids re-fold to the nearest valid pr x pc), re-partition every
//     vertex onto the survivors, restore the snapshot, and replay from
//     the last checkpointed level;
//   * Policy::kSpare — promote a hot spare into the dead rank's slot and
//     restore just that shard from the replica; the grid and the
//     partition are untouched.
// Either way the traversal's final parents/levels are bit-identical to a
// fault-free run: replayed levels recompute exactly the same frontier
// expansions (the per-level combine rules are partition-independent).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace dbfs::recover {

/// What to do about a dead rank. See the file comment.
enum class Policy { kShrink, kSpare };

const char* to_string(Policy policy);
/// Parse "shrink" | "spare"; throws std::invalid_argument otherwise.
Policy parse_policy(const std::string& name);

struct RecoverOptions {
  /// Snapshot cadence: checkpoint after every k completed levels. 0
  /// disables periodic snapshots — the implicit level-0 snapshot (just
  /// the source) is always kept while kills are scheduled, so 0 means
  /// "replay from the start" (the k = infinity point of the ablation).
  int checkpoint_every = 0;
  Policy policy = Policy::kShrink;
  /// Hot spares available to Policy::kSpare before recovery gives up and
  /// rethrows the failure.
  int spare_ranks = 1;
  /// State-audit cadence: run the ABFT auditor (src/bfs/audit.*) after
  /// every k completed levels, plus once after the traversal finishes. 0
  /// disables auditing — a run with audits off and no at-rest fault plan
  /// is bit-identical to a build without the subsystem.
  int audit_every = 0;
};

/// One consistent BFS snapshot, taken at a level barrier.
struct Checkpoint {
  int levels_completed = 0;  ///< levels fully applied to parent/level
  std::int64_t global_frontier = 0;
  std::vector<level_t> level;   ///< full distance array at the barrier
  std::vector<vid_t> parent;    ///< full parent array at the barrier
  std::vector<vid_t> frontier;  ///< sorted global ids of the live frontier
  /// Direction-optimization heuristic state at the barrier. The per-level
  /// direction decision is a pure function of (m_f, m_u, frontier size,
  /// current direction), so snapshotting these three scalars makes a
  /// replayed traversal take the same directions as the original — the
  /// replay-determinism contract the hybrid engine promises.
  eid_t dirop_frontier_edges = 0;    ///< m_f at the barrier
  eid_t dirop_unexplored_edges = 0;  ///< m_u at the barrier
  bool dirop_bottom_up = false;      ///< direction the last level ran in
};

/// Deterministic digest of a snapshot's full contents (header scalars,
/// arrays, frontier, dirop state). The store keeps this checksum for
/// each snapshot's header (the snapshot with its arrays left empty) and
/// recomputes it at every scrub, so an at-rest flip in a stored frontier
/// is caught before it is ever replayed from.
std::uint64_t checkpoint_checksum(const Checkpoint& snapshot) noexcept;

/// Structural audit of a snapshot: returns the name of the first BFS
/// invariant it violates, or nullptr when clean. Catches snapshots that
/// were corrupted *before* they were stored (the checksum matches but the
/// contents were already wrong): source rooting, parent/level tree
/// consistency, and frontier/level agreement. The implicit empty
/// snapshot (replay from source) is always clean.
const char* checkpoint_defect(const Checkpoint& snapshot, vid_t source);

/// Holds the replicated snapshot history plus byte/count accounting, as
/// an append-only journal of what the incremental snapshots ship. take()
/// journals one (vertex, parent, level) entry, hashed on its own, for
/// every vertex whose entry differs from the journal's end state, plus a
/// header (levels completed, frontier list, dirop state) checksummed with
/// checkpoint_checksum(). A snapshot's contents are the journal up to its
/// own take, the latest entry per vertex winning. A scrub hashes every
/// stored entry once, so verifying every replica at every audit costs
/// O(n + journal) instead of O(snapshots x n), and the store holds
/// O(n + total frontier size) entries per run. All stored snapshots must
/// cover the same vertex count; take() throws std::invalid_argument
/// otherwise.
class CheckpointStore {
 public:
  void arm(const RecoverOptions& options);

  bool armed() const noexcept { return armed_; }
  const RecoverOptions& options() const noexcept { return options_; }

  /// True when the cadence says to snapshot after `levels_completed`
  /// levels (cadence 0 never fires).
  bool due(int levels_completed) const noexcept {
    return armed_ && options_.checkpoint_every > 0 &&
           levels_completed % options_.checkpoint_every == 0;
  }

  /// Store a snapshot; returns the incremental replicated bytes. Entries
  /// an at-rest flip rotted at the journal's end differ from the live
  /// arrays, so they are journaled afresh and the new snapshot is clean.
  std::uint64_t take(Checkpoint snapshot);

  /// Newest stored snapshot, unverified. Empty (replay from source) until
  /// the first take().
  Checkpoint latest() const;

  /// Newest stored snapshot that passes verification (its header
  /// checksum and the hash of every entry it reads) and the structural
  /// defect check. Falls back to the implicit empty snapshot (replay from
  /// source) when every stored replica is corrupt — recovery never
  /// dead-ends, it just replays more levels. Returns a store-owned copy,
  /// valid until the next call.
  const Checkpoint& newest_clean(vid_t source);

  /// Make `snapshot` (the reference newest_clean() returned) the newest
  /// entry again: truncate the journal after it and reset the
  /// incremental baseline so post-rollback takes re-ship what the
  /// discarded snapshots had. Passing the implicit empty snapshot — or
  /// any other reference — clears the history.
  void rollback_to(const Checkpoint& snapshot);

  /// Fault-injection hook: flip one bit of the newest stored replica
  /// (shape picks the array, item, and bit) without touching any stored
  /// hash — exactly what an at-rest memory error does. An entry that
  /// replica wrote itself flips in place; one it reads from an older
  /// snapshot is journaled again, flipped but under its original hash,
  /// into the replica's own range, so older replicas stay clean. Returns
  /// false when nothing is stored to corrupt.
  bool corrupt_latest(std::uint64_t shape);

  /// Audit-time scrub: reject stored snapshots whose header or any entry
  /// they read no longer matches its stored hash; returns how many were
  /// rejected (sdc.checkpoints_rejected). A rejected snapshot's entries
  /// stay in the journal for the snapshots after it, but it is never
  /// restored from, counted again, or included in stored().
  int scrub();

  std::int64_t checkpoints_taken() const noexcept { return taken_; }
  std::uint64_t bytes_shipped() const noexcept { return bytes_; }
  std::size_t stored() const noexcept;

 private:
  /// One journaled entry and the hash it was written with; an at-rest
  /// flip changes the values, never the hash.
  struct Entry {
    vid_t vertex = 0;
    vid_t parent = kNoVertex;
    level_t level = kUnreached;
    std::uint64_t hash = 0;
  };
  /// One snapshot: its journal range runs from the previous snapshot's
  /// `end` to its own.
  struct Snapshot {
    Checkpoint header;  ///< everything but the parent/level arrays
    std::uint64_t checksum = 0;
    std::size_t end = 0;
    bool rejected = false;  ///< failed a scrub
  };

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::size_t newest_live() const noexcept;
  std::vector<char> verify() const;
  void replay(std::size_t end, std::vector<vid_t>& parent,
              std::vector<level_t>& level) const;

  RecoverOptions options_;
  bool armed_ = false;
  std::vector<Entry> journal_;
  std::vector<Snapshot> snapshots_;  ///< oldest first
  /// The journal's end state, rotted entries included: take()'s diff base.
  std::vector<vid_t> base_parent_;
  std::vector<level_t> base_level_;
  Checkpoint view_;  ///< what newest_clean() last returned
  std::size_t view_index_ = kNone;  ///< its snapshot; kNone when empty
  std::int64_t prev_visited_ = 0;
  std::int64_t taken_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Bytes every survivor re-ingests for a full restore of `snapshot`: the
/// (parent, level) pair of each visited vertex plus the frontier list.
/// Shared by both distributions' shrink paths so the recover.* metrics
/// and the flight-recorder payloads price restores identically.
std::uint64_t restore_payload_bytes(const Checkpoint& snapshot);

/// Bytes a promoted spare re-ingests from the replica: one rank's shard
/// of the (parent, level) arrays.
std::uint64_t shard_payload_bytes(std::uint64_t shard_vertices) noexcept;

}  // namespace dbfs::recover
