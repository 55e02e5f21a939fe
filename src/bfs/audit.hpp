// ABFT-style state auditor for the distributed BFS drivers.
//
// Wire corruption is caught by the checked collectives (simmpi/comm.hpp)
// and fail-stop deaths by the failure detector — but a bit that rots *at
// rest* in a rank's resident parents/levels shard, sender-side visited
// bitmap, direction-heuristic scalars, or stored checkpoint replica
// never crosses a checksum boundary. The auditor closes that gap with
// algorithm-based fault tolerance: every legitimate write to the BFS
// state also updates a cheap per-shard shadow checksum (SdcShadow), and
// at a configurable level cadence (RecoverOptions::audit_every) every
// rank re-derives its shard sum from the arrays and the cluster agrees
// on the global mismatch count via one priced allreduce. A disagreement
// — or a broken tree property, a visited-superset violation, or drifted
// dirop state — raises simmpi::AuditFailedError, and the drivers roll
// back to the newest *clean* checkpoint (recover::CheckpointStore
// verifies stored replicas against their content checksums) and replay,
// converging to bit-identical parents/levels exactly like the fail-stop
// path.
//
// Audits are priced in the α–β model (model::cost_sdc_audit plus the
// allreduce), so audited runs are honestly costed; a run with
// audit_every == 0 and no at-rest fault plan never reaches this file.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace dbfs::simmpi {
class Cluster;
}
namespace dbfs::comm {
class Sieve;
}

namespace dbfs::bfs {

/// Digest of one (vertex, parent, level) entry. The shadow keeps the
/// *wrapping sum* of these per shard, so it is order-independent and
/// supports incremental overwrite (subtract old, add new) — the same
/// trick comm::payload_checksum uses for in-flight payloads.
std::uint64_t sdc_entry_hash(vid_t v, vid_t parent, level_t level) noexcept;

/// Per-shard running checksums of the (parent, level) arrays, maintained
/// by the BFS update loops at every legitimate write. Rank-private in
/// the for_each_rank sense: each shard's sum is only touched by its
/// owner's phase, so parallel per-rank updates are race-free.
class SdcShadow {
 public:
  /// Size for `shards` ranks and zero every sum. Called once per run.
  void reset(int shards);

  bool active() const noexcept { return !sums_.empty(); }
  int shards() const noexcept { return static_cast<int>(sums_.size()); }

  /// Record a fresh write of a previously-unvisited vertex.
  void add(int shard, vid_t v, vid_t parent, level_t level) noexcept {
    sums_[static_cast<std::size_t>(shard)] += sdc_entry_hash(v, parent, level);
  }

  /// Re-derive every shard sum from the arrays. Used after a checkpoint
  /// restore or rollback, when the arrays were just overwritten
  /// wholesale (and, after a shrink, re-sharded under a new owner map).
  void rebuild(std::span<const vid_t> parent, std::span<const level_t> level,
               const std::function<int(vid_t)>& owner);

  std::uint64_t sum(int shard) const noexcept {
    return sums_[static_cast<std::size_t>(shard)];
  }

 private:
  std::vector<std::uint64_t> sums_;  ///< wrapping per-shard entry-hash sums
};

/// Everything one audit inspects. Spans refer to the caller's live run
/// state; nothing is copied.
struct SdcAuditInputs {
  std::span<const vid_t> parent;
  std::span<const level_t> level;
  const SdcShadow* shadow = nullptr;  ///< required
  /// Global vertex id -> shard index in [0, world.size()) — the 1D owner
  /// map or the 2D vector-block owner, post-shrink numbering included.
  std::function<int(vid_t)> owner;
  vid_t source = 0;
  /// Sender-side visited sieve, when the wire path maintains one; the
  /// auditor checks marked ⊆ globally-visited (a spuriously-set bit
  /// suppresses sends and silently truncates the traversal).
  const comm::Sieve* sieve = nullptr;
  /// Direction-heuristic state vs its shadow copy (2D hybrid runs):
  /// equal-length spans compared elementwise.
  std::span<const std::uint64_t> dirop_state;
  std::span<const std::uint64_t> dirop_shadow;
};

struct SdcAuditResult {
  std::int64_t mismatches = 0;  ///< cluster-agreed count (0 = clean)
  double audit_seconds = 0.0;   ///< virtual makespan the audit added
};

/// Run one audit across `world`: per-rank shard re-checksum + invariant
/// scans priced via model::cost_sdc_audit, then one priced allreduce of
/// the per-rank mismatch counts at `site` so every rank agrees on the
/// verdict. Emits sdc.* metrics and an "audit" flight event; throws
/// simmpi::AuditFailedError naming the first broken invariant (and a
/// sample vertex when one is known) on an agreed mismatch.
SdcAuditResult run_sdc_audit(simmpi::Cluster& cluster,
                             std::span<const int> world,
                             const SdcAuditInputs& in,
                             const char* site = "sdc-audit");

}  // namespace dbfs::bfs
