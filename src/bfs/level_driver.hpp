// The level-synchronous loop both distributed engines share, with its
// resilience lifecycle written once.
//
// The paper's Algorithms 2 (1D) and 3 (2D) are the same loop — expand the
// frontier one level, agree on the next frontier's size, repeat until it
// is empty — with different exchange steps. LevelDriver owns that loop
// and everything wrapped around each level: the per-level report framing
// (LevelStats timing, level/atlas flight events), the level barrier in
// hazard order (at-rest flips fire, the ABFT audit sees them, only then a
// checkpoint may snapshot the audited state), the closing sweep, and the
// two repair paths — rollback to the newest clean snapshot after a failed
// audit, and shrink-or-spare recovery after a rank death. Both repairs
// run through one retry loop, so a kill detected during either repair's
// restore collective is recovered like any other.
//
// An engine plugs in through LevelEngine: one level step ending at the
// "level-sync" allreduce, its owner map and sieve, its shrink
// re-partition, its spare shard size, and (2D hybrid only) hooks for the
// direction heuristic's carried state.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bfs/audit.hpp"
#include "bfs/report.hpp"
#include "comm/wire_format.hpp"
#include "recover/checkpoint.hpp"
#include "simmpi/fault.hpp"

namespace dbfs::simmpi {
class Cluster;
}
namespace dbfs::comm {
class Sieve;
}

namespace dbfs::bfs {

/// One level's wire accounting, summed over its encoded exchanges.
struct WireTally {
  comm::WireStats stats;
  std::uint64_t pre_bytes = 0;  ///< payload bytes before sieve and codec
  std::uint64_t dropped = 0;    ///< candidates the sieve dropped
};

/// Charge per-rank compute costs to `group`, blended toward the group
/// mean by `smoothing` (see Bfs1DOptions::load_smoothing).
void charge_smoothed(simmpi::Cluster& cluster, std::span<const int> group,
                     const std::vector<double>& costs, double smoothing);

/// What a distribution supplies to LevelDriver.
class LevelEngine {
 public:
  virtual ~LevelEngine() = default;

  /// Run one level: expand the per-rank frontier `fs` (owned global ids)
  /// to distance `level`, updating `out.parent`/`out.level`, leaving the
  /// next frontier in `fs`, and filling this engine's fields of `stats`
  /// (edges scanned, traffic split). Ends at the "level-sync" allreduce;
  /// returns the next global frontier size.
  virtual vid_t step(BfsOutput& out, std::vector<std::vector<vid_t>>& fs,
                     level_t level, LevelStats& stats) = 0;
  /// Rank owning `v`'s parent/level entries and frontier slot.
  virtual int owner(vid_t v) const = 0;
  /// Sender-side visited sieve, or null when the exchange keeps none.
  virtual comm::Sieve* visited_sieve() = 0;
  /// Communicator shape as rows x cols (1D: 1 x p).
  virtual std::pair<int, int> shape() const = 0;
  /// Re-partition onto the largest valid communicator smaller than the
  /// current one. Returns false, changing nothing, when none exists.
  virtual bool shrink() = 0;
  /// Vertices in `rank`'s shard (what a promoted spare restores).
  virtual vid_t shard_size(int rank) const = 0;

  /// Direction-heuristic state (2D hybrid only). save/load copy it into
  /// and out of a snapshot; loading the implicit empty snapshot resets it
  /// to the run's initial conditions. flip applies an at-rest corruption
  /// (false when there is no live state to hit); audit points the
  /// auditor at the live scalars and their replica.
  virtual void save_dirop(recover::Checkpoint& /*snap*/) const {}
  virtual void load_dirop(const recover::Checkpoint& /*snap*/) {}
  virtual bool flip_dirop(std::uint64_t /*shape*/) { return false; }
  virtual void audit_dirop(SdcAuditInputs& /*in*/) {}
};

class LevelDriver {
 public:
  /// `cluster` and `world` are the engine's; a shrink recovery replaces
  /// both in place. `level_site` names the per-level flight events.
  LevelDriver(LevelEngine& engine, simmpi::Cluster& cluster,
              std::vector<int>& world, vid_t n,
              const recover::RecoverOptions& recover, const char* level_site);

  /// Traverse from `source` into `out` (whose header fields the engine
  /// has filled), repairing audit failures and rank deaths on the way,
  /// and finalize the report. Unrepairable faults propagate.
  void run(vid_t source, BfsOutput& out);

  vid_t source() const noexcept { return source_; }
  /// Write-time ABFT shadow while SDC resilience is armed, else null.
  SdcShadow* shadow() noexcept { return sdc_on_ ? &shadow_ : nullptr; }

  /// Fold one level's wire accounting into the wire.* metrics and a
  /// "wire" flight event at `site`.
  void record_wire(const WireTally& wl, const char* site);

 private:
  void traverse();
  void level_barrier();
  void take_checkpoint();
  void restore_state(const recover::Checkpoint& ckpt);
  void recover_from(const simmpi::RankFailedError& dead);
  void rollback_from(const simmpi::AuditFailedError& bad);
  /// Shrink the communicator and rebuild the cluster on it, carrying
  /// the fault plan, counters, observers, meter and clocks across.
  void shrink_cluster(const simmpi::RankFailedError& dead, int trace_level);
  void apply_flip(const simmpi::MemFlip& flip);
  void audit_now();

  LevelEngine& engine_;
  simmpi::Cluster& cluster_;
  std::vector<int>& world_;
  const vid_t n_;
  const recover::RecoverOptions& recover_;
  const char* level_site_;

  recover::CheckpointStore store_;
  RecoverReport rec_;  ///< per-run recovery accounting; reset by run()
  SdcShadow shadow_;   ///< write-time ABFT shard checksums (audit.hpp)
  SdcReport sdc_;      ///< per-run SDC accounting; reset by run()
  bool sdc_on_ = false;  ///< audits armed or at-rest flips scheduled
  bool armed_ = false;   ///< snapshots kept (recovery or SDC armed)
  vid_t source_ = 0;     ///< the run's source (rollback re-roots from it)

  // Live traversal state of the current run.
  BfsOutput* out_ = nullptr;
  std::vector<std::vector<vid_t>> fs_;  ///< per-rank owned frontier
  vid_t global_frontier_ = 0;
  level_t level_ = 0;  ///< distance the next level assigns
};

}  // namespace dbfs::bfs
