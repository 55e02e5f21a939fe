// Deterministic fault injection for the simulated cluster.
//
// A FaultPlan perturbs a run in three orthogonal ways, all fully
// determined by (seed, event index) so two runs of the same configuration
// inject byte-identical fault sequences:
//
//   * per-rank slowdown factors — compute stragglers multiply the time a
//     rank's local phases are charged; NIC degradation multiplies the
//     transfer cost of every collective the rank participates in (the
//     group pays the worst member's link, rooted collectives pay the
//     root's);
//   * transient collective failures — a failed collective costs its full
//     transfer time, then a capped exponential backoff, then a re-issue;
//     all of it lands on the participants' virtual clocks as
//     communication time and in the FaultCounters;
//   * payload corruption — a bit-flip, drop, or duplicate of one item in
//     a data-carrying collective. The checked_* wrappers in comm.hpp
//     detect this with order-independent per-call checksums and re-issue
//     the exchange; an unrecoverable payload raises FaultError so a
//     corrupted BFS can never complete silently wrong;
//   * fail-stop rank kills — a scheduled rank dies permanently at a
//     virtual time or BFS level. The first collective issued on a group
//     containing the dead rank raises RankFailedError (ULFM-style revoke
//     semantics: every survivor learns of the death at the same barrier)
//     after the survivors pay the detection timeout priced by
//     model::cost_failure_detection. Recovery — shrink to p-1 ranks or
//     promote a hot spare — lives in src/recover/ and the BFS drivers;
//   * at-rest memory corruption (silent data corruption) — a scheduled
//     bit-flip in state *resident* on a rank at a level barrier: the
//     parents or levels shard, the sender-side visited bitmap, the
//     direction-optimization heuristic scalars, or a stored checkpoint
//     replica. Nothing on the wire notices — detection is the job of the
//     ABFT state auditor in src/bfs/audit.* and the self-verifying
//     checkpoint store, which raise AuditFailedError so the drivers can
//     roll back to the newest clean snapshot and replay.
//
// After a shrink, remaining kill entries are interpreted against the
// rebuilt communicator's rank numbering (the plan names logical slots,
// not physical hosts).
//
// A default-constructed (zero) plan is inert: every consultation point is
// gated so the unfaulted paths are bit-identical to a build without the
// subsystem.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dbfs::simmpi {

/// How a corrupted payload is mangled. kMix draws one of the three
/// concrete kinds per corruption event.
enum class CorruptKind { kNone, kBitFlip, kDrop, kDuplicate, kMix };

const char* to_string(CorruptKind kind);
/// Parse "bitflip" | "drop" | "dup" | "mix" (CLI spelling); throws
/// std::invalid_argument otherwise.
CorruptKind parse_corrupt_kind(const std::string& name);

/// Structured error raised when a fault exhausts its retry budget: the
/// injection site, the fault kind, how many attempts were made, and —
/// when known — the rank and BFS level are preserved so harnesses can
/// assert on *why* a run aborted without a trace dump.
class FaultError : public std::runtime_error {
 public:
  FaultError(std::string site, std::string kind, int attempts,
             int rank = -1, int level = -1);

  const std::string& site() const noexcept { return site_; }
  const std::string& kind() const noexcept { return kind_; }
  int attempts() const noexcept { return attempts_; }
  /// Rank the fault is attributed to, or -1 when it hit the whole group.
  int rank() const noexcept { return rank_; }
  /// BFS level in flight when the fault fired, or -1 outside a traversal.
  int level() const noexcept { return level_; }

 protected:
  /// For subclasses that phrase their own what() but keep the fields.
  struct Prebuilt {};
  FaultError(Prebuilt, const std::string& message, std::string site,
             std::string kind, int attempts, int rank, int level);

 private:
  std::string site_;
  std::string kind_;
  int attempts_;
  int rank_;
  int level_;
};

/// Raised by the first collective issued on a group containing a dead
/// rank. Carries the virtual time at which the survivors finished the
/// detection timeout so recovery can resume their clocks from there.
class RankFailedError : public FaultError {
 public:
  RankFailedError(std::string site, int rank, int level,
                  double virtual_time);

  double virtual_time() const noexcept { return virtual_time_; }

 private:
  double virtual_time_;
};

/// Raised when the state auditor (src/bfs/audit.*) or a verified
/// checkpoint restore detects silent data corruption. Carries which
/// invariant broke, a sample offending vertex when one is known, and the
/// virtual time at which the cluster agreed on the verdict so rollback
/// can resume the survivors' clocks from there.
class AuditFailedError : public FaultError {
 public:
  AuditFailedError(std::string site, std::string check, int rank, int level,
                   std::int64_t sample_vertex, double virtual_time);

  /// The invariant that failed ("shard-checksum", "tree-property",
  /// "visited-superset", "dirop-state", "checkpoint-checksum", ...).
  const std::string& check() const noexcept { return check_; }
  /// A vertex witnessing the corruption, or -1 when only aggregate
  /// checksums disagreed.
  std::int64_t sample_vertex() const noexcept { return sample_vertex_; }
  double virtual_time() const noexcept { return virtual_time_; }

 private:
  std::string check_;
  std::int64_t sample_vertex_;
  double virtual_time_;
};

/// One scheduled fail-stop death. Exactly one of at_level / at_time
/// should be >= 0; the kill fires at the first collective on a group
/// containing `rank` once the trigger is due.
struct RankKill {
  int rank = -1;
  int at_level = -1;     ///< fire once the BFS reaches this level
  double at_time = -1.0; ///< fire once the rank's clock reaches this time

  bool due(int current_level, double now) const noexcept {
    if (at_level >= 0 && current_level >= at_level) return true;
    return at_time >= 0.0 && now >= at_time;
  }
};

/// What resident state an at-rest corruption event mangles.
enum class FlipTarget {
  kParents,     ///< one bit of one visited vertex's parent entry
  kLevels,      ///< one bit of one visited vertex's distance entry
  kVisited,     ///< one spurious bit in the sender-side visited bitmap
  kDirop,       ///< one bit of the direction-optimization m_u scalar
  kCheckpoint,  ///< one bit of the newest stored checkpoint replica
};

const char* to_string(FlipTarget target);
/// Parse "parents" | "levels" | "visited" | "dirop" | "checkpoint";
/// throws std::invalid_argument otherwise.
FlipTarget parse_flip_target(const std::string& name);

/// One scheduled at-rest corruption event: state resident on `rank` is
/// flipped at the first level barrier after `at_level` BFS levels have
/// completed. Like kills, entries naming ranks outside the cluster (or
/// levels the traversal never reaches) are ignored, and a fired flip is
/// consumed so recovery replays run clean — which is what lets a detected
/// corruption converge to bit-identical parents/levels.
struct MemFlip {
  int rank = -1;
  int at_level = -1;
  FlipTarget target = FlipTarget::kParents;

  bool due(int levels_completed) const noexcept {
    return at_level >= 0 && levels_completed >= at_level;
  }
};

struct FaultPlan {
  /// Stream selector for every random draw the plan makes. The seed does
  /// not by itself enable anything; rates and straggler lists do.
  std::uint64_t seed = 0;

  /// Probability that one collective issue fails and must be re-issued.
  double collective_fail_rate = 0.0;
  /// Re-issues before the collective is declared dead (FaultError).
  int max_collective_retries = 6;
  /// Backoff before re-issue k is min(cap, base * 2^k).
  double backoff_base_seconds = 1e-4;
  double backoff_cap_seconds = 2e-3;

  /// Probability that a data-carrying collective delivers a corrupted
  /// payload (one item bit-flipped, dropped, or duplicated).
  double corrupt_rate = 0.0;
  CorruptKind corrupt_kind = CorruptKind::kMix;
  /// Re-issues after a checksum mismatch before FaultError.
  int max_payload_retries = 3;

  /// (rank, factor) lists; factor > 1 slows the rank down. Entries for
  /// ranks outside the cluster are ignored (plans are written against a
  /// core count, not a specific grid shape).
  std::vector<std::pair<int, double>> compute_stragglers;
  std::vector<std::pair<int, double>> nic_stragglers;

  /// Scheduled fail-stop deaths (see RankKill). Entries for ranks outside
  /// the cluster are ignored, like the straggler lists.
  std::vector<RankKill> rank_kills;

  /// Scheduled at-rest corruption events (see MemFlip). Injected by the
  /// BFS drivers at level barriers; detection belongs to the state
  /// auditor and the verified checkpoint store, never the wire.
  std::vector<MemFlip> mem_flips;

  /// True when any perturbation is configured; gates every hot path.
  bool enabled() const noexcept;
  bool payload_faults() const noexcept { return corrupt_rate > 0.0; }

  double compute_factor(int rank) const noexcept;
  double nic_slowdown(int rank) const noexcept;

  /// Deterministic draws, keyed by (seed, event index). Events are
  /// numbered by the Cluster in issue order.
  bool collective_fails(std::uint64_t event) const noexcept;
  CorruptKind corruption_at(std::uint64_t event) const noexcept;
  /// Raw 64-bit draw used to pick corruption victims (buffer/item/bit).
  std::uint64_t shape_draw(std::uint64_t event) const noexcept;

  /// Raw 64-bit draw picking an at-rest flip's victim vertex/bit. Keyed
  /// by the flip's own identity (rank, level, target) rather than an
  /// event counter so the same flip mangles the same bit no matter how
  /// many recoveries replayed before it fired.
  std::uint64_t flip_shape(const MemFlip& flip) const noexcept;

  double backoff_seconds(int attempt) const noexcept;
};

/// Serialize a plan as a JSON object, doubles at round-trip precision.
/// Kill schedules land under "rank_kills" and corruption schedules under
/// "mem_flips"; a plan without either omits the key so pre-kill readers
/// keep working.
std::string to_json(const FaultPlan& plan);

/// Parse a plan written by to_json (or by hand). Absent keys keep their
/// defaults, so an old pre-kill plan JSON loads with an empty kill
/// schedule — inert with respect to fail-stop faults. Unknown top-level
/// keys (a newer plan read by an older binary) warn once per key to
/// stderr instead of being silently dropped.
FaultPlan fault_plan_from_json(const std::string& text);

/// Load a CLI --fault-plan value onto `base`: "kill:SPECS" replaces its
/// kill schedule and "flip:SPECS" its flip schedule, keeping every other
/// field; anything else names a fault-plan JSON file that replaces the
/// whole plan. Throws std::invalid_argument on a malformed spec or an
/// unreadable file (the message names the path).
FaultPlan load_fault_plan(const std::string& spec, FaultPlan base = {});

/// Parse the CLI kill syntax: comma-separated "RANK@levelL" /
/// "RANK@tSECONDS" specs, e.g. "2@level3,0@t0.05". Throws
/// std::invalid_argument on malformed specs.
std::vector<RankKill> parse_kill_specs(const std::string& spec);

/// Parse the CLI at-rest corruption syntax: comma-separated
/// "RANK@levelL:target" specs, e.g. "2@level3:parents,0@level1:dirop".
/// Throws std::invalid_argument on malformed specs.
std::vector<MemFlip> parse_flip_specs(const std::string& spec);

/// Per-run fault accounting, reset alongside clocks and traffic.
struct FaultCounters {
  std::int64_t collective_failures = 0;  ///< failed issues injected
  std::int64_t collective_retries = 0;   ///< re-issues that went through
  double backoff_seconds = 0.0;          ///< total backoff waited
  double reissue_seconds = 0.0;          ///< transfer time paid again
  std::int64_t payload_corruptions = 0;  ///< items mangled in flight
  std::int64_t checksum_checks = 0;      ///< checked_* verification rounds
  std::int64_t payload_retries = 0;      ///< exchanges re-issued on mismatch

  void reset() { *this = FaultCounters{}; }
};

}  // namespace dbfs::simmpi
