// Virtual-time tracing for the cluster simulator.
//
// A Tracer records one span per (rank, event): compute segments charged by
// the algorithms, and — for every collective — the barrier-wait sub-span
// (from the rank's arrival until the slowest participant arrives) and the
// transfer sub-span (the synchronized window in which the priced transfer
// happens). Fault events (transient-failure backoff/re-issue, checksum
// retries) are recorded as instant markers. Every record carries the BFS
// level current at the time, so downstream passes (obs/critical_path.hpp)
// can attribute makespan per level, per rank, and per phase.
//
// The tracer is entirely passive: nothing in the simulator consults it,
// so attaching one cannot perturb clocks, traffic, or fault draws. Spans
// are buffered per rank, which makes recording safe from the parallel
// `for_each_rank` phases as long as each rank only records about itself
// (the convention those phases already follow for all rank state).
//
// Export is Chrome trace-event JSON (the `traceEvents` array format),
// loadable in Perfetto / chrome://tracing: one pid per run, one tid per
// simulated rank, timestamps in virtual microseconds.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace dbfs::obs {

enum class SpanKind : std::uint8_t {
  kCompute,   ///< local work charged via Cluster::charge_compute
  kWait,      ///< blocked at a collective until the slowest rank arrived
  kTransfer,  ///< the synchronized transfer window of a collective
};

/// Chrome trace `cat` string for a span kind.
const char* to_string(SpanKind kind);

struct Span {
  const char* name;     ///< site label ("2d-expand", "1d-scan", ...)
  const char* pattern;  ///< collective pattern name; "" for compute spans
  SpanKind kind;
  int level;            ///< BFS level current when recorded; -1 outside
  double begin = 0.0;   ///< virtual seconds
  double end = 0.0;
};

/// Point event (fault injection markers: backoff, re-issue, checksum
/// retry). `seconds` carries the priced duration when one applies.
struct Instant {
  const char* name;
  int rank;
  int level;
  double at = 0.0;
  double seconds = 0.0;
};

class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(int ranks) { ensure_ranks(ranks); }

  /// Pre-size the per-rank buffers (Observers::prepare calls this so
  /// recording never reallocates the outer table mid-run).
  void ensure_ranks(int ranks);
  int ranks() const noexcept { return static_cast<int>(per_rank_.size()); }

  /// Current BFS level tag applied to subsequent records (-1 = outside a
  /// level, e.g. setup).
  void set_level(int level) noexcept { level_ = level; }
  int level() const noexcept { return level_; }

  /// Record one span for `rank`. `name` and `pattern` must be static
  /// strings (they are stored unowned). Safe to call concurrently for
  /// distinct ranks.
  void record(int rank, SpanKind kind, const char* name, const char* pattern,
              double begin, double end) {
    if (rank < 0 || rank >= ranks()) return;
    per_rank_[static_cast<std::size_t>(rank)].push_back(
        Span{name, pattern, kind, level_, begin, end});
  }

  /// Record a fault marker attributed to `rank` at virtual time `at`.
  void instant(int rank, const char* name, double at, double seconds = 0.0) {
    instants_.push_back(Instant{name, rank, level_, at, seconds});
  }

  const std::vector<Span>& spans(int rank) const {
    return per_rank_[static_cast<std::size_t>(rank)];
  }
  const std::vector<Instant>& instants() const noexcept { return instants_; }

  std::size_t total_spans() const noexcept;

  /// Drop all recorded events, keeping the rank table (called by
  /// Cluster::reset_accounting so each run traces from a clean slate).
  void clear();

  /// Write the whole trace as a Chrome trace-event JSON object:
  /// {"traceEvents":[...], "displayTimeUnit":"ms"}. Timestamps are
  /// virtual microseconds; tid = rank, pid = 0.
  void write_chrome_json(std::ostream& out) const;

 private:
  int level_ = -1;
  std::vector<std::vector<Span>> per_rank_;
  std::vector<Instant> instants_;
};

}  // namespace dbfs::obs
