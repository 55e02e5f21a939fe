// Per-rank virtual clocks for the cluster simulator.
//
// Each simulated rank carries a clock advanced by modelled local work.
// A blocking collective synchronizes a group: it starts when the slowest
// participant arrives, so every other participant accrues waiting time —
// which the paper counts as communication time ("the communication times
// also include waiting at synchronization barriers", §6). This is also
// exactly the accounting that reproduces the Figure 4 idle-imbalance
// heatmap.
//
// The simulated wall clock max_now() is a running maximum, kept current
// by every method that moves a clock (advance_compute, collective, seed,
// reset), so reading it costs O(1) — the flight recorder stamps every
// collective with it.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

namespace dbfs::model {

class VirtualClocks {
 public:
  VirtualClocks() = default;
  explicit VirtualClocks(int ranks)
      : now_(static_cast<std::size_t>(ranks), 0.0),
        comp_(static_cast<std::size_t>(ranks), 0.0),
        comm_(static_cast<std::size_t>(ranks), 0.0) {}

  int ranks() const noexcept { return static_cast<int>(now_.size()); }

  /// Advance one rank's clock by `seconds` of local computation.
  void advance_compute(int rank, double seconds) {
    const double now = now_[static_cast<std::size_t>(rank)] += seconds;
    comp_[static_cast<std::size_t>(rank)] += seconds;
    if (seconds >= 0.0) {
      max_now_ = std::max(max_now_, now);
    } else {
      rescan_max();  // a clock moved back: the maximum may have dropped
    }
  }

  /// Execute a blocking collective among `group`: all members wait for the
  /// slowest, then pay `transfer_seconds` together. Waiting + transfer are
  /// both charged to communication time.
  void collective(std::span<const int> group, double transfer_seconds);

  double now(int rank) const noexcept {
    return now_[static_cast<std::size_t>(rank)];
  }
  double compute_time(int rank) const noexcept {
    return comp_[static_cast<std::size_t>(rank)];
  }
  double comm_time(int rank) const noexcept {
    return comm_[static_cast<std::size_t>(rank)];
  }

  /// Simulated wall clock: the furthest-advanced rank (0 with no ranks).
  /// O(1): a running maximum, not a scan.
  double max_now() const noexcept { return max_now_; }

  /// Advance every rank whose clock is behind `t` up to `t` without
  /// attributing the jump to compute or communication. Used when a
  /// rebuilt communicator resumes a traversal at the virtual time its
  /// predecessor died: survivors' elapsed history lives in the old
  /// clocks' accounting, and the fresh clocks must not re-earn it.
  void seed(double t);

  const std::vector<double>& all_now() const noexcept { return now_; }
  const std::vector<double>& all_compute() const noexcept { return comp_; }
  const std::vector<double>& all_comm() const noexcept { return comm_; }

  void reset();

 private:
  std::vector<double> now_;
  std::vector<double> comp_;
  std::vector<double> comm_;
  double max_now_ = 0.0;

  void rescan_max() noexcept;
};

}  // namespace dbfs::model
