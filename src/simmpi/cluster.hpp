// The cluster simulator: p logical ranks with private address spaces,
// per-rank virtual clocks, a machine cost model, and a traffic meter.
//
// BFS is bulk-synchronous, so a superstep simulator is semantically exact
// (see DESIGN.md): algorithms run their per-rank local phases through
// `for_each_rank`, charge modelled compute via `charge_compute`, and move
// data through the collectives in comm.hpp, which price the transfer and
// synchronize the participants' clocks.
//
// `for_each_rank` is the one place host threads enter a distributed
// search: a phase runs on every rank (or every slot of a group) through
// the library's one executor, util::for_each_slot, and an exception a
// phase throws comes back to the caller. Clock charges, collectives and
// observer calls are never made from a phase; the caller issues them
// afterwards on its own thread, in one fixed order. That rule is what
// keeps reports and every observer artifact byte-identical at any host
// thread count.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "model/clocks.hpp"
#include "model/machine.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/observers.hpp"
#include "obs/trace.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/traffic.hpp"
#include "util/parallel.hpp"

namespace dbfs::simmpi {

/// The metrics sync_collective updates for one pattern: references into
/// the attached registry, resolved by name on first use and again once
/// the registry's epoch moves (MetricsRegistry::clear), so a collective
/// costs pointer bumps instead of five string builds and map lookups.
struct CollectiveMetrics {
  std::uint64_t epoch = 0;  ///< registry epoch they belong to; 0 = none
  std::int64_t* calls = nullptr;             ///< comm.calls.<Pattern>
  std::int64_t* bytes = nullptr;             ///< comm.bytes.<Pattern>
  double* rank_seconds = nullptr;            ///< comm.rank_seconds.<Pattern>
  obs::LogHistogram* call_bytes = nullptr;   ///< comm.call_bytes.<Pattern>
  obs::LogHistogram* wait_seconds = nullptr;      ///< comm.wait_seconds
  obs::LogHistogram* transfer_seconds = nullptr;  ///< comm.transfer_seconds
};

class Cluster {
 public:
  /// `threads_per_rank` models hybrid MPI+OpenMP execution: local compute
  /// charges are divided by t·ε(t) by the cost functions, and the caller
  /// should size the grid/partition by ranks = cores / threads_per_rank.
  Cluster(int ranks, model::MachineModel machine, int threads_per_rank = 1);

  int ranks() const noexcept { return ranks_; }
  int threads_per_rank() const noexcept { return threads_per_rank_; }
  /// Total simulated cores (the x-axis of the paper's scaling plots).
  int cores() const noexcept { return ranks_ * threads_per_rank_; }

  const model::MachineModel& machine() const noexcept { return machine_; }
  model::VirtualClocks& clocks() noexcept { return clocks_; }
  const model::VirtualClocks& clocks() const noexcept { return clocks_; }
  TrafficMeter& traffic() noexcept { return traffic_; }
  const TrafficMeter& traffic() const noexcept { return traffic_; }

  /// Run a local phase on every rank, in parallel on the host threads
  /// (util::for_each_slot). Phases must touch only rank-private state —
  /// enforced by convention, so a race would be real — and must not
  /// charge clocks, call collectives or reach the observers: the caller
  /// does that after the phase, in program order. If phases throw, every
  /// other rank's phase still runs and the exception of the lowest rank
  /// is rethrown here. `items` sizes the phase: a small one runs on the
  /// calling thread (util::for_each_slot).
  void for_each_rank(const std::function<void(int)>& phase,
                     std::size_t items = util::kUnsized) const;

  /// The same for one group (a row, a column, the world): runs
  /// `phase(slot)` for each slot of `group`, whose rank is group[slot].
  void for_each_rank(std::span<const int> group,
                     const std::function<void(std::size_t)>& phase,
                     std::size_t items = util::kUnsized) const;

  /// Charge modelled local computation to one rank's clock. A fault plan
  /// with compute stragglers scales the charge by the rank's factor —
  /// the straggler then delays everyone at the next collective, which is
  /// exactly how a slow node hurts a level-synchronous BFS.
  void charge_compute(int rank, double seconds) {
    const double charged = seconds * fault_compute_factor(rank);
    if (observers_.tracer != nullptr && charged > 0.0) {
      const double begin = clocks_.now(rank);
      observers_.tracer->record(rank, obs::SpanKind::kCompute, compute_phase_, "",
                      begin, begin + charged);
    }
    clocks_.advance_compute(rank, charged);
  }

  /// Attach the passive observers (obs/observers.hpp) for this cluster's
  /// rows×cols shape (1×p for 1D) and pre-size them. Attaching any subset
  /// leaves the simulated run bit-identical; reset_accounting clears them
  /// so each run reports its own events.
  void attach(const obs::Observers& observers, int rows, int cols) {
    observers_ = observers;
    observers_.prepare(rows, cols);
  }
  const obs::Observers& observers() const noexcept { return observers_; }
  obs::Tracer* tracer() const noexcept { return observers_.tracer; }
  obs::MetricsRegistry* metrics() const noexcept { return observers_.metrics; }
  obs::FlightRecorder* flight() const noexcept { return observers_.flight; }
  obs::CommAtlas* atlas() const noexcept { return observers_.atlas; }
  bool observing() const noexcept { return observers_.observing(); }

  /// `pattern`'s collective metrics in the attached registry, which must
  /// be non-null; resolved on first use and after each clear().
  CollectiveMetrics& collective_metrics(Pattern pattern);

  /// Label applied to subsequent charge_compute spans ("1d-scan",
  /// "2d-spmsv", ...). Must be a static string.
  void set_compute_phase(const char* phase) noexcept {
    compute_phase_ = phase;
  }
  /// Tag subsequent trace records with a BFS level (-1 = outside levels).
  /// Also feeds the fail-stop schedule: level-triggered kills compare
  /// against this, so it is tracked with or without a tracer.
  void set_trace_level(int level) noexcept {
    current_level_ = level;
    if (observers_.tracer != nullptr) observers_.tracer->set_level(level);
  }
  int current_level() const noexcept { return current_level_; }

  /// Install a fault plan (see simmpi/fault.hpp). Straggler factors must
  /// be positive; entries naming ranks outside the cluster are ignored.
  void set_fault_plan(FaultPlan plan);
  const FaultPlan& faults() const noexcept { return faults_; }
  bool faults_enabled() const noexcept { return faults_enabled_; }

  FaultCounters& fault_counters() noexcept { return fault_counters_; }
  const FaultCounters& fault_counters() const noexcept {
    return fault_counters_;
  }

  /// Issue-ordered event index for deterministic fault draws. Reset with
  /// the accounting so every run replays the same fault sequence.
  std::uint64_t next_fault_event() noexcept { return fault_events_++; }

  double fault_compute_factor(int rank) const noexcept {
    return faults_enabled_
               ? fault_compute_factor_[static_cast<std::size_t>(rank)]
               : 1.0;
  }
  double fault_nic_slowdown(int rank) const noexcept {
    return faults_enabled_
               ? fault_nic_slowdown_[static_cast<std::size_t>(rank)]
               : 1.0;
  }
  /// A collective moves at the pace of its worst link.
  double fault_nic_slowdown(std::span<const int> group) const noexcept {
    if (!faults_enabled_) return 1.0;
    double worst = 1.0;
    for (int r : group) {
      worst = std::max(worst,
                       fault_nic_slowdown_[static_cast<std::size_t>(r)]);
    }
    return worst;
  }

  /// Multiplier applied to per-rank network volumes before pricing:
  /// 1/threads (a hybrid rank owns t cores' bandwidth share) times the
  /// NIC-contention penalty of packing many ranks onto one node.
  double nic_factor() const noexcept {
    const int ranks_per_node =
        std::max(1, machine_.cores_per_node / threads_per_rank_);
    return (1.0 + machine_.nic_contention *
                      static_cast<double>(ranks_per_node - 1)) /
           static_cast<double>(threads_per_rank_);
  }

  // ---------- fail-stop faults (see simmpi/fault.hpp, src/recover/) ----

  /// True while a kill is scheduled or a rank is down — the single-branch
  /// gate the collectives consult, so runs without kills pay nothing.
  bool kills_armed() const noexcept { return kills_armed_; }
  bool rank_dead(int rank) const noexcept {
    return !dead_.empty() && dead_[static_cast<std::size_t>(rank)];
  }

  /// Fail-stop check at the head of every collective: if a scheduled kill
  /// is due for a member of `group` (or a member is already down), the
  /// survivors synchronize and pay the detection timeout
  /// (model::cost_failure_detection with the plan's retry/backoff
  /// constants), then RankFailedError is raised — ULFM-style revoke:
  /// every participant learns of the death at the same barrier.
  void check_fail_stop(std::span<const int> group, const char* site);

  /// After recovery handled a death: drop `rank`'s fired kill entries
  /// from the plan without touching counters or the fault-event stream
  /// (later entries keep their draws). Remaining kills are interpreted
  /// against the current communicator's rank numbering.
  void consume_kill(int rank);

  /// Remove and return the at-rest corruption events due after
  /// `levels_completed` BFS levels. Consuming fired flips is what makes
  /// post-rollback replays run clean (see simmpi/fault.hpp), mirroring
  /// consume_kill; entries that never fire stay scheduled.
  std::vector<MemFlip> take_due_flips(int levels_completed);

  /// Return a dead rank to service (spare-promotion path). The caller is
  /// responsible for re-seeding its clock via clocks().seed / a restore
  /// collective.
  void revive_rank(int rank);

  /// Reset clocks and traffic between BFS runs over the same structures.
  void reset_accounting();

 private:
  int ranks_;
  int threads_per_rank_;
  model::MachineModel machine_;
  model::VirtualClocks clocks_;
  TrafficMeter traffic_;

  obs::Observers observers_;
  std::array<CollectiveMetrics, static_cast<std::size_t>(Pattern::kCount)>
      collective_metrics_{};
  const char* compute_phase_ = "compute";
  int current_level_ = -1;

  FaultPlan faults_;
  bool faults_enabled_ = false;
  FaultCounters fault_counters_;
  std::uint64_t fault_events_ = 0;
  std::vector<double> fault_compute_factor_;  ///< per rank; empty when off
  std::vector<double> fault_nic_slowdown_;
  bool kills_armed_ = false;
  std::vector<char> dead_;  ///< per-rank down flags; empty when clean

  void rearm_kills() noexcept;
};

}  // namespace dbfs::simmpi
