#include "simmpi/cluster.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

#include "model/cost.hpp"
#include "util/parallel.hpp"

namespace dbfs::simmpi {

Cluster::Cluster(int ranks, model::MachineModel machine, int threads_per_rank)
    : ranks_(ranks),
      threads_per_rank_(threads_per_rank),
      machine_(std::move(machine)),
      clocks_(ranks) {
  if (ranks < 1) throw std::invalid_argument("Cluster: ranks must be >= 1");
  if (threads_per_rank < 1) {
    throw std::invalid_argument("Cluster: threads_per_rank must be >= 1");
  }
}

void Cluster::for_each_rank(const std::function<void(int)>& phase,
                            std::size_t items) const {
  util::for_each_slot(
      static_cast<std::size_t>(ranks_),
      [&phase](std::size_t r) { phase(static_cast<int>(r)); }, items);
}

void Cluster::for_each_rank(std::span<const int> group,
                            const std::function<void(std::size_t)>& phase,
                            std::size_t items) const {
  util::for_each_slot(group.size(), phase, items);
}

void Cluster::set_fault_plan(FaultPlan plan) {
  for (const auto& list : {plan.compute_stragglers, plan.nic_stragglers}) {
    for (const auto& [rank, factor] : list) {
      if (factor <= 0.0) {
        throw std::invalid_argument(
            "Cluster: straggler factors must be positive");
      }
      (void)rank;  // out-of-cluster ranks are ignored, not errors
    }
  }
  faults_ = std::move(plan);
  faults_enabled_ = faults_.enabled();
  fault_compute_factor_.clear();
  fault_nic_slowdown_.clear();
  if (faults_enabled_) {
    fault_compute_factor_.resize(static_cast<std::size_t>(ranks_));
    fault_nic_slowdown_.resize(static_cast<std::size_t>(ranks_));
    for (int r = 0; r < ranks_; ++r) {
      fault_compute_factor_[static_cast<std::size_t>(r)] =
          faults_.compute_factor(r);
      fault_nic_slowdown_[static_cast<std::size_t>(r)] =
          faults_.nic_slowdown(r);
    }
  }
  fault_events_ = 0;
  fault_counters_.reset();
  dead_.clear();
  rearm_kills();
}

void Cluster::rearm_kills() noexcept {
  kills_armed_ = !faults_.rank_kills.empty() ||
                 std::any_of(dead_.begin(), dead_.end(),
                             [](char d) { return d != 0; });
}

void Cluster::check_fail_stop(std::span<const int> group, const char* site) {
  if (!kills_armed_) return;
  int victim = -1;
  for (int r : group) {
    if (rank_dead(r)) {
      victim = r;
      break;
    }
  }
  if (victim < 0) {
    for (const RankKill& kill : faults_.rank_kills) {
      if (kill.rank < 0 || kill.rank >= ranks_) continue;
      if (!kill.due(current_level_, clocks_.now(kill.rank))) continue;
      bool in_group = false;
      for (int r : group) in_group |= (r == kill.rank);
      if (!in_group) continue;
      victim = kill.rank;
      dead_.resize(static_cast<std::size_t>(ranks_), 0);
      dead_[static_cast<std::size_t>(victim)] = 1;
      break;
    }
    if (victim < 0) return;
  }

  // The survivors discover the death together: they synchronize at the
  // barrier the victim never reaches, then burn the full retry budget.
  std::vector<int> survivors;
  survivors.reserve(group.size());
  for (int r : group) {
    if (r != victim) survivors.push_back(r);
  }
  const double detect = model::cost_failure_detection(
      machine_, faults_.max_collective_retries, faults_.backoff_base_seconds,
      faults_.backoff_cap_seconds);
  double detected_at = clocks_.now(victim);
  if (!survivors.empty()) {
    if (obs::Tracer* tracer = observers_.tracer) {
      double start = 0.0;
      for (int r : survivors) start = std::max(start, clocks_.now(r));
      tracer->instant(victim, "rank-killed", clocks_.now(victim), 0.0);
      for (int r : survivors) {
        tracer->record(r, obs::SpanKind::kWait, "failure-detect", site,
                        clocks_.now(r), start + detect);
      }
    }
    clocks_.collective(survivors, detect);
    detected_at = clocks_.now(survivors.front());
  }
  if (obs::MetricsRegistry* metrics = observers_.metrics) {
    ++metrics->counter("fault.rank_kills");
    metrics->histogram("fault.detect_seconds").observe(detect);
  }
  if (obs::FlightRecorder* flight = observers_.flight) {
    flight->append("fault", site, detected_at, victim, current_level_)
        .set("detect_seconds", detect)
        .set("survivors", static_cast<double>(survivors.size()));
  }
  throw RankFailedError(site, victim, current_level_, detected_at);
}

void Cluster::consume_kill(int rank) {
  auto& kills = faults_.rank_kills;
  kills.erase(std::remove_if(kills.begin(), kills.end(),
                             [rank](const RankKill& k) {
                               return k.rank == rank;
                             }),
              kills.end());
  faults_enabled_ = faults_.enabled();
  rearm_kills();
}

std::vector<MemFlip> Cluster::take_due_flips(int levels_completed) {
  auto& flips = faults_.mem_flips;
  std::vector<MemFlip> due;
  auto keep = flips.begin();
  for (auto it = flips.begin(); it != flips.end(); ++it) {
    if (it->due(levels_completed)) {
      due.push_back(*it);
    } else {
      *keep++ = *it;
    }
  }
  flips.erase(keep, flips.end());
  if (!due.empty()) faults_enabled_ = faults_.enabled();
  return due;
}

void Cluster::revive_rank(int rank) {
  if (!dead_.empty()) dead_[static_cast<std::size_t>(rank)] = 0;
  rearm_kills();
}

CollectiveMetrics& Cluster::collective_metrics(Pattern pattern) {
  CollectiveMetrics& m =
      collective_metrics_[static_cast<std::size_t>(pattern)];
  obs::MetricsRegistry& registry = *observers_.metrics;
  if (m.epoch == registry.epoch()) return m;
  const std::string name = to_string(pattern);
  m.epoch = registry.epoch();
  m.calls = &registry.counter("comm.calls." + name);
  m.bytes = &registry.counter("comm.bytes." + name);
  m.rank_seconds = &registry.gauge("comm.rank_seconds." + name);
  m.call_bytes = &registry.histogram("comm.call_bytes." + name);
  m.wait_seconds = &registry.histogram("comm.wait_seconds");
  m.transfer_seconds = &registry.histogram("comm.transfer_seconds");
  return m;
}

void Cluster::reset_accounting() {
  clocks_.reset();
  traffic_.reset();
  fault_events_ = 0;
  fault_counters_.reset();
  observers_.clear();
}

}  // namespace dbfs::simmpi
