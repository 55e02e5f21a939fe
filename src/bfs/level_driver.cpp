#include "bfs/level_driver.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "bfs/finalize.hpp"
#include "comm/sieve.hpp"
#include "model/cost.hpp"
#include "obs/comm_atlas.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/comm.hpp"

namespace dbfs::bfs {

namespace {

/// Virtual seconds to restore `bytes` spread evenly over the survivors.
double restore_seconds(const simmpi::Cluster& cluster, std::uint64_t bytes) {
  const int divisor = std::max(1, cluster.ranks());
  return model::cost_p2p(
      cluster.machine(),
      static_cast<std::size_t>(bytes / static_cast<std::uint64_t>(divisor)));
}

/// The ((shape >> 16) mod count)-th vertex, in ascending id order, of
/// the `count` vertices matching `pred`; kNoVertex when none does.
template <class Pred>
vid_t pick_victim(vid_t n, std::uint64_t shape, Pred pred) {
  vid_t count = 0;
  for (vid_t v = 0; v < n; ++v) {
    if (pred(v)) ++count;
  }
  if (count == 0) return kNoVertex;
  vid_t pick =
      static_cast<vid_t>((shape >> 16) % static_cast<std::uint64_t>(count));
  for (vid_t v = 0; v < n; ++v) {
    if (pred(v) && pick-- == 0) return v;
  }
  return kNoVertex;
}

}  // namespace

void charge_smoothed(simmpi::Cluster& cluster, std::span<const int> group,
                     const std::vector<double>& costs, double smoothing) {
  double mean = 0.0;
  for (double c : costs) mean += c;
  mean /= static_cast<double>(costs.size());
  for (std::size_t k = 0; k < group.size(); ++k) {
    cluster.charge_compute(group[k],
                           smoothing * mean + (1.0 - smoothing) * costs[k]);
  }
}

LevelDriver::LevelDriver(LevelEngine& engine, simmpi::Cluster& cluster,
                         std::vector<int>& world, vid_t n,
                         const recover::RecoverOptions& recover,
                         const char* level_site)
    : engine_(engine),
      cluster_(cluster),
      world_(world),
      n_(n),
      recover_(recover),
      level_site_(level_site) {}

void LevelDriver::run(vid_t source, BfsOutput& out) {
  cluster_.reset_accounting();
  rec_ = RecoverReport{};
  sdc_ = SdcReport{};
  source_ = source;
  out_ = &out;

  // SDC machinery armed = an audit cadence was requested or at-rest
  // flips are scheduled. Everything it does (shadow sums, audits, final
  // sweep) is gated on this so a plain run stays bit-identical.
  sdc_on_ =
      recover_.audit_every > 0 || !cluster_.faults().mem_flips.empty();
  if (sdc_on_) {
    sdc_.enabled = true;
    sdc_.audit_every = recover_.audit_every;
  }

  // Recovery armed = kills still scheduled on this communicator, an
  // explicit checkpoint cadence, or SDC resilience (audits need clean
  // snapshots to roll back to). Armed-but-unkilled runs snapshot for
  // free (overlapped replication), so they stay bit-identical.
  const bool recover_armed = !cluster_.faults().rank_kills.empty() ||
                             recover_.checkpoint_every > 0;
  armed_ = recover_armed || sdc_on_;
  if (armed_) store_.arm(recover_);
  if (recover_armed) {
    rec_.enabled = true;
    rec_.checkpoint_every = recover_.checkpoint_every;
    rec_.policy = recover::to_string(recover_.policy);
  }

  if (comm::Sieve* sieve = engine_.visited_sieve()) {
    sieve->enable_checksums(sdc_on_);
  }
  // The traversal starts from the implicit empty snapshot: just the
  // source, known visited to every rank's sieve.
  restore_state(recover::Checkpoint{});
  out.report.has_level_breakdown = cluster_.observing();
  // Implicit level-0 snapshot: with cadence 0 ("never"), recovery still
  // has the source to replay from.
  if (armed_) take_checkpoint();

  // One retry loop for both repairs: a failed audit rolls back to the
  // newest clean snapshot, a rank death shrinks or promotes a spare.
  // Either repair ends in a priced restore collective where a further
  // due kill can fire; that death is recovered next, as long as each
  // recovery consumed its kill from the plan. An unrepairable fault (no
  // snapshots, spares exhausted, nothing to shrink to, runaway
  // rollbacks) is rethrown before anything is consumed and escapes.
  std::optional<simmpi::AuditFailedError> bad;
  std::optional<simmpi::RankFailedError> dead;
  while (true) {
    const std::size_t kills_before = cluster_.faults().rank_kills.size();
    try {
      if (dead) {
        recover_from(*dead);
        dead.reset();
      } else if (bad) {
        rollback_from(*bad);
        bad.reset();
      } else {
        traverse();
        break;
      }
    } catch (const simmpi::AuditFailedError& e) {
      if (dead || bad) throw;
      bad = e;
    } catch (const simmpi::RankFailedError& e) {
      if (dead && cluster_.faults().rank_kills.size() >= kills_before) throw;
      bad.reset();
      dead = e;
    }
  }
  cluster_.set_trace_level(-1);

  finalize_report(out.report, cluster_);
  out.report.recover = rec_;
  out.report.sdc = sdc_;
  out_ = nullptr;
}

void LevelDriver::traverse() {
  BfsOutput& out = *out_;
  const bool observing = cluster_.observing();
  std::vector<double> comm_before, comp_before;
  while (global_frontier_ > 0) {
    LevelStats stats;
    stats.level = level_ - 1;
    stats.frontier = global_frontier_;
    cluster_.set_trace_level(static_cast<int>(stats.level));
    if (observing) {
      comm_before = cluster_.clocks().all_comm();
      comp_before = cluster_.clocks().all_compute();
    }
    const double wall_before = cluster_.clocks().max_now();

    global_frontier_ = engine_.step(out, fs_, level_, stats);

    stats.newly_visited = global_frontier_;
    stats.wall_seconds = cluster_.clocks().max_now() - wall_before;
    if (observing) {
      const int p = cluster_.ranks();
      double comm_sum = 0.0, comp_sum = 0.0;
      for (int r = 0; r < p; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        const double dcomm = cluster_.clocks().comm_time(r) - comm_before[ri];
        const double dcomp =
            cluster_.clocks().compute_time(r) - comp_before[ri];
        comm_sum += dcomm;
        comp_sum += dcomp;
        stats.comm_seconds_max = std::max(stats.comm_seconds_max, dcomm);
        stats.comp_seconds_max = std::max(stats.comp_seconds_max, dcomp);
      }
      stats.comm_seconds = comm_sum / static_cast<double>(p);
      stats.comp_seconds = comp_sum / static_cast<double>(p);
    }
    if (obs::FlightRecorder* flight = cluster_.flight()) {
      const int at = static_cast<int>(level_) - 1;
      flight
          ->append("level", level_site_, cluster_.clocks().max_now(), -1, at)
          .set("frontier", static_cast<double>(stats.frontier))
          .set("newly_visited", static_cast<double>(stats.newly_visited))
          .set("edges_scanned", static_cast<double>(stats.edges_scanned))
          .set("wall_seconds", stats.wall_seconds);
      if (obs::CommAtlas* atlas = cluster_.atlas()) {
        const obs::AtlasLevelCut cut = atlas->level_cut(at);
        flight
            ->append("atlas", level_site_, cluster_.clocks().max_now(),
                     cut.hotspot_rank, at)
            .set("bytes", static_cast<double>(cut.total_bytes))
            .set("network_bytes", static_cast<double>(cut.network_bytes))
            .set("subcomm_bytes", static_cast<double>(cut.subcomm_bytes));
      }
    }
    out.report.levels.push_back(stats);
    ++level_;
    level_barrier();
  }
  if (sdc_on_) {
    // Final sweep: flips scheduled at or past the last level still fire,
    // and a closing audit guarantees every injected corruption is either
    // detected here or was already repaired — even with auditing off
    // (audit_every == 0), a flip-carrying run never returns unchecked.
    const int completed = static_cast<int>(out.report.levels.size());
    for (const simmpi::MemFlip& flip : cluster_.take_due_flips(completed)) {
      apply_flip(flip);
    }
    audit_now();
  }
}

void LevelDriver::level_barrier() {
  // Hazard order: (1) scheduled at-rest flips fire, (2) the audit (if
  // due) sees them, (3) only then may a checkpoint snapshot the (now
  // audited) state.
  const int completed = static_cast<int>(out_->report.levels.size());
  if (sdc_on_) {
    for (const simmpi::MemFlip& flip : cluster_.take_due_flips(completed)) {
      apply_flip(flip);
    }
    if (recover_.audit_every > 0 && global_frontier_ > 0 &&
        completed % recover_.audit_every == 0) {
      audit_now();
    }
  }
  if (armed_ && global_frontier_ > 0 && store_.due(completed)) {
    take_checkpoint();
  }
}

/// Snapshot (parents, levels, frontier, dirop state) into the replicated
/// store. Modeled as overlapped diskless replication: metered in bytes
/// and recover.* metrics, never charged to the clocks — a checkpointing
/// run with no failures stays bit-identical to a plain one.
void LevelDriver::take_checkpoint() {
  const BfsOutput& out = *out_;
  recover::Checkpoint snap;
  snap.levels_completed = static_cast<int>(out.report.levels.size());
  snap.global_frontier = global_frontier_;
  snap.level = out.level;
  snap.parent = out.parent;
  for (const auto& f : fs_) {
    snap.frontier.insert(snap.frontier.end(), f.begin(), f.end());
  }
  std::sort(snap.frontier.begin(), snap.frontier.end());
  engine_.save_dirop(snap);
  const std::uint64_t bytes = store_.take(std::move(snap));
  rec_.checkpoints_taken = store_.checkpoints_taken();
  rec_.checkpoint_bytes = store_.bytes_shipped();
  if (obs::MetricsRegistry* m = cluster_.metrics()) {
    ++m->counter("recover.checkpoints");
    m->counter("recover.checkpoint_bytes") += static_cast<std::int64_t>(bytes);
  }
  if (obs::Tracer* tracer = cluster_.tracer()) {
    const double at = cluster_.clocks().max_now();
    tracer->record(0, obs::SpanKind::kCompute, "checkpoint", "", at, at);
  }
  if (obs::FlightRecorder* flight = cluster_.flight()) {
    flight
        ->append("checkpoint", "checkpoint", cluster_.clocks().max_now(), -1,
                 cluster_.current_level())
        .set("levels_completed",
             static_cast<double>(out.report.levels.size()))
        .set("bytes", static_cast<double>(bytes));
  }
}

/// Roll the live traversal state back to `ckpt` — or, for the implicit
/// empty snapshot, back to just the source. Rebuilds the frontier
/// buckets under the current owner map, the engine's direction state,
/// the sender-side sieve (conservatively: every rank knows every
/// checkpointed-visited vertex — a superset of what each rank had
/// learned is safe, such candidates can never win a distance check), and
/// the ABFT shadow sums.
void LevelDriver::restore_state(const recover::Checkpoint& ckpt) {
  BfsOutput& out = *out_;
  const int p = cluster_.ranks();
  fs_.assign(static_cast<std::size_t>(p), {});
  if (ckpt.level.empty()) {
    // Replay from the source: every stored replica was corrupt, none was
    // ever taken under this arm, or the run is just starting.
    out.parent.assign(static_cast<std::size_t>(n_), kNoVertex);
    out.level.assign(static_cast<std::size_t>(n_), kUnreached);
    out.parent[static_cast<std::size_t>(source_)] = source_;
    out.level[static_cast<std::size_t>(source_)] = 0;
    global_frontier_ = 1;
    fs_[static_cast<std::size_t>(engine_.owner(source_))].push_back(source_);
  } else {
    out.parent = ckpt.parent;
    out.level = ckpt.level;
    global_frontier_ = static_cast<vid_t>(ckpt.global_frontier);
    for (vid_t v : ckpt.frontier) {
      fs_[static_cast<std::size_t>(engine_.owner(v))].push_back(v);
    }
  }
  engine_.load_dirop(ckpt);
  level_ = static_cast<level_t>(ckpt.levels_completed) + 1;
  out.report.levels.resize(static_cast<std::size_t>(ckpt.levels_completed));
  if (comm::Sieve* sieve = engine_.visited_sieve()) {
    sieve->reset(p, n_);
    for (vid_t v = 0; v < n_; ++v) {
      if (out.level[static_cast<std::size_t>(v)] != kUnreached) {
        sieve->mark_all(v);
      }
    }
  }
  if (sdc_on_) {
    shadow_.reset(p);
    shadow_.rebuild(out.parent, out.level,
                    [this](vid_t v) { return engine_.owner(v); });
  }
}

/// Handle one fail-stop death: shrink or promote a spare, restore the
/// newest *clean* snapshot (verify-on-restore: stored replicas failing
/// their content checksum or the structural audit are skipped), and
/// leave the loop positioned to replay from the checkpointed level.
/// Throws the original error onward, before consuming its kill, when
/// recovery is impossible (spares exhausted or nothing to shrink to).
void LevelDriver::recover_from(const simmpi::RankFailedError& dead) {
  if (!store_.armed()) throw dead;
  const recover::Checkpoint& ckpt = store_.newest_clean(source_);
  const simmpi::FaultPlan& plan = cluster_.faults();
  const double detect_seconds = model::cost_failure_detection(
      cluster_.machine(), plan.max_collective_retries,
      plan.backoff_base_seconds, plan.backoff_cap_seconds);
  const int lost_levels =
      static_cast<int>(out_->report.levels.size()) - ckpt.levels_completed;
  const bool spare = recover_.policy == recover::Policy::kSpare;
  std::uint64_t restore_bytes = 0;

  if (spare) {
    if (rec_.spares_used >= recover_.spare_ranks) throw dead;
    ++rec_.spares_used;
    cluster_.consume_kill(dead.rank());
    cluster_.revive_rank(dead.rank());
    // The promoted spare restores just the dead rank's shard from the
    // replica; the partition is untouched.
    restore_bytes = recover::shard_payload_bytes(
        static_cast<std::uint64_t>(engine_.shard_size(dead.rank())));
    cluster_.clocks().seed(dead.virtual_time());
  } else {
    const int ranks_before = cluster_.ranks();
    if (!engine_.shrink()) throw dead;
    shrink_cluster(dead, ckpt.levels_completed);
    rec_.ranks_lost += ranks_before - cluster_.ranks();
    // Every survivor re-ingests its (re-partitioned) share of the
    // snapshot.
    restore_bytes = recover::restore_payload_bytes(ckpt);
  }

  // Roll the traversal state back to the snapshot, dropping any newer
  // (possibly corrupt) replicas from the store so the replay can't
  // restore past its own restart point.
  store_.rollback_to(ckpt);
  restore_state(ckpt);

  ++rec_.rank_failures;
  rec_.replayed_levels += lost_levels;
  obs::MetricsRegistry* m = cluster_.metrics();
  if (m != nullptr) {
    ++m->counter("recover.rank_failures");
    m->counter("recover.replayed_levels") += lost_levels;
    ++m->counter(spare ? "recover.spare_promotions" : "recover.shrinks");
  }

  // The restore itself is a priced collective over the survivors; it
  // goes last so a second due kill fires here and unwinds to the retry
  // loop with this recovery's state already consistent.
  const double seconds = restore_seconds(cluster_, restore_bytes);
  rec_.recovery_seconds += detect_seconds + seconds;
  if (m != nullptr) {
    m->histogram("recover.recovery_seconds").observe(detect_seconds + seconds);
  }
  simmpi::sync_collective(cluster_, world_, seconds, "recover-restore",
                          simmpi::Pattern::kPointToPoint, restore_bytes);
  if (obs::FlightRecorder* flight = cluster_.flight()) {
    flight
        ->append("recover", spare ? "spare-promote" : "shrink-rebuild",
                 cluster_.clocks().max_now(), dead.rank(),
                 ckpt.levels_completed)
        .set("replayed_levels", static_cast<double>(lost_levels))
        .set("restore_bytes", static_cast<double>(restore_bytes))
        .set("restore_seconds", detect_seconds + seconds);
  }
}

void LevelDriver::shrink_cluster(const simmpi::RankFailedError& dead,
                                 int trace_level) {
  const auto [rows, cols] = engine_.shape();
  const int ranks = rows * cols;
  cluster_.consume_kill(dead.rank());
  // Remaining kill entries apply to the rebuilt communicator's rank
  // numbering (the plan names logical slots, not physical hosts).
  simmpi::Cluster fresh(ranks, cluster_.machine(),
                        cluster_.threads_per_rank());
  fresh.set_fault_plan(cluster_.faults());
  fresh.fault_counters() = cluster_.fault_counters();
  fresh.set_observers(cluster_.tracer(), cluster_.metrics());
  fresh.set_flight(cluster_.flight());
  // The atlas rides across the rebuild like the meter: its matrix keeps
  // the original dimension (pair bytes recorded before the kill stay
  // attributed, so the reconciliation with the carried meter holds)
  // while the locality split follows the new, smaller shape.
  fresh.set_atlas(cluster_.atlas());
  if (cluster_.atlas() != nullptr) cluster_.atlas()->set_grid(rows, cols);
  // Carry history forward: the meter keeps everything that ever moved
  // (including the lost window, which will move again), and the seeded
  // clocks keep the makespan continuous across the rebuild. Per-rank
  // compute/comm splits restart here — the survivors' numbering is new.
  fresh.traffic() = cluster_.traffic();
  fresh.clocks().seed(dead.virtual_time());
  fresh.set_trace_level(trace_level);
  cluster_ = std::move(fresh);
  world_.assign(static_cast<std::size_t>(ranks), 0);
  std::iota(world_.begin(), world_.end(), 0);
}

/// Recover from a failed audit: roll back to the newest clean snapshot
/// (implicit level-0 fallback = replay from the source) and leave the
/// loop positioned to replay. The priced restore goes last, mirroring
/// recover_from, so a kill due during the rollback reaches the retry
/// loop with the rolled-back state consistent.
void LevelDriver::rollback_from(const simmpi::AuditFailedError& bad) {
  if (!store_.armed()) throw bad;
  // Runaway guard: a shadow-bookkeeping bug would otherwise loop
  // rollback→replay→fail forever. Real injected flips are consumed on
  // first application, so legitimate runs never get near this.
  if (sdc_.rollbacks >= 32) throw bad;
  const int completed = static_cast<int>(out_->report.levels.size());
  const recover::Checkpoint& ckpt = store_.newest_clean(source_);
  const int lost_levels = completed - ckpt.levels_completed;
  store_.rollback_to(ckpt);
  restore_state(ckpt);
  ++sdc_.rollbacks;
  sdc_.replayed_levels += lost_levels;
  if (obs::MetricsRegistry* m = cluster_.metrics()) {
    ++m->counter("sdc.rollbacks");
    m->counter("sdc.replayed_levels") += lost_levels;
  }
  const std::uint64_t restore_bytes = recover::restore_payload_bytes(ckpt);
  const double seconds = restore_seconds(cluster_, restore_bytes);
  sdc_.rollback_seconds += seconds;
  simmpi::sync_collective(cluster_, world_, seconds, "sdc-rollback",
                          simmpi::Pattern::kPointToPoint, restore_bytes);
  if (obs::FlightRecorder* flight = cluster_.flight()) {
    flight
        ->append("recover", "sdc-rollback", cluster_.clocks().max_now(),
                 bad.rank(), ckpt.levels_completed)
        .set("replayed_levels", static_cast<double>(lost_levels))
        .set("restore_bytes", static_cast<double>(restore_bytes))
        .set("restore_seconds", seconds);
  }
}

/// Apply one deterministic at-rest corruption event to the live state.
/// The victim entry and the flipped bit are drawn from the plan's
/// flip_shape so a rollback-replay re-injects the exact same damage (and
/// the audit catches it the exact same way) — mirrors the in-flight
/// corrupt_buffer idiom in simmpi/comm.cpp.
void LevelDriver::apply_flip(const simmpi::MemFlip& flip) {
  if (flip.rank < 0 || flip.rank >= cluster_.ranks()) return;
  BfsOutput& out = *out_;
  const std::uint64_t shape = cluster_.faults().flip_shape(flip);
  const auto visited = [&out](vid_t v) {
    return out.level[static_cast<std::size_t>(v)] != kUnreached;
  };
  bool applied = false;
  switch (flip.target) {
    case simmpi::FlipTarget::kParents:
    case simmpi::FlipTarget::kLevels: {
      // Pick the k-th visited vertex the victim rank owns and flip one
      // bit of its parent (or level) entry.
      const vid_t victim = pick_victim(n_, shape, [&](vid_t v) {
        return engine_.owner(v) == flip.rank && visited(v);
      });
      if (victim == kNoVertex) break;
      const auto at = static_cast<std::size_t>(victim);
      const bool parents = flip.target == simmpi::FlipTarget::kParents;
      auto* bytes = parents
                        ? reinterpret_cast<unsigned char*>(&out.parent[at])
                        : reinterpret_cast<unsigned char*>(&out.level[at]);
      const std::size_t width = parents ? sizeof(vid_t) : sizeof(level_t);
      bytes[(shape >> 40) % width] ^=
          static_cast<unsigned char>(1u << ((shape >> 50) % 8));
      applied = true;
      break;
    }
    case simmpi::FlipTarget::kVisited: {
      // Set a spurious bit in the victim rank's sender-side sieve — the
      // bitmap corruption that can change the answer (it would suppress
      // future sends of an unvisited vertex). corrupt() bypasses the
      // sieve's mark checksum, so the auditor detects it even after the
      // victim vertex is legitimately visited.
      comm::Sieve* sieve = engine_.visited_sieve();
      if (sieve == nullptr || !sieve->active()) break;
      const vid_t victim = pick_victim(n_, shape, [&](vid_t v) {
        return !visited(v) && !sieve->test(flip.rank, v);
      });
      if (victim == kNoVertex) break;
      sieve->corrupt(flip.rank, victim);
      applied = true;
      break;
    }
    case simmpi::FlipTarget::kDirop:
      applied = engine_.flip_dirop(shape);
      break;
    case simmpi::FlipTarget::kCheckpoint:
      applied = store_.corrupt_latest(shape);
      break;
  }
  if (!applied) return;
  ++sdc_.flips_injected;
  if (obs::MetricsRegistry* m = cluster_.metrics()) {
    ++m->counter("sdc.flips_injected");
  }
  if (obs::FlightRecorder* flight = cluster_.flight()) {
    flight
        ->append("fault", "mem-flip", cluster_.clocks().max_now(), flip.rank,
                 cluster_.current_level())
        .set("target", static_cast<double>(static_cast<int>(flip.target)))
        .set("at_level", static_cast<double>(flip.at_level));
  }
}

/// One audit barrier: scrub the checkpoint store (rejecting replicas
/// whose content checksum no longer matches), then run the priced ABFT
/// state audit. Throws AuditFailedError on any detected corruption.
void LevelDriver::audit_now() {
  if (store_.armed()) {
    const int rejected = store_.scrub();
    if (rejected > 0) {
      sdc_.checkpoints_rejected += rejected;
      if (obs::MetricsRegistry* m = cluster_.metrics()) {
        m->counter("sdc.checkpoints_rejected") += rejected;
      }
    }
  }
  SdcAuditInputs in;
  in.parent = out_->parent;
  in.level = out_->level;
  in.shadow = &shadow_;
  in.owner = [this](vid_t v) { return engine_.owner(v); };
  in.source = source_;
  in.sieve = engine_.visited_sieve();
  engine_.audit_dirop(in);
  ++sdc_.audits;
  try {
    sdc_.audit_seconds +=
        run_sdc_audit(cluster_, world_, in, "sdc-audit").audit_seconds;
  } catch (const simmpi::AuditFailedError&) {
    ++sdc_.audit_failures;
    throw;
  }
}

void LevelDriver::record_wire(const WireTally& wl, const char* site) {
  if (obs::MetricsRegistry* m = cluster_.metrics()) {
    m->counter("wire.bytes_before") += static_cast<std::int64_t>(wl.pre_bytes);
    m->counter("wire.bytes_after") +=
        static_cast<std::int64_t>(wl.stats.encoded_bytes);
    m->counter("wire.candidates_dropped") +=
        static_cast<std::int64_t>(wl.dropped);
    m->counter("wire.blocks.items") +=
        static_cast<std::int64_t>(wl.stats.blocks_items);
    m->counter("wire.blocks.bitmap") +=
        static_cast<std::int64_t>(wl.stats.blocks_bitmap);
    m->counter("wire.blocks.varint") +=
        static_cast<std::int64_t>(wl.stats.blocks_varint);
    m->histogram("wire.level_bytes_saved")
        .observe(static_cast<double>(wl.pre_bytes) -
                 static_cast<double>(wl.stats.encoded_bytes));
  }
  if (obs::FlightRecorder* flight = cluster_.flight()) {
    flight
        ->append("wire", site, cluster_.clocks().max_now(), -1,
                 cluster_.current_level())
        .set("raw_bytes", static_cast<double>(wl.pre_bytes))
        .set("encoded_bytes", static_cast<double>(wl.stats.encoded_bytes))
        .set("sieved", static_cast<double>(wl.dropped))
        .set("items", static_cast<double>(wl.stats.items));
  }
}

}  // namespace dbfs::bfs
