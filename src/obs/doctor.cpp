#include "obs/doctor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "comm/wire_format.hpp"
#include "util/json.hpp"

namespace dbfs::obs {

namespace {

// Classifier thresholds. Ratios are candidate/baseline; a regression
// signature must clear its own threshold while the competing explanations
// stay under theirs, which is what keeps the rankings disjoint on the
// golden scenarios (tests/test_doctor.cpp).
constexpr double kTransferJump = 1.2;   ///< β drift: transfer grew >= 20%
constexpr double kComputeFlat = 1.15;   ///< ... while compute stayed flat
constexpr double kBalanceFlat = 1.3;    ///< ... and imbalance stayed flat
constexpr double kImbalanceJump = 1.5;  ///< straggler: imbalance grew 50%
constexpr double kCodecRatioJump = 1.3; ///< codec: bytes ratio worsened 30%
constexpr double kSkewJump = 1.5;       ///< atlas: send/recv skew grew 50%
constexpr double kPairShareJump = 1.5;  ///< atlas: max-pair share grew 50%
constexpr double kPairShareFloor = 0.2; ///< ... and one pair owns >= 20%

double safe_ratio(double cand, double base) {
  if (base > 0.0) return cand / base;
  return cand > 0.0 ? std::numeric_limits<double>::infinity() : 1.0;
}

std::int64_t counter_of(const BenchRecord& r, const std::string& name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

/// Rebuild the codec's own WireStats view from the record counters, so
/// the classifier reuses comm::WireStats's ratio definitions instead of
/// re-deriving them.
comm::WireStats wire_stats_of(const BenchRecord& r) {
  comm::WireStats s;
  s.raw_bytes = static_cast<std::uint64_t>(counter_of(r, "wire.bytes_before"));
  s.encoded_bytes =
      static_cast<std::uint64_t>(counter_of(r, "wire.bytes_after"));
  s.blocks_items = static_cast<std::uint64_t>(counter_of(r, "wire.blocks.items"));
  s.blocks_bitmap =
      static_cast<std::uint64_t>(counter_of(r, "wire.blocks.bitmap"));
  s.blocks_varint =
      static_cast<std::uint64_t>(counter_of(r, "wire.blocks.varint"));
  return s;
}

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

/// Per-level phase seconds folded over both records' level lists.
struct PhaseTotals {
  double compute = 0.0;
  double wait = 0.0;
  double transfer = 0.0;
};

PhaseTotals level_totals(const BenchRecord& r) {
  PhaseTotals t;
  for (const BenchLevelSplit& l : r.levels) {
    t.compute += l.compute_mean;
    t.wait += l.wait_mean;
    t.transfer += l.transfer_mean;
  }
  return t;
}

void push_contribution(std::vector<DoctorContribution>& out, int level,
                       std::string phase, double base, double cand) {
  if (base == 0.0 && cand == 0.0) return;
  DoctorContribution c;
  c.level = level;
  c.phase = std::move(phase);
  c.baseline_seconds = base;
  c.candidate_seconds = cand;
  c.delta_seconds = cand - base;
  out.push_back(std::move(c));
}

void align_contributions(const BenchRecord& baseline,
                         const BenchRecord& candidate, DoctorReport& report) {
  std::map<int, const BenchLevelSplit*> base_by_level;
  std::map<int, const BenchLevelSplit*> cand_by_level;
  for (const BenchLevelSplit& l : baseline.levels) base_by_level[l.level] = &l;
  for (const BenchLevelSplit& l : candidate.levels) cand_by_level[l.level] = &l;

  std::vector<int> levels;
  for (const auto& [lv, ignored] : base_by_level) levels.push_back(lv);
  for (const auto& [lv, ignored] : cand_by_level) {
    if (base_by_level.find(lv) == base_by_level.end()) levels.push_back(lv);
  }
  std::sort(levels.begin(), levels.end());

  static const BenchLevelSplit kEmpty;
  for (int lv : levels) {
    const auto bi = base_by_level.find(lv);
    const auto ci = cand_by_level.find(lv);
    const BenchLevelSplit& b = bi == base_by_level.end() ? kEmpty : *bi->second;
    const BenchLevelSplit& c = ci == cand_by_level.end() ? kEmpty : *ci->second;

    push_contribution(report.contributions, lv, "compute", b.compute_mean,
                      c.compute_mean);
    push_contribution(report.contributions, lv, "wait", b.wait_mean,
                      c.wait_mean);
    // Per-site transfer rows when either record carries the split (the
    // sites sum to transfer_mean, so shares never double-count); plain
    // "transfer" for pre-split baselines.
    if (b.sites.empty() && c.sites.empty()) {
      push_contribution(report.contributions, lv, "transfer", b.transfer_mean,
                        c.transfer_mean);
    } else {
      std::map<std::string, std::pair<double, double>> sites;
      for (const auto& [site, seconds] : b.sites) sites[site].first = seconds;
      for (const auto& [site, seconds] : c.sites) sites[site].second = seconds;
      for (const auto& [site, pair] : sites) {
        push_contribution(report.contributions, lv, site, pair.first,
                          pair.second);
      }
    }
  }

  // No per-level data on either side (metrics-only records): fall back to
  // the whole-run comm/comp split so the ranking is never empty.
  if (report.contributions.empty()) {
    push_contribution(report.contributions, -1, "compute",
                      baseline.comp_seconds_mean, candidate.comp_seconds_mean);
    push_contribution(report.contributions, -1, "comm",
                      baseline.comm_seconds_mean, candidate.comm_seconds_mean);
  }

  double total = 0.0;
  for (const DoctorContribution& c : report.contributions) {
    total += std::fabs(c.delta_seconds);
  }
  for (DoctorContribution& c : report.contributions) {
    c.share = total > 0.0 ? std::fabs(c.delta_seconds) / total : 0.0;
  }
  std::sort(report.contributions.begin(), report.contributions.end(),
            [](const DoctorContribution& a, const DoctorContribution& b) {
              return std::fabs(a.delta_seconds) > std::fabs(b.delta_seconds);
            });
}

void detect_config_drift(const BenchSetup& b, const BenchSetup& c,
                         DoctorReport& report) {
  auto differs = [&report](const char* field, const auto& x, const auto& y) {
    if (!(x == y)) report.config_drift.push_back(field);
  };
  differs("generator", b.generator, c.generator);
  differs("scale", b.scale, c.scale);
  differs("edge_factor", b.edge_factor, c.edge_factor);
  differs("graph_seed", b.graph_seed, c.graph_seed);
  differs("algorithm", b.algorithm, c.algorithm);
  differs("machine", b.machine, c.machine);
  differs("wire_format", b.wire_format, c.wire_format);
  differs("cores", b.cores, c.cores);
  differs("ranks", b.ranks, c.ranks);
  differs("threads_per_rank", b.threads_per_rank, c.threads_per_rank);
  // faults_enabled / fault_plan deliberately excluded: a fault-injection
  // experiment against a clean baseline is the expected use of the
  // doctor, and the fault classifiers read that evidence directly.
}

}  // namespace

const std::string& DoctorReport::top_cause() const {
  static const std::string kEmpty;
  return findings.empty() ? kEmpty : findings.front().cause;
}

DoctorReport diagnose(const BenchRecord& baseline,
                      const BenchRecord& candidate) {
  DoctorReport report;
  report.baseline_name = baseline.name;
  report.candidate_name = candidate.name;
  report.baseline_teps = baseline.harmonic_mean_teps;
  report.candidate_teps = candidate.harmonic_mean_teps;
  report.teps_ratio =
      safe_ratio(candidate.harmonic_mean_teps, baseline.harmonic_mean_teps);
  report.baseline_seconds = baseline.mean_seconds;
  report.candidate_seconds = candidate.mean_seconds;

  detect_config_drift(baseline.config, candidate.config, report);
  align_contributions(baseline, candidate, report);

  std::vector<DoctorFinding>& findings = report.findings;
  const bool wire_changed =
      baseline.config.wire_format != candidate.config.wire_format;

  // --- wire-format-change: an explicit codec policy switch explains any
  // byte/time shift by itself.
  if (wire_changed) {
    findings.push_back(
        {"wire-format-change", 0.95,
         "config wire_format changed " + baseline.config.wire_format +
             " -> " + candidate.config.wire_format +
             "; codec and byte-volume deltas follow from the policy switch"});
  }

  // --- config-drift: the records measure different experiments.
  if (report.config_drift.size() > (wire_changed ? 1u : 0u)) {
    std::string fields;
    for (const std::string& f : report.config_drift) {
      if (f == "wire_format") continue;
      if (!fields.empty()) fields += ", ";
      fields += f;
    }
    findings.push_back({"config-drift", 0.95,
                        "records differ in config (" + fields +
                            "); metric deltas are not comparable runs"});
  }

  // --- checkpoint-recovery-overhead: the candidate survived rank
  // failures; detection + replay time is the regression.
  const std::int64_t cand_failures =
      counter_of(candidate, "recover.rank_failures");
  const std::int64_t base_failures =
      counter_of(baseline, "recover.rank_failures");
  const bool recovery_fired = cand_failures > base_failures;
  if (recovery_fired) {
    const std::int64_t replayed =
        counter_of(candidate, "recover.replayed_levels");
    const std::int64_t checkpoints =
        counter_of(candidate, "recover.checkpoints");
    const auto levels = static_cast<double>(
        candidate.levels.empty() ? 1 : candidate.levels.size());
    std::string detail =
        std::to_string(cand_failures - base_failures) +
        " rank failure(s) survived (" + std::to_string(replayed) +
        " level(s) replayed, " + std::to_string(checkpoints) +
        " checkpoint(s), cadence " +
        fmt(static_cast<double>(checkpoints) / levels) +
        " per level); detection + restore + replay is the overhead";
    findings.push_back({"checkpoint-recovery-overhead", 0.9,
                        std::move(detail)});
  }

  // --- rollback-storm: SDC audits failed and forced rollback-replays;
  // the replayed windows (plus the restores) are the regression.
  const std::int64_t cand_rollbacks = counter_of(candidate, "sdc.rollbacks");
  const std::int64_t base_rollbacks = counter_of(baseline, "sdc.rollbacks");
  const bool rollback_fired = cand_rollbacks > base_rollbacks;
  if (rollback_fired) {
    const std::int64_t replayed =
        counter_of(candidate, "sdc.replayed_levels");
    const std::int64_t failures =
        counter_of(candidate, "sdc.audit_failures");
    const std::int64_t rejected =
        counter_of(candidate, "sdc.checkpoints_rejected");
    std::string detail =
        std::to_string(cand_rollbacks - base_rollbacks) +
        " audit-triggered rollback(s) (" + std::to_string(failures) +
        " failed audit(s), " + std::to_string(replayed) +
        " level(s) replayed";
    if (rejected > 0) {
      detail += ", " + std::to_string(rejected) +
                " corrupt checkpoint(s) scrubbed";
    }
    detail += "); restore + replay of the lost windows is the overhead";
    findings.push_back({"rollback-storm", 0.9, std::move(detail)});
  }

  // --- audit-overhead: the state-audit cadence itself costs compute —
  // audits ran (more than the baseline's) without any failing, so the
  // per-level scan + agreement allreduce is the only new work.
  const std::int64_t cand_audits = counter_of(candidate, "sdc.audits");
  const std::int64_t base_audits = counter_of(baseline, "sdc.audits");
  if (!rollback_fired && cand_audits > base_audits &&
      counter_of(candidate, "sdc.audit_failures") == 0) {
    const auto levels = static_cast<double>(
        candidate.levels.empty() ? 1 : candidate.levels.size());
    findings.push_back(
        {"audit-overhead", 0.8,
         std::to_string(cand_audits - base_audits) +
             " extra state audit(s) ran clean (cadence " +
             fmt(static_cast<double>(cand_audits) / levels) +
             " per level); the ABFT scan and its agreement allreduce are "
             "the added work"});
  }

  // Phase ratios for the machine-model and straggler signatures.
  const PhaseTotals base_t = level_totals(baseline);
  const PhaseTotals cand_t = level_totals(candidate);
  const bool have_levels =
      !baseline.levels.empty() && !candidate.levels.empty();
  const double transfer_ratio =
      have_levels ? safe_ratio(cand_t.transfer, base_t.transfer)
                  : safe_ratio(candidate.comm_seconds_mean,
                               baseline.comm_seconds_mean);
  const double compute_ratio =
      have_levels ? safe_ratio(cand_t.compute, base_t.compute)
                  : safe_ratio(candidate.comp_seconds_mean,
                               baseline.comp_seconds_mean);
  const double busy_imb_ratio = safe_ratio(candidate.imbalance.busy_imbalance,
                                           baseline.imbalance.busy_imbalance);
  const double comp_imb_ratio = safe_ratio(candidate.imbalance.comp_imbalance,
                                           baseline.imbalance.comp_imbalance);
  const double imb_ratio = std::max(busy_imb_ratio, comp_imb_ratio);

  // --- straggler-rank: per-rank balance collapsed; name the culprit.
  if (imb_ratio > kImbalanceJump) {
    int rank = candidate.imbalance.straggler_ranks.empty()
                   ? -1
                   : candidate.imbalance.straggler_ranks.front();
    if (rank < 0) {
      // Fall back to the modal per-level straggler.
      std::map<int, int> votes;
      for (const BenchLevelSplit& l : candidate.levels) {
        ++votes[l.straggler_rank];
      }
      int best = -1;
      for (const auto& [r, v] : votes) {
        if (best == -1 || v > votes[best]) best = r;
      }
      rank = best;
    }
    findings.push_back(
        {"straggler-rank", 0.85,
         "busy/compute imbalance grew " + fmt(imb_ratio) +
             "x (busy " + fmt(baseline.imbalance.busy_imbalance) + " -> " +
             fmt(candidate.imbalance.busy_imbalance) +
             "); every level waits on rank " + std::to_string(rank)});
  }

  // --- network-beta-drift: transfers uniformly slower with compute and
  // balance flat — the α–β machine model itself moved.
  if (transfer_ratio > kTransferJump && compute_ratio < kComputeFlat &&
      imb_ratio < kBalanceFlat) {
    findings.push_back(
        {"network-beta-drift", 0.9,
         "per-level transfer seconds grew " + fmt(transfer_ratio) +
             "x while compute grew " + fmt(compute_ratio) +
             "x and imbalance " + fmt(imb_ratio) +
             "x — uniform bandwidth slowdown (machine-model beta/alpha "
             "drift)"});
  }

  // --- codec-raw-fallback: same compressing policy, but the blocks
  // stopped compressing (bytes ratio worsened / blocks shifted to raw
  // items).
  if (!wire_changed) {
    const comm::WireStats base_wire = wire_stats_of(baseline);
    const comm::WireStats cand_wire = wire_stats_of(candidate);
    if (base_wire.raw_bytes > 0 && cand_wire.raw_bytes > 0) {
      const double base_ratio = base_wire.compression_ratio();
      const double cand_ratio = cand_wire.compression_ratio();
      const double base_item_share = base_wire.raw_block_share();
      const double cand_item_share = cand_wire.raw_block_share();
      if (cand_ratio > base_ratio * kCodecRatioJump ||
          (cand_item_share > base_item_share + 0.3 && cand_ratio > 0.8)) {
        findings.push_back(
            {"codec-raw-fallback", 0.8,
             "encoded/raw byte ratio worsened " + fmt(base_ratio) + " -> " +
                 fmt(cand_ratio) + " (raw-item block share " +
                 fmt(base_item_share) + " -> " + fmt(cand_item_share) +
                 "); the auto codec is falling back to raw blocks"});
      }
    }
  }

  // --- traffic-skew / hotspot-rank: the communication atlas recorded a
  // lopsided traffic matrix. Only active when both records carry the
  // schema-additive atlas block (pre-atlas baselines stay undiagnosed
  // rather than mis-diagnosed).
  if (baseline.atlas.present && candidate.atlas.present) {
    const double row_skew_ratio =
        safe_ratio(candidate.atlas.row_skew, baseline.atlas.row_skew);
    const double col_skew_ratio =
        safe_ratio(candidate.atlas.col_skew, baseline.atlas.col_skew);
    const double skew_ratio = std::max(row_skew_ratio, col_skew_ratio);
    if (skew_ratio > kSkewJump) {
      findings.push_back(
          {"traffic-skew", 0.85,
           "per-rank traffic skew grew " + fmt(skew_ratio) + "x (send " +
               fmt(baseline.atlas.row_skew) + " -> " +
               fmt(candidate.atlas.row_skew) + ", receive " +
               fmt(baseline.atlas.col_skew) + " -> " +
               fmt(candidate.atlas.col_skew) +
               "x mean); the communication matrix became lopsided, so "
               "collectives pace on the overloaded rank"});
    }
    const double pair_ratio = safe_ratio(candidate.atlas.max_pair_share,
                                         baseline.atlas.max_pair_share);
    const bool pair_concentrated =
        candidate.atlas.max_pair_share > kPairShareFloor &&
        pair_ratio > kPairShareJump;
    if ((skew_ratio > kSkewJump || pair_concentrated) &&
        (candidate.atlas.hotspot_rank >= 0 ||
         candidate.atlas.incast_rank >= 0)) {
      const int hotspot = candidate.atlas.hotspot_rank >= 0
                              ? candidate.atlas.hotspot_rank
                              : candidate.atlas.incast_rank;
      std::string detail =
          "atlas attributes the concentration to rank " +
          std::to_string(hotspot) + " (sends " +
          fmt(candidate.atlas.row_skew) + "x the mean volume";
      if (candidate.atlas.incast_rank >= 0 &&
          candidate.atlas.incast_rank != hotspot) {
        detail += "; incast onto rank " +
                  std::to_string(candidate.atlas.incast_rank);
      } else if (candidate.atlas.incast_rank == hotspot) {
        detail += "; also the incast target";
      }
      detail += ", max pair share " + fmt(candidate.atlas.max_pair_share) +
                ")";
      findings.push_back({"hotspot-rank", 0.8, std::move(detail)});
    }
  }

  // --- frontier-shape-change: the traversal structure itself changed.
  if (have_levels && baseline.levels.size() != candidate.levels.size()) {
    findings.push_back(
        {"frontier-shape-change", 0.5,
         "level count changed " + std::to_string(baseline.levels.size()) +
             " -> " + std::to_string(candidate.levels.size()) +
             "; the traversal explored a different frontier shape"});
  }

  // Confidence interactions: an explicit config change explains the rest;
  // a survived failure explains balance/transfer shifts it causes.
  const bool config_explains =
      wire_changed || report.config_drift.size() > (wire_changed ? 1u : 0u);
  for (DoctorFinding& f : findings) {
    if (config_explains && f.cause != "wire-format-change" &&
        f.cause != "config-drift" &&
        f.cause != "checkpoint-recovery-overhead") {
      f.confidence = std::min(f.confidence, 0.5);
    }
    if ((recovery_fired || rollback_fired) &&
        (f.cause == "network-beta-drift" || f.cause == "straggler-rank" ||
         f.cause == "traffic-skew" || f.cause == "hotspot-rank" ||
         f.cause == "frontier-shape-change")) {
      f.confidence = std::min(f.confidence, 0.6);
    }
  }

  if (findings.empty()) {
    std::string detail = "no known signature matched";
    if (!report.contributions.empty()) {
      const DoctorContribution& top = report.contributions.front();
      detail += "; largest delta is " + top.phase + " at level " +
                std::to_string(top.level) + " (" +
                fmt(top.delta_seconds) + "s, " +
                fmt(top.share * 100.0) + "% of total)";
    }
    findings.push_back({"unattributed", 0.2, std::move(detail)});
  }

  std::stable_sort(findings.begin(), findings.end(),
                   [](const DoctorFinding& a, const DoctorFinding& b) {
                     return a.confidence > b.confidence;
                   });
  return report;
}

std::string format_doctor_report(const DoctorReport& r) {
  std::ostringstream out;
  out << "bench_doctor: " << r.candidate_name << " vs " << r.baseline_name
      << "\n";
  out << "  harmonic_mean_teps " << fmt(r.baseline_teps) << " -> "
      << fmt(r.candidate_teps) << " (ratio " << fmt(r.teps_ratio)
      << "); mean_seconds " << fmt(r.baseline_seconds) << " -> "
      << fmt(r.candidate_seconds) << "\n";
  if (!r.config_drift.empty()) {
    out << "  config drift:";
    for (const std::string& f : r.config_drift) out << ' ' << f;
    out << "\n";
  }
  out << "  diagnosis (ranked):\n";
  for (std::size_t i = 0; i < r.findings.size(); ++i) {
    const DoctorFinding& f = r.findings[i];
    out << "    " << (i + 1) << ". " << f.cause << " (confidence "
        << fmt(f.confidence) << "): " << f.detail << "\n";
  }
  out << "  top contributions:\n";
  const std::size_t n = std::min<std::size_t>(r.contributions.size(), 5);
  for (std::size_t i = 0; i < n; ++i) {
    const DoctorContribution& c = r.contributions[i];
    out << "    level " << c.level << ' ' << c.phase << ": "
        << (c.delta_seconds >= 0.0 ? "+" : "") << fmt(c.delta_seconds)
        << "s (" << fmt(c.share * 100.0) << "% of |delta|, "
        << fmt(c.baseline_seconds) << " -> " << fmt(c.candidate_seconds)
        << ")\n";
  }
  return out.str();
}

void write_doctor_json(std::ostream& out, const DoctorReport& r) {
  util::JsonWriter json(out, util::JsonWriter::kExact);
  json.object()
      .object("doctor")
      .field("baseline", r.baseline_name)
      .field("candidate", r.candidate_name)
      .field("baseline_teps", r.baseline_teps)
      .field("candidate_teps", r.candidate_teps)
      .field("teps_ratio", r.teps_ratio)
      .field("baseline_seconds", r.baseline_seconds)
      .field("candidate_seconds", r.candidate_seconds)
      .field("config_drift", r.config_drift)
      .array("findings");
  for (const DoctorFinding& f : r.findings) {
    json.object()
        .field("cause", f.cause)
        .field("confidence", f.confidence)
        .field("detail", f.detail)
        .end();
  }
  json.end().array("contributions");
  for (const DoctorContribution& c : r.contributions) {
    json.object()
        .field("level", c.level)
        .field("phase", c.phase)
        .field("baseline_seconds", c.baseline_seconds)
        .field("candidate_seconds", c.candidate_seconds)
        .field("delta_seconds", c.delta_seconds)
        .field("share", c.share)
        .end();
  }
  json.end().end().end();
  out << '\n';
}

void save_doctor_report(const std::string& path, const DoctorReport& report) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("doctor: cannot write " + path);
  }
  write_doctor_json(out, report);
}

std::string doctor_report_filename(const std::string& candidate_name) {
  return "DOCTOR_" + candidate_name + ".json";
}

}  // namespace dbfs::obs
