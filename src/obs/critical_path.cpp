#include "obs/critical_path.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace dbfs::obs {

namespace {

/// Mutable per-level accumulator keyed by level id.
struct LevelAccum {
  double begin = 0.0;
  double end = 0.0;
  bool seen = false;
  std::vector<double> wait_by_rank;
  std::vector<double> compute_by_rank;
  std::vector<double> busy_by_rank;  ///< compute + transfer, span order
  /// straggler phase attribution: per rank, per compute-phase seconds
  std::vector<std::map<std::string, double>> phase_by_rank;
  std::map<std::string, double> transfer_by_site;  ///< rank-seconds sums
};

}  // namespace

double CriticalPathReport::transfer_total() const {
  double total = 0.0;
  for (const PatternDecomposition& d : decomposition) {
    total += d.transfer_mean;
  }
  return total;
}

CriticalPathReport analyze_critical_path(const Tracer& tracer, int ranks) {
  CriticalPathReport report;
  report.ranks = std::max(ranks, tracer.ranks());
  const auto nranks = static_cast<std::size_t>(report.ranks);
  const double rank_div = report.ranks > 0
                              ? static_cast<double>(report.ranks)
                              : 1.0;

  std::map<int, LevelAccum> levels;
  struct PatternAccum {
    std::int64_t spans = 0;
    double transfer = 0.0;
    double wait = 0.0;
  };
  std::map<std::string, PatternAccum> patterns;
  double compute_sum = 0.0;
  double wait_sum = 0.0;
  double transfer_sum = 0.0;

  for (int r = 0; r < tracer.ranks(); ++r) {
    const auto ri = static_cast<std::size_t>(r);
    for (const Span& s : tracer.spans(r)) {
      const double dur = s.end - s.begin;
      report.total_seconds = std::max(report.total_seconds, s.end);

      if (s.pattern != nullptr && s.pattern[0] != '\0') {
        PatternAccum& pa = patterns[s.pattern];
        if (s.kind == SpanKind::kTransfer) {
          ++pa.spans;
          pa.transfer += dur;
        } else if (s.kind == SpanKind::kWait) {
          pa.wait += dur;
        }
      }
      switch (s.kind) {
        case SpanKind::kCompute:
          compute_sum += dur;
          break;
        case SpanKind::kWait:
          wait_sum += dur;
          break;
        case SpanKind::kTransfer:
          transfer_sum += dur;
          break;
      }

      if (s.level < 0) continue;
      LevelAccum& acc = levels[s.level];
      if (!acc.seen) {
        acc.seen = true;
        acc.begin = s.begin;
        acc.end = s.end;
        acc.wait_by_rank.assign(nranks, 0.0);
        acc.compute_by_rank.assign(nranks, 0.0);
        acc.busy_by_rank.assign(nranks, 0.0);
        acc.phase_by_rank.resize(nranks);
      }
      acc.begin = std::min(acc.begin, s.begin);
      acc.end = std::max(acc.end, s.end);
      switch (s.kind) {
        case SpanKind::kCompute:
          acc.compute_by_rank[ri] += dur;
          acc.busy_by_rank[ri] += dur;
          acc.phase_by_rank[ri][s.name] += dur;
          break;
        case SpanKind::kWait:
          acc.wait_by_rank[ri] += dur;
          break;
        case SpanKind::kTransfer:
          acc.busy_by_rank[ri] += dur;
          acc.transfer_by_site[s.name] += dur;
          break;
      }
    }
  }

  report.compute_mean = compute_sum / rank_div;
  report.wait_mean = wait_sum / rank_div;
  report.transfer_mean = transfer_sum / rank_div;

  for (const auto& [name, pa] : patterns) {
    PatternDecomposition d;
    d.pattern = name;
    d.spans = pa.spans;
    d.transfer_mean = pa.transfer / rank_div;
    d.wait_mean = pa.wait / rank_div;
    report.decomposition.push_back(std::move(d));
  }

  for (auto& [level, acc] : levels) {
    LevelAttribution la;
    la.level = level;
    la.begin = acc.begin;
    la.end = acc.end;

    // The straggler is the rank others idle on: the one that waited
    // least at this level's collectives (ties break to the lower rank).
    std::size_t straggler = 0;
    for (std::size_t r = 1; r < acc.wait_by_rank.size(); ++r) {
      if (acc.wait_by_rank[r] < acc.wait_by_rank[straggler]) straggler = r;
    }
    la.straggler_rank = static_cast<int>(straggler);
    for (const auto& [phase, seconds] : acc.phase_by_rank[straggler]) {
      if (seconds > la.straggler_phase_seconds) {
        la.straggler_phase_seconds = seconds;
        la.straggler_phase = phase;
      }
    }

    const auto comp = util::summarize(acc.compute_by_rank);
    la.compute_mean = comp.mean;
    la.compute_max = comp.max;
    const auto wait = util::summarize(acc.wait_by_rank);
    la.wait_mean = wait.mean;
    la.wait_max = wait.max;
    la.wait_p95 = wait.p95;
    la.wait_p99 = wait.p99;
    la.wait_by_rank = std::move(acc.wait_by_rank);
    la.busy_by_rank = std::move(acc.busy_by_rank);

    for (const auto& [site, rank_seconds] : acc.transfer_by_site) {
      la.collective_seconds[site] = rank_seconds / rank_div;
    }
    report.levels.push_back(std::move(la));
  }
  return report;
}

ImbalanceProfile profile_imbalance(const CriticalPathReport& report) {
  ImbalanceProfile p;
  const auto nranks = static_cast<std::size_t>(report.ranks);
  p.rank_wait_total.assign(nranks, 0.0);
  p.rank_busy_total.assign(nranks, 0.0);
  std::map<int, int> busiest_hits;
  for (const LevelAttribution& la : report.levels) {
    for (std::size_t r = 0; r < nranks; ++r) {
      p.rank_wait_total[r] += la.wait_by_rank[r];
      p.rank_busy_total[r] += la.busy_by_rank[r];
    }
    const int busiest = static_cast<int>(
        std::max_element(la.busy_by_rank.begin(), la.busy_by_rank.end()) -
        la.busy_by_rank.begin());
    p.busiest_rank.push_back(busiest);
    ++busiest_hits[busiest];
  }

  p.busy_imbalance = util::imbalance(p.rank_busy_total);
  p.wait_imbalance = util::imbalance(p.rank_wait_total);
  double wait_sum = 0.0;
  double busy_sum = 0.0;
  for (std::size_t r = 0; r < nranks; ++r) {
    wait_sum += p.rank_wait_total[r];
    busy_sum += p.rank_busy_total[r];
  }
  p.wait_fraction =
      wait_sum + busy_sum > 0.0 ? wait_sum / (wait_sum + busy_sum) : 0.0;

  // The map hands the ranks over ascending, so the stable sort breaks
  // ties toward the lower rank.
  for (const auto& [rank, hits] : busiest_hits) {
    (void)hits;
    p.straggler_ranks.push_back(rank);
  }
  std::stable_sort(p.straggler_ranks.begin(), p.straggler_ranks.end(),
                   [&](int a, int b) {
                     return busiest_hits[a] > busiest_hits[b];
                   });
  return p;
}

void write_critical_path_json(util::JsonWriter& json,
                              const CriticalPathReport& report) {
  json.object()
      .field("ranks", report.ranks)
      .field("total_seconds", report.total_seconds)
      .field("compute_mean", report.compute_mean)
      .field("wait_mean", report.wait_mean)
      .field("transfer_mean", report.transfer_mean)
      .array("decomposition");
  for (const PatternDecomposition& d : report.decomposition) {
    json.object()
        .field("pattern", d.pattern)
        .field("spans", d.spans)
        .field("transfer_mean", d.transfer_mean)
        .field("wait_mean", d.wait_mean)
        .end();
  }
  json.end().array("levels");
  for (const LevelAttribution& l : report.levels) {
    json.object()
        .field("level", l.level)
        .field("begin", l.begin)
        .field("end", l.end)
        .field("makespan", l.makespan())
        .field("straggler_rank", l.straggler_rank)
        .field("straggler_phase", l.straggler_phase)
        .field("straggler_phase_seconds", l.straggler_phase_seconds)
        .field("compute_mean", l.compute_mean)
        .field("compute_max", l.compute_max)
        .field("wait_mean", l.wait_mean)
        .field("wait_max", l.wait_max)
        .field("wait_p95", l.wait_p95)
        .field("wait_p99", l.wait_p99)
        .field("collectives", l.collective_seconds)
        .field("wait_by_rank", l.wait_by_rank)
        .end();
  }
  json.end().end();
}

std::string format_critical_path_table(const CriticalPathReport& report) {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-5s %-12s %-9s %-14s %-12s %-12s %-12s %s\n", "level",
                "makespan_s", "straggler", "late_phase", "wait_mean_s",
                "wait_max_s", "wait_p99_s", "top_collective");
  out << line;
  for (const LevelAttribution& l : report.levels) {
    const char* top_site = "-";
    double top_seconds = 0.0;
    for (const auto& [site, seconds] : l.collective_seconds) {
      if (seconds > top_seconds) {
        top_seconds = seconds;
        top_site = site.c_str();
      }
    }
    std::snprintf(line, sizeof(line),
                  "%-5d %-12.3e r%-8d %-14s %-12.3e %-12.3e %-12.3e %s "
                  "(%.3e s)\n",
                  l.level, l.makespan(), l.straggler_rank,
                  l.straggler_phase.empty() ? "-" : l.straggler_phase.c_str(),
                  l.wait_mean, l.wait_max, l.wait_p99, top_site, top_seconds);
    out << line;
  }
  std::snprintf(line, sizeof(line),
                "total %.3e s | per-rank mean: compute %.3e s, transfer "
                "%.3e s, wait %.3e s\n",
                report.total_seconds, report.compute_mean,
                report.transfer_mean, report.wait_mean);
  out << line;
  return out.str();
}

}  // namespace dbfs::obs
