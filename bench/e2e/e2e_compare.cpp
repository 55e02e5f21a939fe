// Compares two sets of e2e_bench result files, per workload and metric.
//
//   e2e_compare [--benchmark BENCHMARK.json] PARENT.json... -- CHANGE.json...
//
// For every workload x metric present on both sides it prints each side's
// median and quartiles and the share of pairs (parent run i, change run i)
// the change wins, ties counting for neither. The verdict for a metric
// with a bound in BENCHMARK.json's end_to_end list:
//   gain        at least kMinPairs pairs ran, the change wins >= 9/10 of
//               them and the medians differ, in its favour, by more than
//               the parent's quartile spread;
//   unresolved  either side's quartile spread, as a share of its median,
//               exceeds the bound, and not every change run beats every
//               parent run;
//   regression  the change's median is worse than the parent's by more
//               than the bound, as a share of the parent's median;
//   same        otherwise.
// Per-layer metrics have no bound and are reported as gain or "-".
// Exit status: 0 when no bounded metric is a regression or unresolved,
// 1 otherwise, 2 on bad input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/stats.hpp"

namespace {

using dbfs::util::JsonValue;

// Fewer pairs cannot claim a gain: runs of one commit made minutes apart
// drift by 5-10% on a shared host, and 5 of 5 such pairs were seen to win.
constexpr std::size_t kMinPairs = 10;

JsonValue read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw dbfs::util::JsonError("cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  try {
    return dbfs::util::parse_json(ss.str());
  } catch (const dbfs::util::JsonError& e) {
    throw dbfs::util::JsonError(path + ": " + e.what());
  }
}

struct MetricSpec {
  bool lower_is_better = true;
  double bound = -1.0;  // < 0: no bound (per-layer)
};

std::map<std::string, MetricSpec> read_specs(const std::string& path) {
  const JsonValue doc = read_json(path);
  std::map<std::string, MetricSpec> specs;
  for (const char* list : {"end_to_end", "per_layer"}) {
    for (const JsonValue& m : doc.at(list).items) {
      MetricSpec spec;
      spec.lower_is_better = m.at("better").as_string() == "lower";
      spec.bound = m.number_or("bound", -1.0);
      specs[m.at("name").as_string()] = spec;
    }
  }
  return specs;
}

/// workload -> metric -> one value per run, in file order.
using Runs = std::map<std::string, std::map<std::string, std::vector<double>>>;

void add_run(Runs& runs, const std::string& path) {
  const JsonValue doc = read_json(path);
  auto& metrics = runs[doc.at("workload").as_string()];
  for (const auto& [name, m] : doc.at("metrics").members) {
    metrics[name].push_back(m.at("value").as_number());
  }
}

struct Side {
  double median, p25, p75;
};

Side describe(const std::vector<double>& v) {
  const dbfs::util::Summary s = dbfs::util::summarize(v);
  return {s.median, s.p25, s.p75};
}

double rel(double x, double base) {
  return base != 0.0 ? x / std::fabs(base) : (x == 0.0 ? 0.0 : INFINITY);
}

}  // namespace

int main(int argc, char** argv) {
  std::string bench_path = "BENCHMARK.json";
  std::vector<std::string> parent_files;
  std::vector<std::string> change_files;
  bool after_sep = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--benchmark" && i + 1 < argc) {
      bench_path = argv[++i];
    } else if (arg == "--") {
      after_sep = true;
    } else {
      (after_sep ? change_files : parent_files).push_back(arg);
    }
  }
  if (parent_files.empty() || change_files.empty()) {
    std::fprintf(stderr,
                 "usage: e2e_compare [--benchmark BENCHMARK.json] "
                 "PARENT.json... -- CHANGE.json...\n");
    return 2;
  }

  std::map<std::string, MetricSpec> specs;
  Runs parent;
  Runs change;
  try {
    specs = read_specs(bench_path);
    for (const auto& f : parent_files) add_run(parent, f);
    for (const auto& f : change_files) add_run(change, f);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_compare: %s\n", e.what());
    return 2;
  }

  int flagged = 0;
  std::printf("%-26s %-34s %27s %27s %6s  %s\n", "workload", "metric",
              "parent median [p25, p75]", "change median [p25, p75]",
              "wins", "verdict");
  for (const auto& [workload, metrics] : parent) {
    const auto cw = change.find(workload);
    if (cw == change.end()) continue;
    for (const auto& [name, pv] : metrics) {
      const auto cm = cw->second.find(name);
      if (cm == cw->second.end()) continue;
      const std::vector<double>& cv = cm->second;
      const auto spec_it = specs.find(name);
      const MetricSpec spec =
          spec_it == specs.end() ? MetricSpec{} : spec_it->second;
      const auto better = [&](double a, double b) {
        return spec.lower_is_better ? a < b : a > b;
      };

      const std::size_t pairs = std::min(pv.size(), cv.size());
      std::size_t wins = 0;
      for (std::size_t i = 0; i < pairs; ++i) wins += better(cv[i], pv[i]);
      const double win_share =
          pairs > 0 ? static_cast<double>(wins) / static_cast<double>(pairs)
                    : 0.0;
      const bool all_better =
          better(spec.lower_is_better ? *std::max_element(cv.begin(), cv.end())
                                      : *std::min_element(cv.begin(), cv.end()),
                 spec.lower_is_better
                     ? *std::min_element(pv.begin(), pv.end())
                     : *std::max_element(pv.begin(), pv.end()));

      const Side p = describe(pv);
      const Side c = describe(cv);
      // Improvement of the change's median, in the metric's good direction.
      const double gap =
          spec.lower_is_better ? p.median - c.median : c.median - p.median;
      const double spread = std::max(rel(p.p75 - p.p25, p.median),
                                     rel(c.p75 - c.p25, c.median));

      const char* verdict = "-";
      if (pairs >= kMinPairs && win_share >= 0.9 && gap > p.p75 - p.p25) {
        verdict = "gain";
      } else if (spec.bound >= 0.0) {
        if (spread > spec.bound && !all_better) {
          verdict = "unresolved";
          ++flagged;
        } else if (rel(-gap, p.median) > spec.bound) {
          verdict = "regression";
          ++flagged;
        } else {
          verdict = "same";
        }
      }
      std::printf("%-26s %-34s %11.5g [%6.4g, %6.4g] %11.5g [%6.4g, %6.4g] "
                  "%2zu/%-3zu  %s\n",
                  workload.c_str(), name.c_str(), p.median, p.p25, p.p75,
                  c.median, c.p25, c.p75, wins, pairs, verdict);
    }
  }
  return flagged > 0 ? 1 : 0;
}
