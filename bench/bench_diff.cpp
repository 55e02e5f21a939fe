// bench_diff: the noise-aware regression gate over BENCH_*.json records.
// Compares two record sets (directories holding BENCH_*.json, or
// individual record files), matching records by name and flagging a
// metric only when its delta is worse in the metric's direction and
// beyond the records' own k-sigma noise band or the absolute relative
// floor (see obs/bench_diff.hpp for the exact rule).
//
//   bench_diff BASELINE CURRENT [--k=3] [--rel-floor=0.05]
//              [--min-rel=0.001] [--require-all] [--doctor-out=DIR]
//
// Exit codes: 0 = no regressions, 1 = regressions found, 2 = unusable
// input (unreadable file, schema-version mismatch, config drift under an
// existing name, or --require-all unmet). The bench-smoke ctest drives
// this against the committed repo-root baselines.
//
// --doctor-out=DIR closes the detection -> diagnosis loop: for every
// record pair that tripped the gate, run the attribution engine
// (obs/doctor.hpp) and write DIR/DOCTOR_<name>.json, naming the report
// and the top-ranked cause in the failure output.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "obs/bench_diff.hpp"
#include "obs/bench_record.hpp"
#include "obs/doctor.hpp"

namespace {

namespace fs = std::filesystem;
using dbfs::obs::BenchRecord;

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  dbfs::obs::BenchDiffOptions options;
  bool require_all = false;
  std::string doctor_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--k=", 0) == 0) {
      options.sigma_k = std::stod(arg.substr(4));
    } else if (arg.rfind("--rel-floor=", 0) == 0) {
      options.rel_floor = std::stod(arg.substr(12));
    } else if (arg.rfind("--min-rel=", 0) == 0) {
      options.min_rel = std::stod(arg.substr(10));
    } else if (arg == "--require-all") {
      require_all = true;
    } else if (arg.rfind("--doctor-out=", 0) == 0) {
      doctor_out = arg.substr(13);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "bench_diff: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_diff BASELINE CURRENT [--k=K] "
                 "[--rel-floor=F] [--min-rel=M] [--require-all] "
                 "[--doctor-out=DIR]\n"
                 "BASELINE/CURRENT: a BENCH_*.json file or a directory of "
                 "them\n");
    return 2;
  }

  std::vector<BenchRecord> baseline;
  std::vector<BenchRecord> current;
  try {
    baseline = dbfs::obs::load_bench_records(positional[0]);
    current = dbfs::obs::load_bench_records(positional[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }
  if (baseline.empty() || current.empty()) {
    std::fprintf(stderr, "bench_diff: no BENCH_*.json records under %s\n",
                 baseline.empty() ? positional[0].c_str()
                                  : positional[1].c_str());
    return 2;
  }

  const auto report = dbfs::obs::diff_bench_records(baseline, current, options);
  std::fputs(dbfs::obs::format_bench_diff(report).c_str(), stdout);

  // Gate tripped and a doctor directory was given: auto-diagnose every
  // regressed pair so the failure output names causes, not just metrics.
  if (report.regressions > 0 && !doctor_out.empty()) {
    std::set<std::string> regressed;
    for (const auto& delta : report.deltas) {
      if (delta.regression) regressed.insert(delta.record);
    }
    std::error_code ec;
    fs::create_directories(doctor_out, ec);
    for (const std::string& name : regressed) {
      const auto by_name = [&name](const BenchRecord& r) {
        return r.name == name;
      };
      const auto base_it =
          std::find_if(baseline.begin(), baseline.end(), by_name);
      const auto cand_it =
          std::find_if(current.begin(), current.end(), by_name);
      if (base_it == baseline.end() || cand_it == current.end()) continue;
      const auto diagnosis = dbfs::obs::diagnose(*base_it, *cand_it);
      const std::string path =
          (fs::path(doctor_out) / dbfs::obs::doctor_report_filename(name))
              .string();
      try {
        dbfs::obs::save_doctor_report(path, diagnosis);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_diff: %s\n", e.what());
        continue;
      }
      std::printf("doctor: %s: top cause %s\n", name.c_str(),
                  diagnosis.top_cause().c_str());
      std::fputs(dbfs::obs::format_doctor_report(diagnosis).c_str(), stdout);
      std::printf("doctor: wrote %s\n", path.c_str());
    }
  }

  if (!report.errors.empty()) return 2;
  if (require_all &&
      (!report.only_in_baseline.empty() || !report.only_in_current.empty())) {
    std::fprintf(stderr,
                 "bench_diff: --require-all set but the record sets do not "
                 "cover each other\n");
    return 2;
  }
  if (report.compared == 0) {
    std::fprintf(stderr, "bench_diff: no record names in common\n");
    return 2;
  }
  return report.regressions > 0 ? 1 : 0;
}
