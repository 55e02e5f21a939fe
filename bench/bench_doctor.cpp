// bench_doctor: regression attribution over two BENCH_*.json records.
// Where bench_diff answers "did performance regress?", bench_doctor
// answers "why": it aligns the per-level comm/comp/wait splits (and the
// per-site transfer breakdown when present), decomposes the TEPS delta
// into ranked contributions, and classifies the known regression
// signatures — straggler rank, codec fallback, checkpoint/recovery
// overhead, machine-model drift, frontier-shape change (obs/doctor.hpp).
//
//   bench_doctor BASELINE CANDIDATE [--json-out=PATH]
//
// BASELINE/CANDIDATE are BENCH_*.json files, or directories of them (the
// records are then matched by name and every common name is diagnosed).
// The human-readable diagnosis goes to stdout; --json-out writes the
// machine-readable report (one file per name under a directory argument,
// or exactly that file when a single pair is diagnosed).
//
// Exit codes: 0 = diagnosis produced, 2 = unusable input.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/bench_record.hpp"
#include "obs/doctor.hpp"

namespace {

namespace fs = std::filesystem;
using dbfs::obs::BenchRecord;

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json-out=", 0) == 0) {
      json_out = arg.substr(11);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "bench_doctor: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_doctor BASELINE CANDIDATE [--json-out=PATH]\n"
                 "BASELINE/CANDIDATE: a BENCH_*.json file or a directory of "
                 "them\n");
    return 2;
  }

  std::vector<BenchRecord> baseline;
  std::vector<BenchRecord> candidate;
  try {
    baseline = dbfs::obs::load_bench_records(positional[0]);
    candidate = dbfs::obs::load_bench_records(positional[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_doctor: %s\n", e.what());
    return 2;
  }

  // Diagnose every candidate whose name has a baseline twin.
  std::vector<std::pair<const BenchRecord*, const BenchRecord*>> pairs;
  for (const BenchRecord& cand : candidate) {
    const auto it = std::find_if(
        baseline.begin(), baseline.end(),
        [&cand](const BenchRecord& b) { return b.name == cand.name; });
    if (it != baseline.end()) pairs.emplace_back(&*it, &cand);
  }
  if (pairs.empty()) {
    std::fprintf(stderr, "bench_doctor: no record names in common\n");
    return 2;
  }

  const bool json_is_dir = !json_out.empty() &&
                           (fs::is_directory(json_out) || pairs.size() > 1);
  if (json_is_dir) {
    std::error_code ec;
    fs::create_directories(json_out, ec);
  }

  for (const auto& [base, cand] : pairs) {
    const auto report = dbfs::obs::diagnose(*base, *cand);
    std::fputs(dbfs::obs::format_doctor_report(report).c_str(), stdout);
    if (json_out.empty()) continue;
    const std::string path =
        json_is_dir
            ? (fs::path(json_out) /
               dbfs::obs::doctor_report_filename(cand->name))
                  .string()
            : json_out;
    try {
      dbfs::obs::save_doctor_report(path, report);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_doctor: %s\n", e.what());
      return 2;
    }
    std::printf("doctor: wrote %s\n", path.c_str());
  }
  return 0;
}
