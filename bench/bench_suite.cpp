// bench_suite: the continuous-benchmark driver. Runs the curated
// configuration matrix — {1D, 2D} x {raw, auto wire format} x scales
// 14-16 on the latency-rescaled Hopper model — and writes one
// BENCH_<name>.json record per point, establishing the perf trajectory
// that bench_diff gates on. Every record carries >= 5 virtual-seed
// repetitions so the across-repetition spread doubles as the noise model.
//
//   bench_suite [--out-dir=DIR] [--scales=14,15,16] [--algos=1d,2d]
//               [--wires=raw,auto] [--cores=N] [--reps=N] [--sources=N]
//               [--direction=topdown|bottomup|hybrid] [--slow-beta=X] [--list]
//               [--fault-plan=kill:RANK@levelL[,...] |
//                --fault-plan=flip:RANK@levelL:target[,...] |
//                --fault-plan=FILE.json]
//               [--checkpoint-every=K] [--recover-policy=shrink|spare]
//               [--audit-every=K]
//
// A fault plan applies to every configuration in the matrix. A scheduled
// kill fires once per record (the engine consumes it on the first
// search of repetition 0 and recovers), so the later repetitions are
// fault-free and the across-repetition spread prices the recovery into
// the record's own noise model — the recover_smoke ctest leans on this.
//
// Baselines live at the repo root (committed); refresh them with
//   ./bench/bench_suite --out-dir=.
// from the build directory after an intentional perf change (see
// EXPERIMENTS.md). --slow-beta multiplies the machine's per-byte network
// cost — the bench_smoke ctest uses it to prove the regression gate
// actually fires.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "harness/harness.hpp"

namespace {

using namespace dbfs;
using namespace dbfs::bench;

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(csv.substr(start));
      break;
    }
    out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

struct SuiteOptions {
  std::string out_dir = ".";
  std::vector<int> scales{14, 15, 16};
  std::vector<std::string> algos{"1d", "2d"};
  std::vector<std::string> wires{"raw", "auto"};
  int cores = 64;
  int reps = 5;
  int sources = 2;
  bfs::DirectionMode direction = bfs::DirectionMode::kTopDown;
  double slow_beta = 1.0;
  bool list_only = false;
  simmpi::FaultPlan faults;
  recover::RecoverOptions recover;
};

core::Algorithm parse_algo(const std::string& name) {
  if (name == "1d") return core::Algorithm::kOneDFlat;
  if (name == "1d-hybrid") return core::Algorithm::kOneDHybrid;
  if (name == "2d") return core::Algorithm::kTwoDFlat;
  if (name == "2d-hybrid") return core::Algorithm::kTwoDHybrid;
  throw std::invalid_argument("bench_suite: unknown algorithm '" + name +
                              "' (use 1d, 1d-hybrid, 2d, 2d-hybrid)");
}

/// Apply one argument to `opt`; false when the option is unknown. A
/// malformed value throws (std::stoi/stod, the enum parsers, the fault
/// plan loader).
bool parse_option(const std::string& arg, SuiteOptions& opt) {
  if (arg.rfind("--out-dir=", 0) == 0) {
    opt.out_dir = arg.substr(10);
  } else if (arg.rfind("--scales=", 0) == 0) {
    opt.scales.clear();
    for (const auto& s : split_csv(arg.substr(9))) {
      opt.scales.push_back(std::stoi(s));
    }
  } else if (arg.rfind("--algos=", 0) == 0) {
    opt.algos = split_csv(arg.substr(8));
  } else if (arg.rfind("--wires=", 0) == 0) {
    opt.wires = split_csv(arg.substr(8));
  } else if (arg.rfind("--cores=", 0) == 0) {
    opt.cores = std::stoi(arg.substr(8));
  } else if (arg.rfind("--reps=", 0) == 0) {
    opt.reps = std::stoi(arg.substr(7));
  } else if (arg.rfind("--sources=", 0) == 0) {
    opt.sources = std::stoi(arg.substr(10));
  } else if (arg.rfind("--direction=", 0) == 0) {
    opt.direction = bfs::parse_direction_mode(arg.substr(12));
  } else if (arg.rfind("--slow-beta=", 0) == 0) {
    opt.slow_beta = std::stod(arg.substr(12));
  } else if (arg.rfind("--fault-plan=", 0) == 0) {
    opt.faults = simmpi::load_fault_plan(arg.substr(13));
  } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
    opt.recover.checkpoint_every = std::stoi(arg.substr(19));
  } else if (arg.rfind("--recover-policy=", 0) == 0) {
    opt.recover.policy = recover::parse_policy(arg.substr(17));
  } else if (arg.rfind("--audit-every=", 0) == 0) {
    opt.recover.audit_every = std::stoi(arg.substr(14));
  } else if (arg == "--list") {
    opt.list_only = true;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  SuiteOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (!parse_option(arg, opt)) {
        std::fprintf(stderr, "bench_suite: unknown option '%s'\n",
                     arg.c_str());
        return 2;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_suite: bad value in '%s': %s\n",
                   arg.c_str(), e.what());
      return 2;
    }
  }

  std::printf("bench_suite: %zu scale(s) x %zu algo(s) x %zu wire(s), "
              "%d cores, %d reps x %d sources%s\n",
              opt.scales.size(), opt.algos.size(), opt.wires.size(),
              opt.cores, opt.reps, opt.sources,
              opt.slow_beta != 1.0 ? "  [SLOWED beta]" : "");

  int written = 0;
  for (int scale : opt.scales) {
    for (const std::string& algo : opt.algos) {
      for (const std::string& wire : opt.wires) {
        BenchSpec spec;
        // Direction-optimized points replace the wire tag with the
        // direction tag (BENCH_rmat14_2d_hybrid_c64.json): run them with
        // a single --wires value or the names collide.
        const bool dirop = opt.direction != bfs::DirectionMode::kTopDown;
        spec.name = "rmat" + std::to_string(scale) + "_" + algo + "_" +
                    (dirop ? bfs::to_string(opt.direction) : wire) + "_c" +
                    std::to_string(opt.cores);
        spec.created_by = "bench_suite";
        spec.scale = scale;
        spec.edge_factor = 16;
        spec.sources = opt.sources;
        spec.repetitions = opt.reps;
        spec.paper_log2_edges = 33.0;  // the scale-29, ef-16 paper runs
        try {
          spec.engine.algorithm = parse_algo(algo);
          spec.engine.cores = opt.cores;
          spec.engine.machine = model::hopper();
          spec.engine.machine.beta_net *= opt.slow_beta;
          spec.engine.wire_format = comm::parse_wire_format(wire);
          spec.engine.direction = opt.direction;
          spec.engine.faults = opt.faults;
          spec.engine.recover = opt.recover;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "%s\n", e.what());
          return 2;
        }

        if (opt.list_only) {
          std::printf("  %s\n", spec.name.c_str());
          continue;
        }
        try {
          const obs::BenchRecord record = run_bench_record(spec);
          const std::string path =
              opt.out_dir + "/" + obs::bench_record_filename(record.name);
          obs::save_bench_record(path, record);
          std::printf("  %s\n", describe_bench_record(record).c_str());
          if (dirop) {
            // Per-direction shipped-bytes ratios from the profile run's
            // dirop.wire.* counters (also stored in the record).
            const auto counter = [&record](const char* key) {
              const auto it = record.counters.find(key);
              return it == record.counters.end() ? 0.0
                                                 : static_cast<double>(
                                                       it->second);
            };
            const double td_raw = counter("dirop.wire.top_down_raw_bytes");
            const double bu_raw = counter("dirop.wire.bottom_up_raw_bytes");
            std::printf(
                "    dirop: %lld top-down / %lld bottom-up level(s), "
                "wire ratio td=%.3f bu=%.3f\n",
                static_cast<long long>(
                    counter("dirop.levels.top_down")),
                static_cast<long long>(
                    counter("dirop.levels.bottom_up")),
                td_raw > 0.0 ? counter("dirop.wire.top_down_bytes") / td_raw
                             : 0.0,
                bu_raw > 0.0
                    ? counter("dirop.wire.bottom_up_bytes") / bu_raw
                    : 0.0);
          }
          ++written;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "bench_suite: %s failed: %s\n",
                       spec.name.c_str(), e.what());
          return 1;
        }
      }
    }
  }
  if (!opt.list_only) {
    std::printf("wrote %d BENCH_*.json record(s) to %s\n", written,
                opt.out_dir.c_str());
  }
  return 0;
}
