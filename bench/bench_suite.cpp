// bench_suite: the continuous-benchmark driver. Runs the curated
// configuration matrix — {1D, 2D} x {raw, auto wire format} x scales
// 14-16 on the latency-rescaled Hopper model — and writes one
// BENCH_<name>.json record per point, establishing the perf trajectory
// that bench_diff gates on. Every record carries >= 5 virtual-seed
// repetitions so the across-repetition spread doubles as the noise model.
//
//   bench_suite [--out-dir=DIR] [--scales=14,15,16] [--algos=1d,2d]
//               [--wires=raw,auto] [--cores=N] [--reps=N] [--sources=N]
//               [--slow-beta=X] [--list] [engine flags]
//
// The engine flags are bfs_tool's (core/engine_flags.hpp); --help lists
// them all. Flags accept both "--key=value" and "--key value". The
// records are committed baselines, so an unknown flag or a bad value
// exits 2 before any run instead of running the default matrix.
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
#include <exception>
#include <string>
#include <vector>

#include "core/engine_flags.hpp"
#include "harness/harness.hpp"
#include "util/cli.hpp"

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
  std::string out_dir;
  std::vector<int> scales;
  std::vector<std::string> algos;
  std::vector<std::string> wires;
  int reps = 0;
  int sources = 0;
  double slow_beta = 1.0;
  bool list_only = false;
  core::EngineOptions engine;  ///< the engine flags on the Hopper model
};

SuiteOptions parse_options(const util::ArgParser& args) {
  SuiteOptions opt;
  opt.out_dir = args.get("out-dir", ".");
  for (const std::string& s : split_csv(args.get("scales", "14,15,16"))) {
    opt.scales.push_back(util::parse_number<int>(s, "--scales"));
  }
  opt.algos = split_csv(args.get("algos", "1d,2d"));
  opt.wires = split_csv(args.get("wires", "raw,auto"));
  core::EngineOptions base;
  base.cores = util::require_positive(
      static_cast<int>(args.get_int("cores", 64)), "--cores");
  opt.reps = util::require_positive(
      static_cast<int>(args.get_int("reps", 5)), "--reps");
  opt.sources = util::require_positive(
      static_cast<int>(args.get_int("sources", 2)), "--sources");
  opt.slow_beta = args.get_double("slow-beta", 1.0);
  opt.list_only = args.get_flag("list");
  base.machine = model::hopper();
  opt.engine = core::apply_engine_flags(args, base);
  return opt;
}

/// One spec per record, in run order; an unknown algorithm or wire
/// format throws before any record runs.
std::vector<BenchSpec> plan_records(const SuiteOptions& opt) {
  std::vector<BenchSpec> specs;
  for (int scale : opt.scales) {
    for (const std::string& algo : opt.algos) {
      for (const std::string& wire : opt.wires) {
        BenchSpec spec;
        // Direction-optimized points replace the wire tag with the
        // direction tag (BENCH_rmat14_2d_hybrid_c64.json): run them with
        // a single --wires value or the names collide. Names keep the
        // command-line algorithm spelling.
        const bfs::DirectionMode direction = opt.engine.direction;
        spec.name = "rmat" + std::to_string(scale) + "_" + algo + "_" +
                    (direction != bfs::DirectionMode::kTopDown
                         ? bfs::to_string(direction)
                         : wire) +
                    "_c" + std::to_string(opt.engine.cores);
        spec.created_by = "bench_suite";
        spec.scale = scale;
        spec.edge_factor = 16;
        spec.sources = opt.sources;
        spec.repetitions = opt.reps;
        spec.paper_log2_edges = 33.0;  // the scale-29, ef-16 paper runs
        spec.engine = opt.engine;
        spec.engine.algorithm = core::parse_paper_algorithm(algo);
        spec.engine.machine.beta_net *= opt.slow_beta;
        spec.engine.wire_format = comm::parse_wire_format(wire);
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  args.describe("out-dir", "directory the BENCH_*.json records go to", ".")
      .describe("scales", "comma-separated R-MAT scales", "14,15,16")
      .describe("algos", "comma-separated 1d | 1d-hybrid | 2d | 2d-hybrid",
                "1d,2d")
      .describe("wires", "comma-separated raw | sieve | bitmap | varint | auto",
                "raw,auto")
      .describe("cores", "simulated core count", "64")
      .describe("reps", "virtual-seed repetitions per record", "5")
      .describe("sources", "BFS sources per repetition", "2")
      .describe("slow-beta", "multiply the machine's per-byte network cost",
                "1")
      .describe("list", "print the record names without running them");
  core::describe_engine_flags(args);
  args.describe("help", "print this message");
  if (args.get_flag("help")) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }
  for (const std::string& key : args.unknown_keys()) {
    std::fprintf(stderr, "bench_suite: unknown option '--%s'\n", key.c_str());
    return 2;
  }
  if (!args.positional().empty()) {
    std::fprintf(stderr, "bench_suite: unknown option '%s'\n",
                 args.positional().front().c_str());
    return 2;
  }
  SuiteOptions opt;
  std::vector<BenchSpec> specs;
  try {
    opt = parse_options(args);
    specs = plan_records(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: bad value: %s\n", e.what());
    return 2;
  }

  std::printf("bench_suite: %zu scale(s) x %zu algo(s) x %zu wire(s), "
              "%d cores, %d reps x %d sources%s\n",
              opt.scales.size(), opt.algos.size(), opt.wires.size(),
              opt.engine.cores, opt.reps, opt.sources,
              opt.slow_beta != 1.0 ? "  [SLOWED beta]" : "");

  int written = 0;
  for (const BenchSpec& spec : specs) {
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
      if (spec.engine.direction != bfs::DirectionMode::kTopDown) {
        // Per-direction shipped-bytes ratios from the profile run's
        // dirop.wire.* counters (also stored in the record).
        const auto counter = [&record](const char* key) {
          const auto it = record.counters.find(key);
          return it == record.counters.end()
                     ? 0.0
                     : static_cast<double>(it->second);
        };
        const double td_raw = counter("dirop.wire.top_down_raw_bytes");
        const double bu_raw = counter("dirop.wire.bottom_up_raw_bytes");
        std::printf(
            "    dirop: %lld top-down / %lld bottom-up level(s), "
            "wire ratio td=%.3f bu=%.3f\n",
            static_cast<long long>(counter("dirop.levels.top_down")),
            static_cast<long long>(counter("dirop.levels.bottom_up")),
            td_raw > 0.0 ? counter("dirop.wire.top_down_bytes") / td_raw
                         : 0.0,
            bu_raw > 0.0 ? counter("dirop.wire.bottom_up_bytes") / bu_raw
                         : 0.0);
      }
      ++written;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_suite: %s failed: %s\n",
                   spec.name.c_str(), e.what());
      return 1;
    }
  }
  if (!opt.list_only) {
    std::printf("wrote %d BENCH_*.json record(s) to %s\n", written,
                opt.out_dir.c_str());
  }
  return 0;
}
