// Graph500-style benchmark run: generate the official R-MAT instance,
// sample 16 (by default) search keys from the big component, run the
// selected algorithm for every key, validate each BFS tree, and report
// the harmonic-mean TEPS with quartiles — the benchmark's output format.
//
//   ./examples/graph500_runner [scale] [cores] [algorithm] [nsources]
//             [--trace-out=PATH] [--bench-out=PATH] [--flight-out=PATH]
//             [--atlas-out=PATH] [--metrics-format=openmetrics|json]
//             [--wire-format=raw|sieve|bitmap|varint|auto] [engine flags]
//   algorithm in {1d, 1d-hybrid, 2d, 2d-hybrid}
//
// The engine flags are bfs_tool's (core/engine_flags.hpp); --help lists
// them all. Flags accept both "--key=value" and "--key value"; undeclared
// keys print a warning. Like bfs_tool, a bad argument or an unrecovered
// fault exits 2, and an unrecovered fault or a failed validation writes
// the flight-recorder dump (to --flight-out, else FLIGHT_ERROR.json).
//
// --bench-out writes the run as a BENCH_*.json-style BenchRecord (single
// repetition over all search keys) so ad-hoc runs can be diffed against
// the committed baselines with bench_diff.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/engine_flags.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "obs/bench_record.hpp"
#include "obs/comm_atlas.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"

namespace {

/// The whole run; main() turns any exception into exit 2.
int run(const dbfs::util::ArgParser& args) {
  using namespace dbfs;

  // Every argument is parsed and checked before the graph is generated.
  const std::string trace_out = args.get("trace-out", "");
  const std::string bench_out = args.get("bench-out", "");
  const std::string flight_out = args.get("flight-out", "");
  const std::string atlas_out = args.get("atlas-out", "");
  const std::string metrics_format = args.get("metrics-format", "");
  if (args.has("metrics-format") && metrics_format != "openmetrics" &&
      metrics_format != "json") {
    throw std::invalid_argument("unknown --metrics-format '" +
                                metrics_format + "'");
  }
  const std::vector<std::string>& positional = args.positional();
  const auto number = [&positional](std::size_t i, const char* name,
                                    int fallback) {
    return i < positional.size() ? util::parse_number<int>(positional[i], name)
                                 : fallback;
  };
  const int scale = number(0, "scale", 14);
  const int nsources = number(3, "nsources", 16);
  if (nsources < 1) {
    throw std::invalid_argument("nsources: expected at least 1 search key, "
                                "got " + std::to_string(nsources));
  }

  core::EngineOptions base;
  base.algorithm = positional.size() > 2
                       ? core::parse_paper_algorithm(positional[2])
                       : core::Algorithm::kTwoDHybrid;
  base.cores = util::require_positive(number(1, "cores", 1024), "cores");
  base.machine = model::hopper();
  base.wire_format = comm::parse_wire_format(args.get("wire-format", "raw"));
  core::EngineOptions opts = core::apply_engine_flags(args, base);
  opts.trace = !trace_out.empty() || !bench_out.empty();
  opts.metrics = !bench_out.empty() || args.has("metrics-format");
  // The atlas rides along with any bench record (its summary is a
  // schema-additive block) or on explicit request.
  opts.atlas = !atlas_out.empty() || !bench_out.empty();

  std::printf("=== Graph500-style run ===\n");
  std::printf("SCALE: %d  edgefactor: 16  cores: %d  algorithm: %s  "
              "wire-format: %s  direction: %s\n",
              scale, opts.cores, core::to_string(opts.algorithm),
              comm::to_string(opts.wire_format),
              bfs::to_string(opts.direction));

  graph::RmatParams params;
  params.scale = scale;
  params.edge_factor = 16;
  auto built = graph::build_graph(graph::generate_rmat(params));
  const vid_t n = built.csr.num_vertices();
  core::Engine engine{built.edges, n, opts};

  const auto comps = graph::connected_components(engine.csr());
  std::printf("largest component: %lld of %lld vertices\n",
              static_cast<long long>(comps.largest_size),
              static_cast<long long>(n));
  const auto sources =
      graph::sample_sources(engine.csr(), comps, nsources, 2023);

  const auto dump_flight = [&engine](const std::string& path) {
    std::ofstream flight_file(path);
    if (!flight_file) {
      std::fprintf(stderr, "cannot write flight dump to %s\n", path.c_str());
      return false;
    }
    engine.flight_recorder()->write_json(flight_file);
    std::printf("wrote flight recorder dump to %s (%zu events held)\n",
                path.c_str(), engine.flight_recorder()->size());
    return true;
  };
  const std::string error_dump =
      flight_out.empty() ? "FLIGHT_ERROR.json" : flight_out;
  core::BatchResult batch;
  try {
    batch = engine.run_batch(sources, built.directed_edge_count);
  } catch (const simmpi::FaultError&) {
    dump_flight(error_dump);  // the black box of the unrecovered fault
    throw;
  }
  if (batch.failed > 0) {
    std::fprintf(stderr, "VALIDATION FAILED for %d sources: %s\n",
                 batch.failed, batch.first_error.c_str());
    if (!batch.first_error_check.empty()) {
      std::fprintf(stderr, "  invariant: %s (sample vertex %lld)\n",
                   batch.first_error_check.c_str(),
                   static_cast<long long>(batch.first_error_vertex));
    }
    dump_flight(error_dump);
    return 1;
  }
  std::printf("validated BFS trees: %d/%zu\n", batch.validated,
              sources.size());
  if (!batch.reports.empty() &&
      batch.reports.front().recover.rank_failures > 0) {
    const bfs::RecoverReport& r = batch.reports.front().recover;
    std::printf(
        "recovery (first key): %lld rank failure(s) survived via %s, "
        "%lld level(s) replayed from %lld checkpoint(s)\n",
        static_cast<long long>(r.rank_failures), r.policy.c_str(),
        static_cast<long long>(r.replayed_levels),
        static_cast<long long>(r.checkpoints_taken));
  }
  if (!batch.reports.empty() && batch.reports.front().sdc.enabled) {
    const bfs::SdcReport& s = batch.reports.front().sdc;
    std::printf(
        "sdc (first key): %lld audit(s), %lld failure(s), %lld flip(s) "
        "injected, %lld rollback(s) repairing %lld level(s)\n",
        static_cast<long long>(s.audits),
        static_cast<long long>(s.audit_failures),
        static_cast<long long>(s.flips_injected),
        static_cast<long long>(s.rollbacks),
        static_cast<long long>(s.replayed_levels));
  }

  std::printf("\nconstruction_time-free results over %zu search keys:\n",
              sources.size());
  std::printf("  min_TEPS:      %.4e\n", batch.teps.min);
  std::printf("  q1_TEPS:       %.4e\n", batch.teps.p25);
  std::printf("  median_TEPS:   %.4e\n", batch.teps.median);
  std::printf("  q3_TEPS:       %.4e\n", batch.teps.p75);
  std::printf("  p95_TEPS:      %.4e\n", batch.teps.p95);
  std::printf("  p99_TEPS:      %.4e\n", batch.teps.p99);
  std::printf("  p999_TEPS:     %.4e\n", batch.teps.p999);
  std::printf("  max_TEPS:      %.4e\n", batch.teps.max);
  std::printf("  harmonic_mean_TEPS: %.4e  (%.3f GTEPS)\n",
              batch.harmonic_mean_teps, batch.harmonic_mean_teps / 1e9);
  std::printf("  mean_search_time:   %.4f s (simulated)\n",
              batch.mean_seconds);

  if (engine.tracer() != nullptr || engine.comm_atlas() != nullptr) {
    // Observers hold the most recent run; re-run the first key so the
    // trace and atlas match a single deterministic search.
    const auto profile = engine.run(sources.front());

    if (!trace_out.empty() && engine.tracer() != nullptr) {
      std::ofstream trace_file(trace_out);
      if (!trace_file) {
        std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
        return 1;
      }
      engine.tracer()->write_chrome_json(trace_file);
      std::printf(
          "wrote Chrome trace to %s (load in Perfetto or chrome://tracing)\n",
          trace_out.c_str());
    }

    if (!bench_out.empty()) {
      const int threads = engine.options().threads_per_rank;
      const int ranks = engine.cores_used() / (threads > 0 ? threads : 1);
      obs::BenchRecordBuilder builder;
      obs::BenchRecord& record = builder.record();
      record.name = "graph500_s" + std::to_string(scale) + "_" +
                    core::to_string(opts.algorithm) + "_c" +
                    std::to_string(engine.cores_used());
      record.created_by = "graph500_runner";
      record.config.generator = "rmat";
      record.config.scale = scale;
      record.config.edge_factor = 16;
      record.config.graph_seed = params.seed;
      record.config.algorithm = core::to_string(opts.algorithm);
      record.config.machine = opts.machine.name;
      record.config.wire_format = comm::to_string(opts.wire_format);
      record.config.cores = engine.cores_used();
      record.config.ranks = ranks;
      record.config.threads_per_rank = threads;
      record.config.source_seed = 2023;
      record.config.faults_enabled = opts.faults.enabled();
      builder.add_repetition(2023, batch.reports, built.directed_edge_count,
                             batch.validated, batch.failed);
      builder.attach_profile(engine.tracer(), engine.metrics(),
                             profile.report, ranks);
      builder.attach_atlas(engine.comm_atlas());
      obs::save_bench_record(bench_out, builder.finish());
      std::printf("wrote BenchRecord to %s (diff with bench_diff)\n",
                  bench_out.c_str());
    }

    if (!atlas_out.empty() && engine.comm_atlas() != nullptr) {
      std::ofstream atlas_file(atlas_out);
      if (!atlas_file) {
        std::fprintf(stderr, "cannot write atlas to %s\n", atlas_out.c_str());
        return 1;
      }
      engine.comm_atlas()->write_json(atlas_file);
      const obs::AtlasSummary summary = engine.comm_atlas()->summary();
      std::printf(
          "atlas (first key): %llu bytes on the network, locality share "
          "%.4f, hotspot rank %d, incast rank %d\n",
          static_cast<unsigned long long>(summary.network_bytes),
          summary.locality_share, summary.hotspot_rank, summary.incast_rank);
      std::printf("wrote communication atlas to %s\n", atlas_out.c_str());
    }
  }

  if (engine.metrics() != nullptr) {
    if (metrics_format == "openmetrics") {
      std::ostringstream exposition;
      engine.metrics()->write_openmetrics(exposition);
      std::fputs(exposition.str().c_str(), stdout);
    } else if (metrics_format == "json") {
      std::printf("%s\n", engine.metrics()->to_json().c_str());
    }
  }

  if (!flight_out.empty() && !dump_flight(flight_out)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  dbfs::util::ArgParser args(argc, argv);
  args.describe("trace-out", "Chrome trace of the first key's run")
      .describe("bench-out", "BenchRecord JSON of the run")
      .describe("flight-out", "flight-recorder dump after the run")
      .describe("atlas-out", "communication atlas of the first key's run")
      .describe("metrics-format", "dump the metrics: openmetrics | json")
      .describe("wire-format", "raw | sieve | bitmap | varint | auto", "raw");
  dbfs::core::describe_engine_flags(args);
  args.describe("help", "print this message");
  if (args.get_flag("help")) {
    std::printf("%s  positional: [scale=14] [cores=1024] "
                "[algorithm=2d-hybrid: 1d | 1d-hybrid | 2d | 2d-hybrid] "
                "[nsources=16]\n",
                args.usage().c_str());
    return 0;
  }
  for (const std::string& key : args.unknown_keys()) {
    std::fprintf(stderr, "warning: unknown option --%s\n", key.c_str());
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
