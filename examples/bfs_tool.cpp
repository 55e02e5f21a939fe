// bfs_tool: the full-featured command-line driver for the library —
// choose a graph (generator or file), an algorithm, a machine model, and
// a core count; run validated BFS and print the report. The "swiss army
// knife" a downstream user reaches for first.
//
//   bfs_tool --gen rmat --scale 16 --cores 1024 --algo 2d-hybrid
//     --machine hopper --sources 16
//   bfs_tool --input graph.mtx --algo 1d --cores 256 --triangular
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/engine.hpp"
#include "bfs/report_json.hpp"
#include "core/engine_flags.hpp"
#include "obs/comm_atlas.hpp"
#include "obs/critical_path.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/cli.hpp"

namespace {

using namespace dbfs;

graph::EdgeList load_or_generate(const util::ArgParser& args, int scale) {
  const std::string input = args.get("input", "");
  if (!input.empty()) {
    if (input.size() > 4 && input.substr(input.size() - 4) == ".mtx") {
      return graph::read_matrix_market_file(input);
    }
    if (input.size() > 4 && input.substr(input.size() - 4) == ".bin") {
      return graph::read_edge_list_binary_file(input);
    }
    return graph::read_edge_list_text_file(input);
  }

  const std::string gen = args.get("gen", "rmat");
  const int degree = static_cast<int>(args.get_int("degree", 16));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (gen == "rmat") {
    graph::RmatParams p;
    p.scale = scale;
    p.edge_factor = degree;
    p.seed = seed;
    return graph::generate_rmat(p);
  }
  if (gen == "er") {
    graph::ErdosRenyiParams p;
    p.num_vertices = vid_t{1} << scale;
    p.edge_probability =
        static_cast<double>(degree) / static_cast<double>(p.num_vertices);
    p.seed = seed;
    return graph::generate_erdos_renyi(p);
  }
  if (gen == "webcrawl") {
    graph::WebcrawlParams p;
    p.num_vertices = vid_t{1} << scale;
    p.target_diameter = static_cast<int>(args.get_int("diameter", 140));
    p.seed = seed;
    return graph::generate_webcrawl(p);
  }
  throw std::invalid_argument("unknown generator: " + gen);
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  args.describe("input", "read graph from file (.txt/.bin/.mtx) instead of generating")
      .describe("gen", "generator: rmat | er | webcrawl", "rmat")
      .describe("scale", "log2 of vertex count for generators", "14")
      .describe("degree", "average degree / edge factor", "16")
      .describe("diameter", "webcrawl target diameter", "140")
      .describe("seed", "generator seed", "1")
      .describe("algo",
                "serial | shared | 1d | 1d-hybrid | 2d | 2d-hybrid | "
                "graph500-ref | pbgl",
                "2d-hybrid")
      .describe("cores", "simulated core count", "1024")
      .describe("wire-format",
                "exchange payload encoding: raw | sieve | bitmap | varint "
                "| auto (sender-side visited sieve + compressed blocks)",
                "raw")
      .describe("sources", "number of BFS sources (Graph500 style)", "4")
      .describe("no-shuffle", "skip the random vertex relabeling")
      .describe("save", "write the prepared graph to this file and exit")
      .describe("json", "print the first run's full report as JSON")
      .describe("trace-out",
                "write a Chrome trace-event JSON (Perfetto-loadable) of "
                "the first source's run to this path")
      .describe("metrics",
                "collect the metrics registry; prints a summary and is "
                "embedded in --json output")
      .describe("metrics-format",
                "collect the metrics and dump the full registry to stdout "
                "as: openmetrics | json")
      .describe("atlas-out",
                "attach the communication atlas and write its per-rank-pair "
                "traffic matrix + skew analytics as JSON to this path")
      .describe("flight-out",
                "write the always-on flight recorder's event ring as "
                "JSON to this path after the run (written there "
                "automatically if the run dies)");
  core::describe_engine_flags(args);
  args.describe("help", "print this message");

  if (args.get_flag("help")) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }
  for (const std::string& key : args.unknown_keys()) {
    std::fprintf(stderr, "warning: unknown option --%s\n", key.c_str());
  }

  try {
    // Every flag is parsed and checked before the graph is generated.
    core::EngineOptions base;
    base.algorithm = core::parse_algorithm(args.get("algo", "2d-hybrid"));
    base.cores = util::require_positive(
        static_cast<int>(args.get_int("cores", 1024)), "--cores");
    base.machine = model::hopper();
    base.wire_format =
        comm::parse_wire_format(args.get("wire-format", "raw"));
    core::EngineOptions opts = core::apply_engine_flags(args, base);
    const std::string trace_out = args.get("trace-out", "");
    opts.trace = !trace_out.empty();
    const std::string metrics_format = args.get("metrics-format", "");
    if (args.has("metrics-format") && metrics_format != "openmetrics" &&
        metrics_format != "json") {
      throw std::invalid_argument("unknown --metrics-format '" +
                                  metrics_format + "'");
    }
    opts.metrics = args.get_flag("metrics") || args.has("metrics-format");
    const std::string atlas_out = args.get("atlas-out", "");
    opts.atlas = !atlas_out.empty();
    const std::string flight_out = args.get("flight-out", "");
    const int nsources = static_cast<int>(args.get_int("sources", 4));
    if (nsources < 1) {
      throw std::invalid_argument("--sources: expected at least 1 source, "
                                  "got " + std::to_string(nsources));
    }
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const std::int64_t scale = args.get_int("scale", 14);
    if (scale < 1 || scale > 40) {  // generate_rmat's range; 2^scale fits
      throw std::invalid_argument("--scale: expected 1 to 40, got " +
                                  std::to_string(scale));
    }

    graph::BuildOptions build;
    build.shuffle = !args.get_flag("no-shuffle");
    build.shuffle_seed = seed + 0x5eed;
    auto built = graph::build_graph(
        load_or_generate(args, static_cast<int>(scale)), build);
    const vid_t n = built.csr.num_vertices();
    std::printf("graph: n=%lld m=%lld (directed input %lld)\n",
                static_cast<long long>(n),
                static_cast<long long>(built.csr.num_edges()),
                static_cast<long long>(built.directed_edge_count));

    const std::string save = args.get("save", "");
    if (!save.empty()) {
      if (save.size() > 4 && save.substr(save.size() - 4) == ".bin") {
        graph::write_edge_list_binary_file(save, built.edges);
      } else {
        graph::write_edge_list_text_file(save, built.edges);
      }
      std::printf("wrote prepared graph to %s\n", save.c_str());
      return 0;
    }

    core::Engine engine{built.edges, n, opts};
    std::printf("engine: %s on %s, %d cores used\n",
                core::to_string(opts.algorithm), opts.machine.name.c_str(),
                engine.cores_used());

    // Black-box dump: on demand via --flight-out, or forced to that path
    // (default FLIGHT_ERROR.json) when the run dies.
    const auto dump_flight = [&engine](const std::string& path) {
      const obs::FlightRecorder* flight = engine.flight_recorder();
      if (flight == nullptr || path.empty()) return;
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "error: cannot write flight dump to %s\n",
                     path.c_str());
        return;
      }
      flight->write_json(out);
      std::printf("wrote flight recorder dump to %s (%zu events held, "
                  "%llu dropped)\n",
                  path.c_str(), flight->size(),
                  static_cast<unsigned long long>(flight->dropped()));
    };

    const auto comps = graph::connected_components(engine.csr());
    const auto sources =
        graph::sample_sources(engine.csr(), comps, nsources, seed + 99);
    if (sources.empty()) {
      std::fprintf(stderr, "no usable BFS source in the largest component\n");
      return 1;
    }

    core::BatchResult batch;
    try {
      batch = engine.run_batch(sources, built.directed_edge_count);
    } catch (const simmpi::FaultError&) {
      // An unrecovered fault (fail-stop kill or an SDC audit failure the
      // rollback path could not repair): dump the black box before dying
      // so the last collectives, codec decisions, and levels are on disk.
      dump_flight(flight_out.empty() ? "FLIGHT_ERROR.json" : flight_out);
      throw;
    }
    if (batch.failed > 0) {
      std::fprintf(stderr, "VALIDATION FAILED (%d/%zu sources): %s\n",
                   batch.failed, sources.size(), batch.first_error.c_str());
      if (!batch.first_error_check.empty()) {
        std::fprintf(stderr,
                     "  invariant: %s (sample vertex %lld)\n",
                     batch.first_error_check.c_str(),
                     static_cast<long long>(batch.first_error_vertex));
      }
      dump_flight(flight_out.empty() ? "FLIGHT_ERROR.json" : flight_out);
      return 1;
    }
    std::printf("validated %d/%zu BFS trees\n", batch.validated,
                sources.size());
    std::printf("mean search time: %.6f s (simulated)\n", batch.mean_seconds);
    std::printf("harmonic mean TEPS: %.4e (%.3f GTEPS)\n",
                batch.harmonic_mean_teps, batch.harmonic_mean_teps / 1e9);
    const auto& r = batch.reports.front();
    std::printf("first run: %zu levels, comm %.1f%% of rank time\n",
                r.levels.size(), 100.0 * r.comm_fraction());
    if (r.faults.enabled) {
      std::printf(
          "faults (first run): %lld transient failures (%lld re-issues, "
          "%.2e s backoff), %lld corrupted payloads repaired in %lld "
          "retries\n",
          static_cast<long long>(r.faults.collective_failures),
          static_cast<long long>(r.faults.collective_retries),
          r.faults.backoff_seconds,
          static_cast<long long>(r.faults.payload_corruptions),
          static_cast<long long>(r.faults.payload_retries));
    }
    if (r.recover.rank_failures > 0) {
      std::printf(
          "recovery (first run): %lld rank failure(s) survived via %s "
          "(%lld level(s) replayed, %.2e s detect+restore, %lld "
          "checkpoint(s))\n",
          static_cast<long long>(r.recover.rank_failures),
          r.recover.policy.c_str(),
          static_cast<long long>(r.recover.replayed_levels),
          r.recover.recovery_seconds,
          static_cast<long long>(r.recover.checkpoints_taken));
    }
    if (r.sdc.enabled) {
      std::printf(
          "sdc (first run): %lld audit(s) (%lld failed, %.2e s), %lld "
          "flip(s) injected, %lld rollback(s) repairing %lld level(s), "
          "%lld checkpoint(s) rejected\n",
          static_cast<long long>(r.sdc.audits),
          static_cast<long long>(r.sdc.audit_failures), r.sdc.audit_seconds,
          static_cast<long long>(r.sdc.flips_injected),
          static_cast<long long>(r.sdc.rollbacks),
          static_cast<long long>(r.sdc.replayed_levels),
          static_cast<long long>(r.sdc.checkpoints_rejected));
    }
    if (engine.tracer() != nullptr || engine.metrics() != nullptr ||
        engine.comm_atlas() != nullptr) {
      // Each run overwrites the observers' recordings, so re-run the
      // first source: the run is deterministic, and afterwards the trace,
      // metrics, and atlas describe exactly the report printed below.
      (void)engine.run(sources.front());
    }
    obs::CriticalPathReport cp;
    bool have_cp = false;
    if (engine.tracer() != nullptr) {
      cp = obs::analyze_critical_path(*engine.tracer(), r.ranks);
      have_cp = true;
      std::printf("%s", obs::format_critical_path_table(cp).c_str());
      std::ofstream trace_file(trace_out);
      if (!trace_file) {
        std::fprintf(stderr, "error: cannot write trace to %s\n",
                     trace_out.c_str());
        return 2;
      }
      engine.tracer()->write_chrome_json(trace_file);
      std::printf(
          "wrote Chrome trace to %s (load in Perfetto or chrome://tracing)\n",
          trace_out.c_str());
    }
    if (engine.metrics() != nullptr) {
      const auto& wait =
          engine.metrics()->histogram("comm.wait_seconds");
      std::printf(
          "collective waits (first run): %llu samples, mean %.3e s, "
          "p95 %.3e s, p99 %.3e s\n",
          static_cast<unsigned long long>(wait.count()), wait.mean(),
          wait.quantile(0.95), wait.quantile(0.99));
      if (metrics_format == "openmetrics") {
        std::ostringstream exposition;
        engine.metrics()->write_openmetrics(exposition);
        std::fputs(exposition.str().c_str(), stdout);
      } else if (metrics_format == "json") {
        std::printf("%s\n", engine.metrics()->to_json().c_str());
      }
    }
    if (engine.comm_atlas() != nullptr) {
      std::ofstream atlas_file(atlas_out);
      if (!atlas_file) {
        std::fprintf(stderr, "error: cannot write atlas to %s\n",
                     atlas_out.c_str());
        return 2;
      }
      engine.comm_atlas()->write_json(atlas_file);
      const obs::AtlasSummary summary = engine.comm_atlas()->summary();
      std::printf(
          "atlas (first run): %llu bytes (%llu on the network), locality "
          "share %.4f, max pair %d->%d (%.1f%% of traffic), hotspot rank "
          "%d (%.2fx mean), incast rank %d\n",
          static_cast<unsigned long long>(summary.total_bytes),
          static_cast<unsigned long long>(summary.network_bytes),
          summary.locality_share, summary.max_pair_src, summary.max_pair_dst,
          100.0 * summary.max_pair_share, summary.hotspot_rank,
          summary.row_skew, summary.incast_rank);
      std::printf("wrote communication atlas to %s\n", atlas_out.c_str());
    }
    if (args.get_flag("json")) {
      bfs::ReportJsonOptions jopts;
      jopts.metrics = engine.metrics();
      jopts.critical_path = have_cp ? &cp : nullptr;
      std::printf("%s\n", bfs::report_to_json(r, jopts).c_str());
    }
    dump_flight(flight_out);  // on-demand dump of the last run's ring
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
