#include "harness/harness.hpp"

#include <stdexcept>

namespace dbfs::bench {

Workload make_rmat_workload(int scale, int edge_factor, int nsources,
                            std::uint64_t seed) {
  Workload w;
  graph::RmatParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  params.seed = seed;
  w.built = graph::build_graph(graph::generate_rmat(params));
  w.n = w.built.csr.num_vertices();
  const auto comps = graph::connected_components(w.built.csr);
  w.sources = graph::sample_sources(w.built.csr, comps, nsources, seed + 7);
  return w;
}

MeanTimes run_config(const Workload& w, core::EngineOptions opts) {
  core::Engine engine{w.built.edges, w.n, opts};
  MeanTimes mt;
  std::vector<double> teps;
  for (vid_t source : w.sources) {
    const auto out = engine.run(source);
    mt.total += out.report.total_seconds;
    mt.comm += out.report.comm_seconds_mean;
    mt.comp += out.report.comp_seconds_mean;
    mt.allgather += out.report.allgather_seconds;
    mt.alltoall += out.report.alltoall_seconds;
    mt.a2a_bytes += out.report.alltoall_bytes;
    mt.ag_bytes += out.report.allgather_bytes;
    teps.push_back(out.report.teps(w.built.directed_edge_count));
  }
  const auto k = static_cast<double>(w.sources.size());
  mt.total /= k;
  mt.comm /= k;
  mt.comp /= k;
  mt.allgather /= k;
  mt.alltoall /= k;
  mt.gteps = util::summarize(teps).harmonic_mean / 1e9;
  return mt;
}

namespace {

std::string summarize_fault_plan(const simmpi::FaultPlan& plan) {
  if (!plan.enabled()) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "seed=%llu fail_rate=%g corrupt_rate=%g stragglers=%zu+%zu",
                static_cast<unsigned long long>(plan.seed),
                plan.collective_fail_rate, plan.corrupt_rate,
                plan.compute_stragglers.size(), plan.nic_stragglers.size());
  return buf;
}

}  // namespace

obs::BenchRecord run_bench_record(const BenchSpec& spec) {
  graph::RmatParams params;
  params.scale = spec.scale;
  params.edge_factor = spec.edge_factor;
  params.seed = spec.graph_seed;
  const graph::BuiltGraph built =
      graph::build_graph(graph::generate_rmat(params));
  const vid_t n = built.csr.num_vertices();

  core::EngineOptions opts = spec.engine;
  opts.trace = true;
  opts.metrics = true;
  opts.atlas = true;
  if (spec.paper_log2_edges > 0.0) {
    opts.machine = scaled_machine(std::move(opts.machine),
                                  built.directed_edge_count,
                                  spec.paper_log2_edges);
  }
  core::Engine engine{built.edges, n, opts};
  const auto comps = graph::connected_components(engine.csr());
  const int threads = engine.options().threads_per_rank;
  const int ranks = engine.cores_used() / std::max(1, threads);

  obs::BenchRecordBuilder builder;
  obs::BenchRecord& record = builder.record();
  record.name = spec.name;
  record.created_by = spec.created_by;
  record.config.generator = "rmat";
  record.config.scale = spec.scale;
  record.config.edge_factor = spec.edge_factor;
  record.config.graph_seed = spec.graph_seed;
  record.config.algorithm = core::to_string(opts.algorithm);
  record.config.machine = opts.machine.name;
  record.config.wire_format = comm::to_string(opts.wire_format);
  record.config.cores = engine.cores_used();
  record.config.ranks = ranks;
  record.config.threads_per_rank = threads;
  record.config.source_seed = spec.source_seed;
  record.config.faults_enabled = opts.faults.enabled();
  record.config.fault_plan = summarize_fault_plan(opts.faults);

  std::vector<vid_t> profile_sources;
  for (int rep = 0; rep < spec.repetitions; ++rep) {
    const std::uint64_t seed =
        spec.source_seed + static_cast<std::uint64_t>(rep);
    const auto sources =
        graph::sample_sources(engine.csr(), comps, spec.sources, seed);
    if (rep == 0) profile_sources = sources;
    core::BatchOptions batch_opts;
    batch_opts.validate = spec.validate && rep == 0;
    const core::BatchResult batch =
        engine.run_batch(sources, built.directed_edge_count, batch_opts);
    if (batch.failed > 0) {
      throw std::runtime_error("bench '" + spec.name +
                               "': BFS validation failed: " +
                               batch.first_error);
    }
    builder.add_repetition(seed, batch.reports, built.directed_edge_count,
                           batch.validated, batch.failed);
  }

  // Profile run: observers keep only the most recent run, so re-run the
  // first repetition's first source and harvest the structural layers
  // (per-level split, idle-time heatmap, counters) from that one search.
  if (!profile_sources.empty()) {
    const auto out = engine.run(profile_sources.front());
    builder.attach_profile(engine.tracer(), engine.metrics(), out.report,
                           ranks);
    builder.attach_atlas(engine.comm_atlas());
  }
  return builder.finish();
}

std::string describe_bench_record(const obs::BenchRecord& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-28s %8.3f GTEPS  %8.3f ms  comm %5.1f%%  imb %.2f  "
                "noise %.2f%%",
                r.name.c_str(), r.harmonic_mean_teps / 1e9,
                r.mean_seconds * 1e3,
                r.mean_seconds > 0.0
                    ? 100.0 * r.comm_seconds_mean /
                          (r.comm_seconds_mean + r.comp_seconds_mean)
                    : 0.0,
                r.imbalance.comm_imbalance,
                100.0 * r.noise.teps_rel_stddev);
  return buf;
}

}  // namespace dbfs::bench
