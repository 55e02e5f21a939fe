#include "core/engine.hpp"

#include <stdexcept>
#include <utility>

#include "bfs/bfs1d.hpp"
#include "bfs/bfs2d.hpp"
#include "bfs/serial.hpp"
#include "bfs/shared.hpp"
#include "graph/validator.hpp"
#include "obs/comm_atlas.hpp"

namespace dbfs::core {

namespace {

/// Each algorithm's report name and its command-line name.
struct Name {
  Algorithm algorithm;
  const char* name;
  const char* cli;
};

constexpr Name kNames[] = {
    {Algorithm::kSerial, "serial", "serial"},
    {Algorithm::kShared, "shared", "shared"},
    {Algorithm::kOneDFlat, "1d-flat", "1d"},
    {Algorithm::kOneDHybrid, "1d-hybrid", "1d-hybrid"},
    {Algorithm::kTwoDFlat, "2d-flat", "2d"},
    {Algorithm::kTwoDHybrid, "2d-hybrid", "2d-hybrid"},
    {Algorithm::kGraph500Ref, "graph500-ref", "graph500-ref"},
    {Algorithm::kPbglLike, "pbgl-like", "pbgl"},
};

}  // namespace

const char* to_string(Algorithm a) {
  for (const Name& n : kNames) {
    if (n.algorithm == a) return n.name;
  }
  return "?";
}

Algorithm parse_algorithm(const std::string& name) {
  for (const Name& n : kNames) {
    if (name == n.cli) return n.algorithm;
  }
  throw std::invalid_argument("unknown algorithm: " + name);
}

bool is_distributed(Algorithm a) {
  return a != Algorithm::kSerial && a != Algorithm::kShared;
}

struct Engine::Impl {
  EngineOptions opts;
  vid_t n;
  std::unique_ptr<bfs::Bfs1D> one_d;
  std::unique_ptr<bfs::Bfs2D> two_d;
  /// What kSerial/kShared traverse and run_batch validates against.
  graph::CsrGraph csr;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::FlightRecorder> flight;
  std::unique_ptr<obs::CommAtlas> atlas;
  obs::Observers observers;  ///< the four above, as the drivers see them

  Impl(const graph::EdgeList& edges, vid_t num_vertices, EngineOptions options)
      : opts(std::move(options)), n(num_vertices) {
    opts.threads_per_rank = rank_threads(opts);
    if (is_distributed(opts.algorithm)) {
      if (opts.trace) tracer = std::make_unique<obs::Tracer>();
      if (opts.metrics) metrics = std::make_unique<obs::MetricsRegistry>();
      if (opts.atlas) atlas = std::make_unique<obs::CommAtlas>();
      // The flight recorder is always on for distributed runs: a bounded
      // ring the error paths can dump post mortem. It is passive, so the
      // run and its report are byte-identical with or without it.
      flight = std::make_unique<obs::FlightRecorder>();
      observers = {tracer.get(), metrics.get(), flight.get(), atlas.get()};
      if (opts.algorithm == Algorithm::kTwoDFlat ||
          opts.algorithm == Algorithm::kTwoDHybrid) {
        two_d = std::make_unique<bfs::Bfs2D>(edges, n, opts, observers);
      } else {
        one_d = std::make_unique<bfs::Bfs1D>(edges, n, opts, observers);
      }
    }
    // Built last, once the partitioner's transient buffers are freed.
    csr = graph::CsrGraph::from_edges(edges);
  }
};

Engine::Engine(const graph::EdgeList& edges, vid_t n, EngineOptions opts)
    : impl_(std::make_unique<Impl>(edges, n, std::move(opts))) {
  if (n < 1) throw std::invalid_argument("Engine: empty graph");
}

Engine::~Engine() = default;

const EngineOptions& Engine::options() const { return impl_->opts; }

int Engine::cores_used() const {
  if (impl_->two_d) return impl_->two_d->cores_used();
  if (impl_->one_d) return impl_->one_d->cores_used();
  return 1;
}

obs::Tracer* Engine::tracer() const { return impl_->tracer.get(); }

obs::MetricsRegistry* Engine::metrics() const { return impl_->metrics.get(); }

obs::CommAtlas* Engine::comm_atlas() const { return impl_->atlas.get(); }

obs::FlightRecorder* Engine::flight_recorder() const {
  return impl_->flight.get();
}

const graph::CsrGraph& Engine::csr() const { return impl_->csr; }

bfs::BfsOutput Engine::run(vid_t source) {
  Impl& im = *impl_;
  if (im.one_d) return im.one_d->run(source);
  if (im.two_d) return im.two_d->run(source);
  if (im.opts.algorithm == Algorithm::kShared) {
    return bfs::shared_bfs(im.csr, source).out;
  }
  return bfs::serial_bfs(im.csr, source);
}

BatchResult Engine::run_batch(std::span<const vid_t> sources,
                              eid_t edge_denominator,
                              const BatchOptions& batch_options) {
  BatchResult batch;
  std::vector<double> teps_samples;
  double time_sum = 0.0;
  for (vid_t source : sources) {
    bfs::BfsOutput out = run(source);
    if (batch_options.validate) {
      const auto validation =
          graph::validate_bfs_tree(csr(), source, out.parent);
      if (validation.ok) {
        ++batch.validated;
      } else {
        ++batch.failed;
        if (batch.first_error.empty()) {
          batch.first_error = validation.error;
          batch.first_error_check = validation.failed_check;
          batch.first_error_vertex = validation.sample_vertex;
        }
      }
    }
    teps_samples.push_back(out.report.teps(edge_denominator));
    time_sum += out.report.total_seconds;
    batch.reports.push_back(std::move(out.report));
  }
  batch.teps = util::summarize(teps_samples);
  batch.harmonic_mean_teps = batch.teps.harmonic_mean;
  batch.mean_seconds =
      sources.empty() ? 0.0 : time_sum / static_cast<double>(sources.size());
  return batch;
}

}  // namespace dbfs::core
