#include "core/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "bfs/baseline_graph500.hpp"
#include "bfs/baseline_pbgl.hpp"
#include "bfs/bfs1d.hpp"
#include "bfs/bfs2d.hpp"
#include "bfs/serial.hpp"
#include "bfs/shared.hpp"
#include "graph/validator.hpp"
#include "obs/comm_atlas.hpp"

namespace dbfs::core {

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kSerial:
      return "serial";
    case Algorithm::kShared:
      return "shared";
    case Algorithm::kOneDFlat:
      return "1d-flat";
    case Algorithm::kOneDHybrid:
      return "1d-hybrid";
    case Algorithm::kTwoDFlat:
      return "2d-flat";
    case Algorithm::kTwoDHybrid:
      return "2d-hybrid";
    case Algorithm::kGraph500Ref:
      return "graph500-ref";
    case Algorithm::kPbglLike:
      return "pbgl-like";
  }
  return "?";
}

Algorithm parse_algorithm(const std::string& name) {
  if (name == "serial") return Algorithm::kSerial;
  if (name == "shared") return Algorithm::kShared;
  if (name == "1d") return Algorithm::kOneDFlat;
  if (name == "1d-hybrid") return Algorithm::kOneDHybrid;
  if (name == "2d") return Algorithm::kTwoDFlat;
  if (name == "2d-hybrid") return Algorithm::kTwoDHybrid;
  if (name == "graph500-ref") return Algorithm::kGraph500Ref;
  if (name == "pbgl") return Algorithm::kPbglLike;
  throw std::invalid_argument("unknown algorithm: " + name);
}

bool is_distributed(Algorithm a) {
  return a != Algorithm::kSerial && a != Algorithm::kShared;
}

int default_threads_per_rank(const model::MachineModel& machine) {
  // One NUMA domain per rank: 6-way on 24-core Hopper nodes, 4-way on
  // quad-core Franklin nodes, and likewise for other machines.
  return machine.cores_per_node >= 24 ? 6
         : machine.cores_per_node >= 4 ? 4
                                       : machine.cores_per_node;
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
    int threads = opts.threads_per_rank;
    const bool hybrid = opts.algorithm == Algorithm::kOneDHybrid ||
                        opts.algorithm == Algorithm::kTwoDHybrid;
    if (threads <= 0) {
      threads = hybrid ? default_threads_per_rank(opts.machine) : 1;
    }
    if (!hybrid && is_distributed(opts.algorithm)) threads = 1;
    // A hybrid rank holds no more threads than the cores asked for, so a
    // run never uses more cores than requested.
    if (hybrid) threads = std::min(threads, std::max(1, opts.cores));
    opts.threads_per_rank = threads;

    if (is_distributed(opts.algorithm)) {
      if (opts.trace) tracer = std::make_unique<obs::Tracer>();
      if (opts.metrics) metrics = std::make_unique<obs::MetricsRegistry>();
      if (opts.atlas) atlas = std::make_unique<obs::CommAtlas>();
      // The flight recorder is always on for distributed runs: a bounded
      // ring the error paths can dump post mortem. It is passive, so the
      // run and its report are byte-identical with or without it.
      flight = std::make_unique<obs::FlightRecorder>();
      observers = {tracer.get(), metrics.get(), flight.get(), atlas.get()};
    }

    switch (opts.algorithm) {
      case Algorithm::kSerial:
      case Algorithm::kShared:
        break;
      case Algorithm::kOneDFlat:
      case Algorithm::kOneDHybrid: {
        bfs::Bfs1DOptions o;
        o.ranks = std::max(1, opts.cores / threads);
        o.threads_per_rank = threads;
        o.machine = opts.machine;
        o.wire_format = opts.wire_format;
        o.load_smoothing = opts.load_smoothing;
        o.faults = opts.faults;
        o.recover = opts.recover;
        o.observers = observers;
        one_d = std::make_unique<bfs::Bfs1D>(edges, n, std::move(o));
        break;
      }
      case Algorithm::kTwoDFlat:
      case Algorithm::kTwoDHybrid: {
        bfs::Bfs2DOptions o;
        o.cores = opts.cores;
        o.threads_per_rank = threads;
        o.machine = opts.machine;
        o.backend = opts.backend;
        o.vector_dist = opts.vector_dist;
        o.triangular_storage = opts.triangular_storage;
        o.wire_format = opts.wire_format;
        o.load_smoothing = opts.load_smoothing;
        o.faults = opts.faults;
        o.recover = opts.recover;
        o.observers = observers;
        o.direction = opts.direction;
        o.alpha = opts.alpha;
        o.beta = opts.beta;
        two_d = std::make_unique<bfs::Bfs2D>(edges, n, std::move(o));
        break;
      }
      case Algorithm::kGraph500Ref: {
        bfs::Graph500RefOptions g;
        g.ranks = opts.cores;
        g.machine = opts.machine;
        auto o = bfs::graph500_reference_options(g);
        o.faults = opts.faults;
        o.observers = observers;
        one_d = std::make_unique<bfs::Bfs1D>(edges, n, std::move(o));
        break;
      }
      case Algorithm::kPbglLike: {
        bfs::PbglLikeOptions g;
        g.ranks = opts.cores;
        g.machine = opts.machine;
        auto o = bfs::pbgl_like_options(g);
        o.faults = opts.faults;
        o.observers = observers;
        one_d = std::make_unique<bfs::Bfs1D>(edges, n, std::move(o));
        break;
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
  if (impl_->one_d) {
    return impl_->one_d->ranks() * impl_->opts.threads_per_rank;
  }
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
  switch (im.opts.algorithm) {
    case Algorithm::kSerial:
      return bfs::serial_bfs(im.csr, source);
    case Algorithm::kShared:
      return bfs::shared_bfs(im.csr, source).out;
    default:
      break;
  }
  if (im.one_d) return im.one_d->run(source);
  return im.two_d->run(source);
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
