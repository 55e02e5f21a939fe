// Public facade of the library: pick an algorithm, a simulated machine,
// and a core count; run validated BFS with full per-level instrumentation.
// One core::EngineOptions (bfs/options.hpp) describes the run. Engine
// builds one CSR and hands it, with the options unchanged, to bfs::Bfs1D
// or bfs::Bfs2D, which read what their algorithm uses; Engine itself
// resolves the threads per rank, builds the observers, and keeps the CSR
// that every algorithm traverses and run_batch validates against.
//
//   using namespace dbfs;
//   auto built = graph::build_graph(graph::generate_rmat({.scale = 16}));
//   core::Engine engine(built.edges, built.csr.num_vertices(),
//                       {.algorithm = core::Algorithm::kTwoDHybrid,
//                        .cores = 1024,
//                        .machine = model::hopper()});
//   auto run = engine.run(source);
//   auto batch = engine.run_batch(sources, built.directed_edge_count);
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bfs/options.hpp"
#include "bfs/report.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/observers.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace dbfs::core {

const char* to_string(Algorithm a);
/// The algorithm a command line names: serial, shared, 1d, 1d-hybrid, 2d,
/// 2d-hybrid, graph500-ref or pbgl. Throws std::invalid_argument on any
/// other name.
Algorithm parse_algorithm(const std::string& name);
bool is_distributed(Algorithm a);

/// Knobs for Engine::run_batch.
struct BatchOptions {
  /// Validate every BFS tree against the graph (Graph500 rules). The
  /// bench harness disables this on repeat noise-model repetitions —
  /// validation is host-side work that does not change the simulated
  /// clocks, so skipping it only saves wall time.
  bool validate = true;
};

/// Graph500-style batch statistics over multiple sources.
struct BatchResult {
  std::vector<bfs::RunReport> reports;
  util::Summary teps;          ///< per-source TEPS sample summary
  double harmonic_mean_teps = 0.0;
  double mean_seconds = 0.0;
  int validated = 0;           ///< sources whose output passed validation
  int failed = 0;
  std::string first_error;     ///< first validation failure, if any
  /// Structured view of the first failure: the invariant identifier and
  /// one offending vertex (see graph::ValidationResult); empty / -1 when
  /// every source validated.
  std::string first_error_check;
  vid_t first_error_vertex = -1;
};

class Engine {
 public:
  /// `edges` must already be prepared (shuffled + symmetrized — use
  /// graph::build_graph); `n` is the vertex count and must equal
  /// edges.num_vertices() (std::invalid_argument otherwise, or when it is
  /// below 1). The engine builds one CSR from `edges` and keeps no copy
  /// of them, so they need not outlive it. Every algorithm traverses that
  /// CSR, deduplicated and without self-loops, whatever the list holds.
  Engine(const graph::EdgeList& edges, vid_t n, EngineOptions opts);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  bfs::BfsOutput run(vid_t source);

  /// Run every source, validate each output against the graph (unless
  /// batch_options.validate is off), and aggregate TEPS using
  /// `edge_denominator` (Graph500 counts the original directed edges).
  BatchResult run_batch(std::span<const vid_t> sources,
                        eid_t edge_denominator,
                        const BatchOptions& batch_options = {});

  /// The options as run: threads_per_rank resolved (rank_threads).
  const EngineOptions& options() const;
  /// Cores actually simulated (2D grids round down to a square).
  int cores_used() const;
  /// The attached observers, describing the most recent run(): null
  /// unless the algorithm is distributed and, except for the always-on
  /// flight recorder (dump it with FlightRecorder::write_json), the
  /// matching EngineOptions flag was set.
  obs::Tracer* tracer() const;
  obs::MetricsRegistry* metrics() const;
  obs::CommAtlas* comm_atlas() const;
  obs::FlightRecorder* flight_recorder() const;
  /// CSR view of the prepared graph, built once in the constructor (with
  /// CsrGraph::from_edges); every algorithm traverses it and run_batch
  /// validates against it.
  const graph::CsrGraph& csr() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dbfs::core
