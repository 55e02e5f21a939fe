// Public facade of the library: pick an algorithm, a simulated machine,
// and a core count; run validated BFS with full per-level instrumentation.
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

#include "bfs/bfs2d.hpp"
#include "bfs/report.hpp"
#include "comm/wire_format.hpp"
#include "dist/vector_dist.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "model/machine.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "recover/checkpoint.hpp"
#include "simmpi/fault.hpp"
#include "sparse/spmsv.hpp"
#include "util/stats.hpp"

namespace dbfs::core {

enum class Algorithm {
  kSerial,       ///< Algorithm 1, host execution
  kShared,       ///< intra-node OpenMP BFS, host execution
  kOneDFlat,     ///< Algorithm 2, flat MPI (one rank per core)
  kOneDHybrid,   ///< Algorithm 2 + t-way threading per rank
  kTwoDFlat,     ///< Algorithm 3, flat MPI
  kTwoDHybrid,   ///< Algorithm 3 + t-way threading per rank
  kGraph500Ref,  ///< baseline: reference MPI code behavior
  kPbglLike,     ///< baseline: PBGL behavior
};

const char* to_string(Algorithm a);
/// The algorithm a command line names: serial, shared, 1d, 1d-hybrid, 2d,
/// 2d-hybrid, graph500-ref or pbgl. Throws std::invalid_argument on any
/// other name.
Algorithm parse_algorithm(const std::string& name);
bool is_distributed(Algorithm a);

struct EngineOptions {
  Algorithm algorithm = Algorithm::kTwoDFlat;
  /// Total simulated cores. Flat algorithms use one rank per core; hybrid
  /// ones use cores/threads_per_rank ranks.
  int cores = 16;
  /// 0 = pick the machine's natural threading degree for hybrid
  /// algorithms (4 on Franklin, 6 on Hopper, per §6), 1 forced for flat.
  /// A hybrid rank gets at most `cores` threads, so cores_used() never
  /// exceeds `cores`.
  int threads_per_rank = 0;
  model::MachineModel machine = model::generic();
  sparse::SpmsvBackend backend = sparse::SpmsvBackend::kAuto;
  dist::VectorDistKind vector_dist = dist::VectorDistKind::kTwoD;
  /// §7 triangular storage for the 2D algorithms (see
  /// bfs::Bfs2DOptions::triangular_storage).
  bool triangular_storage = false;
  /// Wire format for the distributed exchanges (sender-side visited sieve
  /// + bitmap/varint payload compression; see comm/wire_format.hpp).
  /// Applies to the 1D alltoallv and the 2D fold/expand; kRaw (default)
  /// preserves the legacy byte-for-byte paths and reports. The baselines
  /// (kGraph500Ref, kPbglLike) always ship raw structs — that is the
  /// behavior they model.
  comm::WireFormat wire_format = comm::WireFormat::kRaw;
  /// Statistical load smoothing for compute pricing (see
  /// bfs::Bfs1DOptions::load_smoothing); 1 = the balanced regime of the
  /// paper's §5 model, 0 = exact per-rank volumes.
  double load_smoothing = 1.0;
  /// Deterministic fault injection for the distributed algorithms
  /// (stragglers, degraded NICs, transient collective failures, payload
  /// corruption); see simmpi/fault.hpp. Ignored by kSerial/kShared. A
  /// run whose corruption cannot be repaired within the retry budget
  /// throws simmpi::FaultError rather than returning a wrong tree.
  simmpi::FaultPlan faults;
  /// Fail-stop recovery for the 1D/2D algorithms: checkpoint cadence and
  /// shrink-vs-spare policy (see recover/checkpoint.hpp). Ignored by
  /// kSerial/kShared and the baselines (the codes they model have no
  /// recovery story). With no rank kills scheduled this is inert: the
  /// run and its report stay bit-identical.
  recover::RecoverOptions recover;
  /// Attach the virtual-time tracer / metrics registry (src/obs/) to the
  /// distributed algorithms. Observers are passive — a traced run's
  /// outputs and report are identical to an untraced one — but each run
  /// overwrites the previous run's recordings (the cluster clears them
  /// with its accounting), so read tracer()/metrics() after the run you
  /// care about. Ignored by kSerial/kShared.
  bool trace = false;
  bool metrics = false;
  /// Attach the per-rank-pair communication atlas (obs/comm_atlas.hpp) to
  /// the distributed algorithms. Passive like the other observers — the
  /// run and its report stay byte-identical — and each run overwrites the
  /// previous run's matrix, so read comm_atlas() after the run you care
  /// about. Ignored by kSerial/kShared.
  bool atlas = false;
  /// Traversal direction for the 2D algorithms (see
  /// bfs::Bfs2DOptions::direction). kTopDown — the default — keeps the
  /// run and its report byte-identical to the pre-hybrid engine; kHybrid
  /// enables the Beamer-style alpha-beta switch. Ignored by every other
  /// algorithm. alpha/beta <= 0 derive the thresholds from the machine
  /// model.
  bfs::DirectionMode direction = bfs::DirectionMode::kTopDown;
  double alpha = 14.0;
  double beta = 24.0;
};

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

/// The machine's natural hybrid threading degree (paper §6: 4-way on
/// Franklin, 6-way on Hopper = one NUMA die).
int default_threads_per_rank(const model::MachineModel& machine);

class Engine {
 public:
  /// `edges` must already be prepared (shuffled + symmetrized — use
  /// graph::build_graph); `n` is the vertex count. The engine keeps no
  /// copy of `edges` (only shrink recovery, when armed, keeps one inside
  /// Bfs1D or Bfs2D), so they need not outlive it.
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

  const EngineOptions& options() const;
  /// Cores actually simulated (2D grids round down to a square).
  int cores_used() const;
  /// The attached observers (null unless the matching EngineOptions flag
  /// was set and the algorithm is distributed). Contents describe the
  /// most recent run().
  obs::Tracer* tracer() const;
  obs::MetricsRegistry* metrics() const;
  /// The attached communication atlas (null unless EngineOptions::atlas
  /// was set and the algorithm is distributed). Holds the most recent
  /// run's per-rank-pair traffic matrix and skew analytics.
  obs::CommAtlas* comm_atlas() const;
  /// The always-on flight recorder (null for kSerial/kShared). Holds the
  /// most recent run's black-box events; dump with
  /// FlightRecorder::write_json on error or on demand.
  obs::FlightRecorder* flight_recorder() const;
  /// CSR view of the prepared graph, built once in the constructor (with
  /// CsrGraph::from_edges); the serial and shared algorithms traverse it
  /// and run_batch validates against it.
  const graph::CsrGraph& csr() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dbfs::core
