#include "bfs/bfs1d.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "bfs/exchange.hpp"
#include "bfs/frontier.hpp"
#include "bfs/level_driver.hpp"
#include "comm/sieve.hpp"
#include "model/cost.hpp"
#include "obs/comm_atlas.hpp"
#include "simmpi/comm.hpp"

namespace dbfs::bfs {

namespace {

/// How one code of the 1D family prices the same data movement. Ours
/// aggregates each level into one Alltoallv; the baselines flush
/// per-destination buffers as individually latencied messages and pay
/// extra per scanned edge and per peer per level (touching every
/// destination's buffer costs CPU time however little it holds).
struct Code {
  core::Algorithm algorithm;
  const char* label;  ///< before the "-flat"/"-hybrid" suffix
  std::size_t chunk_bytes;  ///< bytes per message; 0 = one Alltoallv
  double extra_dram_ops_per_edge;  ///< priced at alpha_local(1e9) each
  double per_peer_level_seconds;
};

constexpr Code kCodes[] = {
    {core::Algorithm::kOneDFlat, "1d-alltoallv", 0, 0.0, 0.0},
    {core::Algorithm::kOneDHybrid, "1d-alltoallv", 0, 0.0, 0.0},
    // The Graph 500 reference code (v2.1 "simple"), which flat 1D beats
    // by 2.72-4.13x (§6): few-KB coalescing buffers flushed when full,
    // owners re-derived by division, an oversized queue.
    {core::Algorithm::kGraph500Ref, "graph500-ref-chunked", 4 * 1024, 2.0,
     5.0e-8},
    // PBGL (Table 2): one "discover" message per candidate through a
    // generic buffer, hash-map property lookups per visit, and microseconds
    // per peer to flush the buffers each level — what stops it scaling.
    {core::Algorithm::kPbglLike, "pbgl-like-per-edge", sizeof(Candidate),
     6.0, 1.5e-6},
};

const Code& code_of(core::Algorithm a) {
  for (const Code& code : kCodes) {
    if (code.algorithm == a) return code;
  }
  throw std::invalid_argument("Bfs1D: not a 1D algorithm");
}

/// `opts` as `code` runs it: a baseline is flat MPI on raw structs with
/// smoothed pricing and default recovery, whatever was asked for.
core::EngineOptions as_run(core::EngineOptions opts, const Code& code) {
  opts.threads_per_rank = core::rank_threads(opts);
  if (code.chunk_bytes > 0) {
    opts.wire_format = comm::WireFormat::kRaw;
    opts.load_smoothing = 1.0;
    opts.recover = {};
  }
  return opts;
}

}  // namespace

struct Bfs1D::Impl final : LevelEngine {
  const Code& code;
  core::EngineOptions opts;  ///< as_run: the options this code runs with
  int ranks;
  double extra_per_edge_seconds;
  const graph::CsrGraph& csr;
  vid_t n;
  dist::BlockPartition part;
  simmpi::Cluster cluster;
  std::vector<int> world;
  comm::Sieve sieve;
  LevelDriver driver;

  static dist::BlockPartition make_partition(const graph::CsrGraph& csr,
                                             PartitionMode mode, int ranks) {
    if (mode == PartitionMode::kEdgeBalanced) {
      // A rank's per-level work is its out-edges scanned *plus* the
      // candidates arriving for its owned vertices, so balance on both
      // endpoints. On a symmetric graph this doubles every count
      // uniformly (the greedy sweep is scale-invariant, boundaries are
      // unchanged); on an unsymmetrized one it stops a high in-degree
      // hub's receive volume from being invisible to the partitioner.
      const vid_t n = csr.num_vertices();
      std::vector<eid_t> degrees(static_cast<std::size_t>(n));
      for (vid_t u = 0; u < n; ++u) {
        degrees[static_cast<std::size_t>(u)] += csr.degree(u);
        for (vid_t v : csr.neighbors(u)) {
          ++degrees[static_cast<std::size_t>(v)];
        }
      }
      return dist::BlockPartition::edge_balanced(degrees, ranks);
    }
    return dist::BlockPartition(csr.num_vertices(), ranks);
  }

  Impl(const graph::CsrGraph& graph, const core::EngineOptions& options,
       obs::Observers observers)
      : code(code_of(options.algorithm)),
        opts(as_run(options, code)),
        ranks(std::max(1, opts.cores / opts.threads_per_rank)),
        extra_per_edge_seconds(code.extra_dram_ops_per_edge *
                               opts.machine.alpha_local(1e9)),
        csr(graph),
        n(graph.num_vertices()),
        part(make_partition(graph, opts.partition_mode, ranks)),
        cluster(ranks, opts.machine, opts.threads_per_rank),
        world(static_cast<std::size_t>(ranks)),
        driver(*this, cluster, world, n, opts.recover, "1d-level") {
    std::iota(world.begin(), world.end(), 0);
    cluster.set_fault_plan(opts.faults);
    // 1D = a degenerate 1×p grid: the single row group is the world, so
    // no off-diagonal atlas pair ever classifies as subcommunicator-local.
    cluster.attach(observers, 1, ranks);
  }

  /// The baselines always run raw (see as_run).
  bool wire_mode() const { return comm::wire_sieves(opts.wire_format); }

  /// Move candidates between ranks and price the exchange as the code
  /// does. Returns per-rank received candidates.
  std::vector<std::vector<Candidate>> exchange(
      simmpi::BlockExchange<Candidate> send) {
    const auto p = static_cast<std::size_t>(ranks);

    if (code.chunk_bytes == 0) {
      WireTally wl;
      const std::span<const int> groups[] = {world};
      auto recv = exchange_candidates(cluster, groups, std::move(send),
                                      opts.wire_format, sieve,
                                      opts.load_smoothing, "1d-exchange", wl);
      if (wire_mode()) driver.record_wire(wl, "1d-exchange");
      return recv;
    }

    // Unaggregated modes: identical data movement, but priced as many
    // individually-latencied messages per rank (the baselines' behavior).
    // Each rank still pays the level's p-way synchronization floor (the
    // reference code posts per-peer receives and barriers every level),
    // *plus* a message latency per chunk on both the send and the
    // receive side — the overhead an aggregated Alltoallv amortizes away.
    auto recv = simmpi::route(send, p);
    const std::size_t chunk = code.chunk_bytes;
    std::uint64_t network_bytes = 0;
    std::uint64_t messages = 0;
    for (std::size_t i = 0; i < p; ++i) {
      for (const simmpi::Block& b : send.blocks[i]) {
        if (static_cast<std::size_t>(b.slot) == i) continue;
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(b.count) * sizeof(Candidate);
        network_bytes += bytes;
        messages += (bytes + chunk - 1) / chunk;
      }
    }
    // Priced on mean per-rank volumes for the same reason as the
    // aggregated alltoallv (see comm.hpp): the baselines should not be
    // additionally penalized by small-instance hub skew. Every message
    // is paid once by its sender and once by its receiver. The means stay
    // in double: on high-diameter levels a rank ships fewer messages
    // than there are ranks, and integer division would truncate the
    // whole level's traffic to zero.
    const double mean_msgs =
        static_cast<double>(2 * messages) / static_cast<double>(p);
    const double mean_bytes =
        static_cast<double>(network_bytes) / static_cast<double>(p);
    const double max_cost = simmpi::faulted_cost(
        cluster, world,
        static_cast<double>(ranks) * cluster.machine().alpha_net +
            model::cost_chunked_sends(cluster.machine(), mean_msgs,
                                      mean_bytes * cluster.nic_factor(),
                                      ranks),
        "1d-chunked");
    simmpi::meter_collective(
        cluster, world, max_cost, "1d-chunked",
        simmpi::Pattern::kPointToPoint, network_bytes,
        [&](obs::CommAtlas::Slice& sl) {
          for (std::size_t i = 0; i < p; ++i) {
            for (const simmpi::Block& b : send.blocks[i]) {
              if (static_cast<std::size_t>(b.slot) == i) continue;
              sl.add(static_cast<int>(i), b.slot,
                     static_cast<std::uint64_t>(b.count) * sizeof(Candidate));
            }
          }
        });
    return std::move(recv.data);
  }

  // ---- LevelEngine -----------------------------------------------------

  /// One level of Algorithm 2 (see LevelEngine::step).
  vid_t step(BfsOutput& out, std::vector<std::vector<vid_t>>& fs,
             level_t level, LevelStats& stats) override;

  int owner(vid_t v) const override { return part.owner(v); }

  comm::Sieve* visited_sieve() override {
    return wire_mode() ? &sieve : nullptr;
  }

  std::pair<int, int> shape() const override { return {1, ranks}; }

  /// Drop to p-1 ranks and re-cut the vertex blocks over them.
  bool shrink() override {
    if (ranks < 2) return false;
    --ranks;
    part = make_partition(csr, opts.partition_mode, ranks);
    return true;
  }

  vid_t shard_size(int rank) const override { return part.size(rank); }
};

Bfs1D::Bfs1D(const graph::CsrGraph& csr, const core::EngineOptions& opts,
             obs::Observers observers)
    : impl_(std::make_unique<Impl>(csr, opts, observers)) {
  if (csr.num_vertices() < 1) {
    throw std::invalid_argument("Bfs1D: empty graph");
  }
}

Bfs1D::~Bfs1D() = default;

const dist::BlockPartition& Bfs1D::partition() const { return impl_->part; }

int Bfs1D::ranks() const { return impl_->ranks; }

int Bfs1D::cores_used() const {
  return impl_->ranks * impl_->opts.threads_per_rank;
}

BfsOutput Bfs1D::run(vid_t source) {
  Impl& im = *impl_;
  if (source < 0 || source >= im.n) {
    throw std::out_of_range("Bfs1D: source out of range");
  }
  BfsOutput out;
  out.report.algorithm = std::string(im.code.label) +
                         (im.opts.threads_per_rank > 1 ? "-hybrid" : "-flat");
  im.driver.run(source, out);
  return out;
}

vid_t Bfs1D::Impl::step(BfsOutput& out, std::vector<std::vector<vid_t>>& fs,
                        level_t level, LevelStats& stats) {
  Impl& im = *this;
  const int p = im.ranks;
  const int t = im.opts.threads_per_rank;
  const dist::BlockPartition& part = im.part;
  const bool wire = im.wire_mode();
  SdcShadow* const shadow = im.driver.shadow();

  // --- Phase A (Algorithm 2 lines 13-19): scan the local frontier and
  // bucket (neighbor, parent) candidates by owner with a stable counting
  // sort straight into SendBuf, touching only the owners the scan
  // reaches. In hybrid mode each thread's buffers (lines 8-19) would hold
  // a contiguous slice of the frontier, so their destination-major merge
  // is this same SendBuf; the threading itself is priced by the model.
  std::vector<double> phase_costs(static_cast<std::size_t>(p), 0.0);
  auto send = simmpi::BlockExchange<Candidate>::sized(
      static_cast<std::size_t>(p));
  std::vector<eid_t> edges_scanned(static_cast<std::size_t>(p), 0);
  im.cluster.for_each_rank([&](int r) {
    const auto ri = static_cast<std::size_t>(r);
    simmpi::pack_blocks<Candidate>(
        static_cast<std::size_t>(p),
        [&](auto&& put) {
          for (vid_t u : fs[ri]) {
            for (vid_t v : im.csr.neighbors(u)) {
              put(static_cast<std::size_t>(part.owner(v)), Candidate{v, u});
            }
          }
        },
        send.data[ri], send.blocks[ri]);
    const auto scanned = static_cast<eid_t>(send.data[ri].size());
    edges_scanned[ri] = scanned;

    model::Work1D work;
    work.frontier_vertices = static_cast<eid_t>(fs[ri].size());
    work.edges_scanned = scanned;
    work.words_packed = 2 * scanned;  // Candidate = 2 words
    work.n_local = part.size(r);
    work.threads = t;
    work.extra_per_edge_seconds = im.extra_per_edge_seconds;
    phase_costs[ri] = model::cost_1d_local(im.cluster.machine(), work) +
                      model::cost_thread_barriers(im.cluster.machine(), t, 2) +
                      static_cast<double>(p) * im.code.per_peer_level_seconds;
  });
  im.cluster.set_compute_phase("1d-scan");
  charge_smoothed(im.cluster, im.world, phase_costs, im.opts.load_smoothing);

  // --- All-to-all exchange (line 21).
  auto recv = im.exchange(std::move(send));

  // --- Phase B (lines 23-28): owners apply distance checks.
  std::vector<std::int64_t> next_sizes(static_cast<std::size_t>(p), 0);
  im.cluster.for_each_rank([&](int r) {
    const auto ri = static_cast<std::size_t>(r);
    fs[ri].clear();
    merge_candidates(recv[ri], r, level, out, wire ? &im.sieve : nullptr,
                     shadow, fs[ri]);
    next_sizes[ri] = static_cast<std::int64_t>(fs[ri].size());

    model::Work1D work;
    work.candidates_received = static_cast<eid_t>(recv[ri].size()) * 2;
    work.newly_visited = static_cast<vid_t>(fs[ri].size());
    work.n_local = part.size(r);
    work.threads = t;
    phase_costs[ri] = model::cost_1d_local(im.cluster.machine(), work) +
                      model::cost_thread_barriers(im.cluster.machine(), t, 2);
    recv[ri].clear();
    recv[ri].shrink_to_fit();
  });
  im.cluster.set_compute_phase("1d-update");
  charge_smoothed(im.cluster, im.world, phase_costs, im.opts.load_smoothing);

  // --- Level synchronization / termination test.
  const auto global_frontier =
      static_cast<vid_t>(simmpi::allreduce_sum<std::int64_t>(
          im.cluster, im.world, next_sizes, "level-sync"));

  stats.edges_scanned =
      std::accumulate(edges_scanned.begin(), edges_scanned.end(), eid_t{0});
  return global_frontier;
}

}  // namespace dbfs::bfs
