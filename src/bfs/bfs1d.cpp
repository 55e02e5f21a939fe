#include "bfs/bfs1d.hpp"

#include <algorithm>
#include <numeric>
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

const char* mode_name(CommMode mode) {
  switch (mode) {
    case CommMode::kAlltoallv:
      return "alltoallv";
    case CommMode::kChunkedSends:
      return "chunked";
    case CommMode::kPerEdgeSends:
      return "per-edge";
  }
  return "?";
}

}  // namespace

struct Bfs1D::Impl final : LevelEngine {
  Bfs1DOptions opts;
  vid_t n;
  dist::LocalGraph1D local;
  simmpi::Cluster cluster;
  std::vector<int> world;
  comm::Sieve sieve;
  /// Retained only while shrink recovery is armed: rebuilding a
  /// (p-1)-rank partition needs the original edges.
  graph::EdgeList edges_keep;
  LevelDriver driver;

  static dist::LocalGraph1D make_local(const graph::EdgeList& edges,
                                       vid_t n, const Bfs1DOptions& opts) {
    if (opts.partition_mode == PartitionMode::kEdgeBalanced) {
      // A rank's per-level work is its out-edges scanned *plus* the
      // candidates arriving for its owned vertices, so balance on both
      // endpoints. On a symmetrized input this doubles every count
      // uniformly (the greedy sweep is scale-invariant, boundaries are
      // unchanged); on an unsymmetrized input it stops a high in-degree
      // hub's receive volume from being invisible to the partitioner.
      std::vector<eid_t> degrees(static_cast<std::size_t>(n), 0);
      for (const graph::Edge& e : edges.edges()) {
        ++degrees[static_cast<std::size_t>(e.u)];
        ++degrees[static_cast<std::size_t>(e.v)];
      }
      return dist::LocalGraph1D::build_with_partition(
          edges, dist::BlockPartition::edge_balanced(degrees, opts.ranks));
    }
    return dist::LocalGraph1D::build(edges, n, opts.ranks);
  }

  Impl(const graph::EdgeList& edges, vid_t num_vertices, Bfs1DOptions options)
      : opts(std::move(options)),
        n(num_vertices),
        local(make_local(edges, num_vertices, opts)),
        cluster(opts.ranks, opts.machine, opts.threads_per_rank),
        world(static_cast<std::size_t>(opts.ranks)),
        driver(*this, cluster, world, n, opts.recover, "1d-level") {
    std::iota(world.begin(), world.end(), 0);
    cluster.set_fault_plan(opts.faults);
    // 1D = a degenerate 1×p grid: the single row group is the world, so
    // no off-diagonal atlas pair ever classifies as subcommunicator-local.
    cluster.attach(opts.observers, 1, opts.ranks);
    if (!opts.faults.rank_kills.empty() &&
        opts.recover.policy == recover::Policy::kShrink) {
      edges_keep = edges;
    }
  }

  bool wire_mode() const {
    return opts.comm_mode == CommMode::kAlltoallv &&
           comm::wire_sieves(opts.wire_format);
  }

  /// Move candidates between ranks and price the exchange according to
  /// the configured CommMode. Returns per-rank received candidates.
  std::vector<std::vector<Candidate>> exchange(
      simmpi::BlockExchange<Candidate> send) {
    const auto p = static_cast<std::size_t>(opts.ranks);

    if (opts.comm_mode == CommMode::kAlltoallv) {
      WireTally wl;
      auto recv = exchange_candidates(cluster, world, std::move(send),
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
    // Per-edge mode must pay one message per candidate — that is the
    // PBGL-style behavior it models — so it ignores chunk_bytes instead
    // of falling through to the chunked coalescing below.
    const std::size_t chunk =
        opts.comm_mode == CommMode::kPerEdgeSends
            ? sizeof(Candidate)
            : std::max<std::size_t>(sizeof(Candidate), opts.chunk_bytes);
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
        static_cast<double>(opts.ranks) * cluster.machine().alpha_net +
            model::cost_chunked_sends(cluster.machine(), mean_msgs,
                                      mean_bytes * cluster.nic_factor(),
                                      opts.ranks),
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

  int owner(vid_t v) const override { return local.partition().owner(v); }

  comm::Sieve* visited_sieve() override {
    return wire_mode() ? &sieve : nullptr;
  }

  std::pair<int, int> shape() const override { return {1, opts.ranks}; }

  /// Drop to p-1 ranks and re-partition every vertex onto them.
  bool shrink() override {
    if (opts.ranks < 2) return false;
    --opts.ranks;
    local = make_local(edges_keep, n, opts);
    return true;
  }

  vid_t shard_size(int rank) const override {
    return local.partition().size(rank);
  }
};

Bfs1D::Bfs1D(const graph::EdgeList& edges, vid_t n, Bfs1DOptions opts)
    : impl_(std::make_unique<Impl>(edges, n, std::move(opts))) {
  if (n < 1) throw std::invalid_argument("Bfs1D: empty graph");
}

Bfs1D::~Bfs1D() = default;

const dist::BlockPartition& Bfs1D::partition() const {
  return impl_->local.partition();
}

int Bfs1D::ranks() const { return impl_->opts.ranks; }

BfsOutput Bfs1D::run(vid_t source) {
  Impl& im = *impl_;
  if (source < 0 || source >= im.n) {
    throw std::out_of_range("Bfs1D: source out of range");
  }
  BfsOutput out;
  out.report.algorithm = std::string(im.opts.label) + "-" +
                         mode_name(im.opts.comm_mode) +
                         (im.opts.threads_per_rank > 1 ? "-hybrid" : "-flat");
  im.driver.run(source, out);
  return out;
}

vid_t Bfs1D::Impl::step(BfsOutput& out, std::vector<std::vector<vid_t>>& fs,
                        level_t level, LevelStats& stats) {
  Impl& im = *this;
  const int p = im.opts.ranks;
  const int t = im.opts.threads_per_rank;
  const auto& part = im.local.partition();
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
            const vid_t local_u = u - part.begin(r);
            for (vid_t v : im.local.neighbors(r, local_u)) {
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
    work.extra_per_edge_seconds = im.opts.extra_per_edge_seconds;
    phase_costs[ri] = model::cost_1d_local(im.cluster.machine(), work) +
                      model::cost_thread_barriers(im.cluster.machine(), t, 2) +
                      static_cast<double>(p) * im.opts.per_peer_level_seconds;
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
