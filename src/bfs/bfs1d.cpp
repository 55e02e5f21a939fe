#include "bfs/bfs1d.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

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
    cluster.set_observers(opts.tracer, opts.metrics);
    cluster.set_flight(opts.flight);
    if (opts.atlas != nullptr) {
      opts.atlas->ensure_ranks(opts.ranks);
      // 1D = a degenerate 1×p grid: the single row group is the world,
      // so no off-diagonal pair ever classifies as subcommunicator-local.
      opts.atlas->set_grid(1, opts.ranks);
      cluster.set_atlas(opts.atlas);
    }
    if (!opts.faults.rank_kills.empty() &&
        opts.recover.policy == recover::Policy::kShrink) {
      edges_keep = edges;
    }
  }

  bool wire_mode() const {
    return opts.comm_mode == CommMode::kAlltoallv &&
           comm::wire_sieves(opts.wire_format);
  }

  /// Sieved/compressed variant of the aggregated exchange: each sender
  /// filters its destination blocks through its visited sieve, encodes
  /// them per opts.wire_format, and the encoded bytes travel through the
  /// same checked alltoallv (metered and checksummed post-compression).
  /// Both codec passes are priced at the local streaming bandwidth
  /// (model::cost_wire_codec) — compression buys network bytes with CPU
  /// time, never free time.
  std::vector<std::vector<Candidate>> wire_exchange(
      simmpi::FlatExchange<Candidate> send) {
    const auto p = static_cast<std::size_t>(opts.ranks);
    const int t = opts.threads_per_rank;
    auto wire = simmpi::FlatExchange<std::uint8_t>::sized(p);
    WireTally wl;
    std::vector<double> codec_costs(p, 0.0);
    std::vector<Candidate> block;
    for (std::size_t i = 0; i < p; ++i) {
      comm::WireStats rank_stats;
      std::size_t offset = 0;
      for (std::size_t j = 0; j < p; ++j) {
        const auto c = static_cast<std::size_t>(send.counts[i][j]);
        block.assign(
            send.data[i].begin() + static_cast<std::ptrdiff_t>(offset),
            send.data[i].begin() + static_cast<std::ptrdiff_t>(offset + c));
        offset += c;
        wl.pre_bytes += c * sizeof(Candidate);
        // 1D owners keep the numerically largest parent at the reach
        // level (partition- and order-independent, like 2D), so the
        // in-level dedup keeps the max parent per vertex.
        wl.dropped += comm::sieve_and_dedup(sieve, static_cast<int>(i),
                                            block, /*keep_max_parent=*/true);
        const std::size_t at = wire.data[i].size();
        comm::encode_candidates<Candidate>(block, opts.wire_format,
                                           wire.data[i], &rank_stats);
        wire.counts[i][j] =
            static_cast<std::int64_t>(wire.data[i].size() - at);
      }
      send.data[i].clear();
      send.data[i].shrink_to_fit();
      codec_costs[i] = model::cost_wire_codec(
          cluster.machine(), static_cast<std::size_t>(rank_stats.raw_bytes),
          static_cast<std::size_t>(rank_stats.encoded_bytes), t);
      wl.stats.merge(rank_stats);
    }
    cluster.set_compute_phase("wire-encode");
    charge_smoothed(cluster, world, codec_costs, opts.load_smoothing);

    auto recv_wire = simmpi::checked_alltoallv(cluster, world,
                                               std::move(wire),
                                               "1d-exchange");

    std::vector<std::vector<Candidate>> recv(p);
    for (std::size_t j = 0; j < p; ++j) {
      comm::decode_candidate_stream<Candidate>(recv_wire.data[j].data(),
                                               recv_wire.data[j].size(),
                                               recv[j]);
      codec_costs[j] = model::cost_wire_codec(
          cluster.machine(), recv[j].size() * sizeof(Candidate),
          recv_wire.data[j].size(), t);
    }
    cluster.set_compute_phase("wire-decode");
    charge_smoothed(cluster, world, codec_costs, opts.load_smoothing);
    driver.record_wire(wl, "1d-exchange");
    return recv;
  }

  /// Move candidates between ranks and price the exchange according to
  /// the configured CommMode. Returns per-rank received candidates.
  std::vector<std::vector<Candidate>> exchange(
      simmpi::FlatExchange<Candidate> send) {
    const auto p = static_cast<std::size_t>(opts.ranks);

    if (opts.comm_mode == CommMode::kAlltoallv) {
      if (comm::wire_sieves(opts.wire_format)) {
        return wire_exchange(std::move(send));
      }
      // The checked wrapper verifies a per-level checksum over the
      // exchanged candidates and re-issues the exchange when the fault
      // plan corrupted the payload; without payload faults it is a plain
      // alltoallv.
      auto recv = simmpi::checked_alltoallv(cluster, world, std::move(send),
                                            "1d-exchange");
      return std::move(recv.data);
    }

    // Unaggregated modes: identical data movement, but priced as many
    // individually-latencied messages per rank (the baselines' behavior).
    // Each rank still pays the level's p-way synchronization floor (the
    // reference code posts per-peer receives and barriers every level),
    // *plus* a message latency per chunk on both the send and the
    // receive side — the overhead an aggregated Alltoallv amortizes away.
    std::vector<std::vector<Candidate>> recv(p);
    std::vector<std::uint64_t> sent_bytes(p, 0), recv_bytes(p, 0);
    std::vector<std::uint64_t> sent_msgs(p, 0), recv_msgs(p, 0);
    std::uint64_t network_bytes = 0;
    // Per-edge mode must pay one message per candidate — that is the
    // PBGL-style behavior it models — so it ignores chunk_bytes instead
    // of falling through to the chunked coalescing below.
    const std::size_t chunk =
        opts.comm_mode == CommMode::kPerEdgeSends
            ? sizeof(Candidate)
            : std::max<std::size_t>(sizeof(Candidate), opts.chunk_bytes);
    for (std::size_t i = 0; i < p; ++i) {
      std::size_t offset = 0;
      for (std::size_t j = 0; j < p; ++j) {
        const auto c = static_cast<std::size_t>(send.counts[i][j]);
        recv[j].insert(
            recv[j].end(),
            send.data[i].begin() + static_cast<std::ptrdiff_t>(offset),
            send.data[i].begin() + static_cast<std::ptrdiff_t>(offset + c));
        offset += c;
        if (i == j || c == 0) continue;
        const std::uint64_t bytes = c * sizeof(Candidate);
        const std::uint64_t messages = (bytes + chunk - 1) / chunk;
        sent_bytes[i] += bytes;
        recv_bytes[j] += bytes;
        sent_msgs[i] += messages;
        recv_msgs[j] += messages;
        network_bytes += bytes;
      }
      send.data[i].clear();
      send.data[i].shrink_to_fit();
    }
    // Priced on mean per-rank volumes for the same reason as the
    // aggregated alltoallv (see comm.hpp): the baselines should not be
    // additionally penalized by small-instance hub skew. The means stay
    // in double: on high-diameter levels a rank ships fewer messages
    // than there are ranks, and integer division would truncate the
    // whole level's traffic to zero.
    double mean_msgs = 0.0;
    double mean_bytes = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      mean_msgs += static_cast<double>(sent_msgs[i] + recv_msgs[i]);
      mean_bytes += static_cast<double>(sent_bytes[i]);
    }
    mean_msgs /= static_cast<double>(p);
    mean_bytes /= static_cast<double>(p);
    const double max_cost = simmpi::faulted_cost(
        cluster, world,
        static_cast<double>(opts.ranks) * cluster.machine().alpha_net +
            model::cost_chunked_sends(cluster.machine(), mean_msgs,
                                      mean_bytes * cluster.nic_factor(),
                                      opts.ranks),
        "1d-chunked");
    simmpi::sync_collective(cluster, world, max_cost, "1d-chunked",
                            simmpi::Pattern::kPointToPoint, network_bytes);
    cluster.traffic().record(simmpi::Pattern::kPointToPoint, network_bytes,
                             max_cost, opts.ranks);
    if (obs::CommAtlas* atlas = cluster.atlas()) {
      // Real per-pair volumes, recorded after the collective (mirroring
      // the meter) so a kill at the barrier leaves nothing half-counted.
      auto& sl = atlas->slice(
          static_cast<int>(simmpi::Pattern::kPointToPoint),
          simmpi::to_string(simmpi::Pattern::kPointToPoint), "1d-chunked",
          cluster.current_level());
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
          if (i == j || send.counts[i][j] == 0) continue;
          sl.add(static_cast<int>(i), static_cast<int>(j),
                 static_cast<std::uint64_t>(send.counts[i][j]) *
                     sizeof(Candidate));
        }
      }
    }
    return recv;
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
  const auto a2a_bytes_before =
      im.cluster.traffic().totals(simmpi::Pattern::kAlltoallv).bytes +
      im.cluster.traffic().totals(simmpi::Pattern::kPointToPoint).bytes;

  // --- Phase A (Algorithm 2 lines 13-19): scan the local frontier and
  // bucket (neighbor, parent) candidates by owner. In hybrid mode the
  // frontier is split among t thread slots, each filling its own
  // per-destination buffer tBuf[i][j], and the thread buffers are then
  // merged destination-major into SendBuf — exactly the layout of
  // Algorithm 2 lines 8-19 (the simulator runs the slots sequentially;
  // threading is priced by the model).
  std::vector<double> phase_costs(static_cast<std::size_t>(p), 0.0);
  auto send = simmpi::FlatExchange<Candidate>::sized(
      static_cast<std::size_t>(p));
  std::vector<eid_t> edges_scanned(static_cast<std::size_t>(p), 0);
  im.cluster.for_each_rank([&](int r) {
    const auto ri = static_cast<std::size_t>(r);
    auto& counts = send.counts[ri];
    eid_t scanned = 0;

    if (t > 1) {
      // tbuf[slot][dst]: thread-local per-destination stacks.
      std::vector<std::vector<std::vector<Candidate>>> tbuf(
          static_cast<std::size_t>(t));
      for (auto& slot : tbuf) {
        slot.resize(static_cast<std::size_t>(p));
      }
      const std::size_t per_slot =
          (fs[ri].size() + static_cast<std::size_t>(t) - 1) /
          static_cast<std::size_t>(t);
      for (std::size_t i = 0; i < fs[ri].size(); ++i) {
        auto& slot = tbuf[per_slot == 0 ? 0 : i / per_slot];
        const vid_t u = fs[ri][i];
        const vid_t local_u = u - part.begin(r);
        for (vid_t v : im.local.neighbors(r, local_u)) {
          slot[static_cast<std::size_t>(part.owner(v))].push_back(
              Candidate{v, u});
          ++scanned;
        }
      }

      // Merge: SendBuf_j = concat over slots of tBuf[i][j] (lines
      // 18-19).
      for (int dst = 0; dst < p; ++dst) {
        for (const auto& slot : tbuf) {
          counts[static_cast<std::size_t>(dst)] +=
              static_cast<std::int64_t>(
                  slot[static_cast<std::size_t>(dst)].size());
        }
      }
      send.data[ri].reserve(static_cast<std::size_t>(scanned));
      for (int dst = 0; dst < p; ++dst) {
        for (const auto& slot : tbuf) {
          const auto& bucket = slot[static_cast<std::size_t>(dst)];
          send.data[ri].insert(send.data[ri].end(), bucket.begin(),
                               bucket.end());
        }
      }
    } else {
      // Flat mode: two-pass counting sort straight into SendBuf (no
      // thread buffers to merge; avoids t*p transient allocations).
      for (vid_t u : fs[ri]) {
        const vid_t local_u = u - part.begin(r);
        for (vid_t v : im.local.neighbors(r, local_u)) {
          ++counts[static_cast<std::size_t>(part.owner(v))];
          ++scanned;
        }
      }
      std::vector<std::int64_t> cursor(static_cast<std::size_t>(p), 0);
      std::partial_sum(counts.begin(), counts.end() - 1,
                       cursor.begin() + 1);
      send.data[ri].resize(static_cast<std::size_t>(scanned));
      for (vid_t u : fs[ri]) {
        const vid_t local_u = u - part.begin(r);
        for (vid_t v : im.local.neighbors(r, local_u)) {
          auto& cur = cursor[static_cast<std::size_t>(part.owner(v))];
          send.data[ri][static_cast<std::size_t>(cur++)] = Candidate{v, u};
        }
      }
    }
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
    if (wire) {
      // Every received candidate's target is visited by the end of
      // this level (it either wins now or lost earlier), so the owner
      // can sieve any later re-send of it. Rank-private bitmap row —
      // safe inside for_each_rank.
      for (const Candidate& c : recv[ri]) im.sieve.mark(r, c.vertex);
    }
    for (const Candidate& c : recv[ri]) {
      if (out.level[c.vertex] == kUnreached) {
        out.level[c.vertex] = level;
        out.parent[c.vertex] = c.parent;
        // The write-time shadow mirrors every owner-side mutation
        // (rank-private slot ri — safe inside for_each_rank).
        if (shadow != nullptr) shadow->add(r, c.vertex, c.parent, level);
        fs[ri].push_back(c.vertex);
      } else if (out.level[c.vertex] == level &&
                 c.parent > out.parent[c.vertex]) {
        // Max-parent tie-break at the reach level (same rule as 2D):
        // the winner is a property of the level's candidate multiset,
        // independent of partition shape and arrival order — which is
        // what lets a replay after a shrink reproduce the fault-free
        // parents bit-for-bit.
        if (shadow != nullptr) {
          shadow->replace(r, c.vertex, out.parent[c.vertex], level,
                          c.parent, level);
        }
        out.parent[c.vertex] = c.parent;
      }
    }
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
  stats.a2a_bytes =
      im.cluster.traffic().totals(simmpi::Pattern::kAlltoallv).bytes +
      im.cluster.traffic().totals(simmpi::Pattern::kPointToPoint).bytes -
      a2a_bytes_before;
  return global_frontier;
}

}  // namespace dbfs::bfs
