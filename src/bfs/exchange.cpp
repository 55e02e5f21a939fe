#include "bfs/exchange.hpp"

#include <utility>

#include "comm/sieve.hpp"
#include "model/cost.hpp"
#include "simmpi/cluster.hpp"

namespace dbfs::bfs {

std::vector<std::vector<Candidate>> exchange_candidates(
    simmpi::Cluster& cluster, std::span<const int> group,
    simmpi::BlockExchange<Candidate> send, comm::WireFormat format,
    comm::Sieve& sieve, double load_smoothing, const char* site,
    WireTally& tally) {
  if (!comm::wire_sieves(format)) {
    // The checked wrapper verifies a per-level checksum over the
    // exchanged candidates and re-issues the exchange when the fault plan
    // corrupted the payload; without payload faults it is a plain
    // alltoallv.
    return simmpi::checked_alltoallv(cluster, group, std::move(send), site)
        .data;
  }
  const std::size_t g = group.size();
  const int t = cluster.threads_per_rank();
  auto wire = simmpi::BlockExchange<std::uint8_t>::sized(g);
  std::vector<double> codec_costs(g, 0.0);
  // Each sender sieves and encodes its own blocks in one rank phase; the
  // per-sender tallies fold in slot order after it. A block the sieve
  // empties encodes to nothing and ships no wire block.
  std::vector<WireTally> senders(g);
  cluster.for_each_rank(group, [&](std::size_t i) {
    WireTally& mine = senders[i];
    std::vector<Candidate> block;
    auto from = send.data[i].cbegin();
    for (const simmpi::Block& b : send.blocks[i]) {
      block.assign(from, from + b.count);
      from += b.count;
      mine.pre_bytes += block.size() * sizeof(Candidate);
      mine.dropped += comm::sieve_and_dedup(sieve, group[i], block,
                                            /*keep_max_parent=*/true);
      const std::size_t at = wire.data[i].size();
      comm::encode_candidates<Candidate>(block, format, wire.data[i],
                                         &mine.stats);
      if (wire.data[i].size() > at) {
        wire.blocks[i].push_back(simmpi::Block{
            b.slot, static_cast<std::int64_t>(wire.data[i].size() - at)});
      }
    }
    send.data[i].clear();
    send.data[i].shrink_to_fit();
    send.blocks[i].clear();
    send.blocks[i].shrink_to_fit();
    codec_costs[i] = model::cost_wire_codec(
        cluster.machine(), static_cast<std::size_t>(mine.stats.raw_bytes),
        static_cast<std::size_t>(mine.stats.encoded_bytes), t);
  });
  for (const WireTally& sender : senders) tally.merge(sender);
  cluster.set_compute_phase("wire-encode");
  charge_smoothed(cluster, group, codec_costs, load_smoothing);

  auto recv_wire =
      simmpi::checked_alltoallv(cluster, group, std::move(wire), site);

  std::vector<std::vector<Candidate>> recv(g);
  cluster.for_each_rank(group, [&](std::size_t j) {
    comm::decode_candidate_stream<Candidate>(
        recv_wire.data[j].data(), recv_wire.data[j].size(), recv[j]);
    codec_costs[j] = model::cost_wire_codec(
        cluster.machine(), recv[j].size() * sizeof(Candidate),
        recv_wire.data[j].size(), t);
    recv_wire.data[j].clear();
    recv_wire.data[j].shrink_to_fit();
  });
  cluster.set_compute_phase("wire-decode");
  charge_smoothed(cluster, group, codec_costs, load_smoothing);
  return recv;
}

void merge_candidates(std::span<const Candidate> received, int rank,
                      level_t level, BfsOutput& out, comm::Sieve* sieve,
                      SdcShadow* shadow, std::vector<vid_t>& next) {
  // A target first reached in this call holds kPending until every
  // candidate is seen, and only such targets take a larger parent. An
  // entry already at `level` is an at-rest flip no audit has seen yet;
  // re-parenting it would make it look consistent, let a rollback keep
  // it, and return a wrong tree.
  constexpr level_t kPending = kUnreached - 1;
  const std::size_t first = next.size();
  for (const Candidate& c : received) {
    if (sieve != nullptr) sieve->mark(rank, c.vertex);
    const auto v = static_cast<std::size_t>(c.vertex);
    if (out.level[v] == kUnreached) {
      out.level[v] = kPending;
      out.parent[v] = c.parent;
      next.push_back(c.vertex);
    } else if (out.level[v] == kPending && c.parent > out.parent[v]) {
      out.parent[v] = c.parent;
    }
  }
  for (std::size_t i = first; i < next.size(); ++i) {
    const auto v = static_cast<std::size_t>(next[i]);
    out.level[v] = level;
    if (shadow != nullptr) shadow->add(rank, next[i], out.parent[v], level);
  }
}

}  // namespace dbfs::bfs
