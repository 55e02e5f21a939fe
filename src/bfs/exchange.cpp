#include "bfs/exchange.hpp"

#include <cstdint>
#include <utility>

#include "comm/sieve.hpp"
#include "model/cost.hpp"
#include "simmpi/cluster.hpp"

namespace dbfs::bfs {

namespace {

/// Members [first, first + size) of `all`, moved out as one group's
/// exchange.
template <typename T>
simmpi::BlockExchange<T> take_group(simmpi::BlockExchange<T>& all,
                                    std::size_t first, std::size_t size) {
  auto group = simmpi::BlockExchange<T>::sized(size);
  for (std::size_t m = 0; m < size; ++m) {
    group.data[m] = std::move(all.data[first + m]);
    group.blocks[m] = std::move(all.blocks[first + m]);
  }
  return group;
}

}  // namespace

std::vector<std::vector<Candidate>> exchange_candidates(
    simmpi::Cluster& cluster, std::span<const std::span<const int>> groups,
    simmpi::BlockExchange<Candidate> send, comm::WireFormat format,
    comm::Sieve& sieve, double load_smoothing, const char* site,
    WireTally& tally, const GroupReceived& received) {
  std::vector<int> members;  // every member's rank, in member order
  for (const std::span<const int> group : groups) {
    members.insert(members.end(), group.begin(), group.end());
  }
  const std::size_t total = members.size();
  std::size_t items = 0;
  for (const auto& data : send.data) items += data.size();
  std::vector<std::vector<Candidate>> recv(total);
  std::vector<std::size_t> recv_items(total, 0);
  const auto group_items = [&](std::size_t first, std::size_t size) {
    return std::span<const std::size_t>(recv_items).subspan(first, size);
  };

  if (!comm::wire_sieves(format)) {
    // The checked wrapper verifies a per-level checksum over the
    // exchanged candidates and re-issues the exchange when the fault plan
    // corrupted the payload; without payload faults it is a plain
    // alltoallv.
    std::size_t first = 0;
    for (std::size_t k = 0; k < groups.size(); ++k) {
      const std::size_t g = groups[k].size();
      auto got = simmpi::checked_alltoallv(
          cluster, groups[k], take_group(send, first, g), site);
      for (std::size_t m = 0; m < g; ++m) {
        recv_items[first + m] = got.data[m].size();
        recv[first + m] = std::move(got.data[m]);
      }
      if (received) received(k, group_items(first, g));
      first += g;
    }
    return recv;
  }
  const int t = cluster.threads_per_rank();
  auto wire = simmpi::BlockExchange<std::uint8_t>::sized(total);
  // shipped[i]: the candidates behind sender i's wire blocks, as
  // (destination slot, candidates).
  std::vector<std::vector<simmpi::Block>> shipped(total);
  std::vector<double> codec_costs(total, 0.0);
  // Each sender sieves and encodes its own blocks in one rank phase; the
  // per-sender tallies fold in member order after it. A block the sieve
  // empties encodes to nothing and ships no wire block.
  std::vector<WireTally> senders(total);
  cluster.for_each_rank(
      members,
      [&](std::size_t i) {
        WireTally& mine = senders[i];
        std::vector<Candidate> block;
        auto from = send.data[i].cbegin();
        for (const simmpi::Block& b : send.blocks[i]) {
          block.assign(from, from + b.count);
          from += b.count;
          mine.pre_bytes += block.size() * sizeof(Candidate);
          mine.dropped += comm::sieve_and_dedup(sieve, members[i], block,
                                                /*keep_max_parent=*/true);
          const std::size_t at = wire.data[i].size();
          comm::encode_candidates<Candidate>(block, format, wire.data[i],
                                             &mine.stats);
          if (wire.data[i].size() > at) {
            wire.blocks[i].push_back(simmpi::Block{
                b.slot, static_cast<std::int64_t>(wire.data[i].size() - at)});
            shipped[i].push_back(simmpi::Block{
                b.slot, static_cast<std::int64_t>(block.size())});
          }
        }
        send.data[i].clear();
        send.data[i].shrink_to_fit();
        send.blocks[i].clear();
        send.blocks[i].shrink_to_fit();
        codec_costs[i] = model::cost_wire_codec(
            cluster.machine(), static_cast<std::size_t>(mine.stats.raw_bytes),
            static_cast<std::size_t>(mine.stats.encoded_bytes), t);
      },
      items);
  for (const WireTally& sender : senders) tally.merge(sender);

  // Group by group: charge the encodes, exchange, charge the decodes. The
  // received bytes wait in `streams` so that every receiver decodes in
  // one phase after the last group.
  std::vector<std::vector<std::uint8_t>> streams(total);
  std::size_t first = 0;
  for (std::size_t k = 0; k < groups.size(); ++k) {
    const std::span<const int> group = groups[k];
    const std::size_t g = group.size();
    const std::span<double> costs =
        std::span<double>(codec_costs).subspan(first, g);
    cluster.set_compute_phase("wire-encode");
    charge_smoothed(cluster, group, costs, load_smoothing);
    for (std::size_t i = first; i < first + g; ++i) {
      for (const simmpi::Block& b : shipped[i]) {
        recv_items[first + static_cast<std::size_t>(b.slot)] +=
            static_cast<std::size_t>(b.count);
      }
    }
    auto got = simmpi::checked_alltoallv(cluster, group,
                                         take_group(wire, first, g), site);
    for (std::size_t m = 0; m < g; ++m) {
      costs[m] = model::cost_wire_codec(
          cluster.machine(), recv_items[first + m] * sizeof(Candidate),
          got.data[m].size(), t);
      streams[first + m] = std::move(got.data[m]);
    }
    cluster.set_compute_phase("wire-decode");
    charge_smoothed(cluster, group, costs, load_smoothing);
    if (received) received(k, group_items(first, g));
    first += g;
  }

  cluster.for_each_rank(
      members,
      [&](std::size_t j) {
        comm::decode_candidate_stream<Candidate>(
            streams[j].data(), streams[j].size(), recv[j]);
        streams[j].clear();
        streams[j].shrink_to_fit();
      },
      items);
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
