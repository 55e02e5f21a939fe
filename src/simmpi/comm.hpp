// Simulated MPI collectives: they actually move the data between the
// per-rank buffers AND (a) price the transfer with the machine model,
// (b) synchronize the participants' virtual clocks (waiting is charged to
// communication time, as in the paper's measurements), and (c) meter the
// traffic.
//
// Group-scoped calls mirror the paper's usage: the 1D code calls
// alltoallv over the world; the 2D code calls allgatherv over processor
// columns (expand), alltoallv over processor rows (fold), and a pairwise
// transpose exchange (TransposeVector).
//
// All functions take send buffers by value so payloads can be moved, not
// copied — a simulated "zero copy" that keeps big runs within memory.
// Fault injection (simmpi/fault.hpp): every collective routes its priced
// transfer time through faulted_cost(), which scales by the group's worst
// degraded NIC and injects transient failures (full-cost re-issue after a
// capped exponential backoff, all charged as communication time). The
// data-carrying collectives additionally corrupt payloads when the plan
// says so; the checked_* wrappers detect that with order-independent
// checksums and re-issue the exchange, so callers either receive intact
// data or a structured FaultError — never silent corruption. A zero plan
// takes none of these paths.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "model/cost.hpp"
#include "obs/comm_atlas.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/process_grid.hpp"
#include "util/prng.hpp"

namespace dbfs::simmpi {

/// Synchronize `group` on a priced collective — exactly
/// `cluster.clocks().collective(group, cost)` — and, when observers are
/// attached (see obs/), record per-rank barrier-wait and transfer
/// sub-spans (tagged with `site` and the pattern name) plus the wait-time
/// and message-size distributions. With no observers this is a single
/// branch on top of the clock synchronization, and it never alters the
/// clocks, so observed and unobserved runs stay bit-identical.
inline void sync_collective(Cluster& cluster, std::span<const int> group,
                            double cost, const char* site, Pattern pattern,
                            std::uint64_t network_bytes) {
  // Fail-stop faults surface here, at the barrier every collective
  // implies: a dead group member means the survivors detect and revoke
  // (RankFailedError) before any data would move. Checking the full group
  // — not faulted_cost's root-only group — is what catches a dead leaf in
  // rooted collectives and transpose pairs.
  if (cluster.kills_armed()) cluster.check_fail_stop(group, site);
  obs::Tracer* tracer = cluster.tracer();
  CollectiveMetrics* metrics = cluster.metrics() != nullptr
                                   ? &cluster.collective_metrics(pattern)
                                   : nullptr;
  if (tracer != nullptr || metrics != nullptr) {
    const model::VirtualClocks& clocks = cluster.clocks();
    const char* pattern_name = to_string(pattern);
    double start = 0.0;
    for (int r : group) start = std::max(start, clocks.now(r));
    const double end = start + cost;
    for (int r : group) {
      const double arrive = clocks.now(r);
      if (tracer != nullptr) {
        if (start > arrive) {
          tracer->record(r, obs::SpanKind::kWait, site, pattern_name,
                         arrive, start);
        }
        tracer->record(r, obs::SpanKind::kTransfer, site, pattern_name,
                       start, end);
      }
      if (metrics != nullptr) metrics->wait_seconds->observe(start - arrive);
    }
    if (metrics != nullptr) {
      ++*metrics->calls;
      *metrics->bytes += static_cast<std::int64_t>(network_bytes);
      // Cumulative participants × transfer seconds (the TrafficMeter's
      // rank_seconds): fractional, so a gauge used additively rather than
      // an integer counter.
      *metrics->rank_seconds += cost * static_cast<double>(group.size());
      // Distribution of per-call sizes; named apart from the
      // comm.bytes.<Pattern> counter so the OpenMetrics export keeps one
      // family per name.
      metrics->call_bytes->observe(static_cast<double>(network_bytes));
      metrics->transfer_seconds->observe(cost);
    }
  }
  cluster.clocks().collective(group, cost);
  // Flight-recorder hook, after the clock update so the timestamp is the
  // simulated wall clock (max_now, an O(1) running maximum, is
  // non-decreasing across a run even for per-pair transpose exchanges,
  // whose own end times are not).
  if (obs::FlightRecorder* flight = cluster.flight()) {
    flight
        ->append("collective", site, cluster.clocks().max_now(), -1,
                 cluster.current_level())
        .set("cost_seconds", cost)
        .set("bytes", static_cast<double>(network_bytes))
        .set("ranks", static_cast<double>(group.size()));
  }
}

/// Observer trail of a fault repaired inside a collective on `group`: a
/// tracer instant `offset` seconds past the moment the slowest member
/// arrives, lasting `seconds`, and one count of `counter` in the metrics.
inline void note_repair(Cluster& cluster, std::span<const int> group,
                        const char* name, const char* counter,
                        double offset = 0.0, double seconds = 0.0) {
  if (!cluster.observing()) return;
  double at = 0.0;
  for (int r : group) at = std::max(at, cluster.clocks().now(r));
  if (obs::Tracer* tr = cluster.tracer()) {
    tr->instant(group.empty() ? 0 : group.front(), name, at + offset,
                seconds);
  }
  if (obs::MetricsRegistry* m = cluster.metrics()) ++m->counter(counter);
}

/// Price one collective under the cluster's fault plan: scale `base_cost`
/// by the worst NIC degradation in `group`, then inject deterministic
/// transient failures — each failed issue costs the full scaled transfer
/// plus a capped exponential backoff before the re-issue. Returns the
/// total seconds to charge; throws FaultError once the retry budget is
/// exhausted. A disabled plan returns `base_cost` untouched.
inline double faulted_cost(Cluster& cluster, std::span<const int> group,
                           double base_cost, const char* site) {
  if (!cluster.faults_enabled()) return base_cost;
  const FaultPlan& plan = cluster.faults();
  const double cost = base_cost * cluster.fault_nic_slowdown(group);
  if (plan.collective_fail_rate <= 0.0) return cost;
  FaultCounters& counters = cluster.fault_counters();
  double total = 0.0;
  int attempt = 0;
  while (plan.collective_fails(cluster.next_fault_event())) {
    ++counters.collective_failures;
    if (attempt >= plan.max_collective_retries) {
      throw FaultError(site, "collective-failure", attempt + 1, -1,
                       cluster.current_level());
    }
    const double pause = plan.backoff_seconds(attempt);
    counters.backoff_seconds += pause;
    counters.reissue_seconds += cost;
    // The failed issue + backoff lands inside the upcoming collective
    // window, which starts when the slowest participant arrives.
    note_repair(cluster, group, "collective-failure",
                "fault.collective_failures", total, cost + pause);
    if (obs::MetricsRegistry* m = cluster.metrics()) {
      m->histogram("fault.backoff_seconds").observe(pause);
    }
    total += cost + pause;
    ++attempt;
  }
  counters.collective_retries += attempt;
  return total + cost;
}

/// Rooted variant: broadcast and gather trees are driven by the root's
/// link, so the root's degradation scales the whole operation (a degraded
/// leaf only delays itself, which the clock synchronization already
/// charges as waiting).
inline double faulted_cost_rooted(Cluster& cluster, int root_rank,
                                  double base_cost, const char* site) {
  if (!cluster.faults_enabled()) return base_cost;
  const int root[1] = {root_rank};
  return faulted_cost(cluster, std::span<const int>(root, 1), base_cost,
                      site);
}

/// The one epilogue of every metered collective, run on faulted_cost's
/// price: synchronize the group (sync_collective), record the transfer in
/// the TrafficMeter, and, with an atlas attached, hand `attribute` the
/// (pattern, site, level) slice to write the per-pair bytes into — so the
/// atlas records exactly what the meter records. The unmetered restore
/// transfers (recover-restore, sdc-rollback) call sync_collective alone.
template <typename Attribute>
void meter_collective(Cluster& cluster, std::span<const int> group,
                      double cost, const char* site, Pattern pattern,
                      std::uint64_t network_bytes, Attribute&& attribute) {
  sync_collective(cluster, group, cost, site, pattern, network_bytes);
  cluster.traffic().record(pattern, network_bytes, cost,
                           static_cast<int>(group.size()));
  if (obs::CommAtlas* atlas = cluster.atlas()) {
    attribute(atlas->slice(static_cast<int>(pattern), to_string(pattern),
                           site, cluster.current_level()));
  }
}

/// Order-independent checksum of a payload: the wrapping sum of per-item
/// hashes is invariant under any re-partitioning of the same multiset of
/// items across ranks, so senders and receivers can compare totals with
/// one allreduce. A bit-flip, drop, or duplicate each shifts the sum.
template <typename T>
std::uint64_t payload_checksum(const std::vector<T>& items) {
  static_assert(std::is_trivially_copyable_v<T>,
                "checksums hash raw item bytes");
  std::uint64_t sum = 0;
  for (const T& item : items) {
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the item bytes
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &item, sizeof(T));
    for (unsigned char b : bytes) {
      h = (h ^ b) * 0x100000001b3ULL;
    }
    sum += util::mix64(h);
  }
  return sum;
}

namespace detail {

/// Mangle one item in `buffer` according to `kind`, using `shape` to pick
/// the item (and bit, for flips). The caller has already decided *that*
/// corruption happens; this decides *what*.
template <typename T>
void corrupt_buffer(std::vector<T>& buffer, CorruptKind kind,
                    std::uint64_t shape) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (buffer.empty()) return;
  const std::size_t item = (shape >> 16) % buffer.size();
  switch (kind) {
    case CorruptKind::kBitFlip: {
      unsigned char bytes[sizeof(T)];
      std::memcpy(bytes, &buffer[item], sizeof(T));
      bytes[(shape >> 40) % sizeof(T)] ^=
          static_cast<unsigned char>(1u << ((shape >> 50) % 8));
      std::memcpy(&buffer[item], bytes, sizeof(T));
      break;
    }
    case CorruptKind::kDrop:
      buffer.erase(buffer.begin() + static_cast<std::ptrdiff_t>(item));
      break;
    case CorruptKind::kDuplicate:
      buffer.insert(buffer.begin() + static_cast<std::ptrdiff_t>(item),
                    buffer[item]);
      break;
    default:
      break;
  }
}

/// Maybe corrupt one item across a set of received per-rank buffers.
template <typename T>
void maybe_corrupt(Cluster& cluster, std::vector<std::vector<T>>& buffers) {
  const FaultPlan& plan = cluster.faults();
  const CorruptKind kind = plan.corruption_at(cluster.next_fault_event());
  if (kind == CorruptKind::kNone) return;
  std::vector<std::size_t> nonempty;
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    if (!buffers[i].empty()) nonempty.push_back(i);
  }
  if (nonempty.empty()) return;
  const std::uint64_t shape = plan.shape_draw(cluster.next_fault_event());
  corrupt_buffer(buffers[nonempty[shape % nonempty.size()]], kind, shape);
  ++cluster.fault_counters().payload_corruptions;
}

template <typename T>
void maybe_corrupt_one(Cluster& cluster, std::vector<T>& buffer) {
  const FaultPlan& plan = cluster.faults();
  const CorruptKind kind = plan.corruption_at(cluster.next_fault_event());
  if (kind == CorruptKind::kNone || buffer.empty()) return;
  corrupt_buffer(buffer, kind, plan.shape_draw(cluster.next_fault_event()));
  ++cluster.fault_counters().payload_corruptions;
}

}  // namespace detail

/// One non-empty block of an all-to-all: `count` items bound for group
/// slot `slot` (in a send) or arrived from it (in a receive).
struct Block {
  int slot = 0;
  std::int64_t count = 0;
};

/// The all-to-all's one form. `data[gi]` holds group slot gi's items
/// block by block, and `blocks[gi]` lists its non-empty blocks in
/// ascending slot order, so an exchange costs O(items + blocks + g)
/// however large the group is. A send's blocks name destinations; a
/// receive's name sources.
template <typename T>
struct BlockExchange {
  std::vector<std::vector<T>> data;
  std::vector<std::vector<Block>> blocks;

  static BlockExchange sized(std::size_t group_size) {
    BlockExchange be;
    be.data.resize(group_size);
    be.blocks.resize(group_size);
    return be;
  }
};

/// Fill one sender's `data` and `blocks` by a stable counting sort over
/// a group of `group_size` slots. `emit(put)` calls put(slot, item) for
/// every item, in the same order on both of its calls: the first counts,
/// the second places. Items keep their emit order within a destination,
/// and destinations ascend. The per-slot counters are a per-thread array
/// cleared only where touched, so a sender pays O(items + blocks log
/// blocks), not O(group_size).
template <typename T, typename Emit>
void pack_blocks(std::size_t group_size, const Emit& emit,
                 std::vector<T>& data, std::vector<Block>& blocks) {
  thread_local std::vector<std::int64_t> zeroed;
  if (zeroed.size() < group_size) zeroed.resize(group_size, 0);
  std::int64_t* const at = zeroed.data();
  blocks.clear();
  std::size_t items = 0;
  emit([&](std::size_t slot, const T&) {
    if (at[slot]++ == 0) blocks.push_back(Block{static_cast<int>(slot), 0});
    ++items;
  });
  std::sort(blocks.begin(), blocks.end(),
            [](const Block& a, const Block& b) { return a.slot < b.slot; });
  std::int64_t offset = 0;
  for (Block& b : blocks) {
    std::int64_t& cursor = at[static_cast<std::size_t>(b.slot)];
    b.count = cursor;
    cursor = offset;
    offset += b.count;
  }
  data.resize(items);
  emit([&](std::size_t slot, const T& item) {
    data[static_cast<std::size_t>(at[slot]++)] = item;
  });
  for (const Block& b : blocks) at[static_cast<std::size_t>(b.slot)] = 0;
}

/// Move every sender's blocks to their destinations over a group of
/// `group_size` slots: each receiver gets one block per sender that
/// addressed it, in ascending source order. The senders' block lists stay
/// (pricing and atlas attribution read them); their data is freed.
/// Throws std::invalid_argument unless every sender's blocks are
/// non-empty, ascending, inside the group and cover its data exactly.
template <typename T>
BlockExchange<T> route(BlockExchange<T>& send, std::size_t group_size) {
  const std::size_t g = group_size;
  if (send.data.size() != g || send.blocks.size() != g) {
    throw std::invalid_argument("route: exchange not sized to the group");
  }
  for (std::size_t i = 0; i < g; ++i) {
    std::size_t covered = 0;
    int prev = -1;
    for (const Block& b : send.blocks[i]) {
      if (b.slot <= prev || b.slot >= static_cast<int>(g) || b.count <= 0) {
        throw std::invalid_argument(
            "route: blocks must be non-empty, in range and ascending");
      }
      prev = b.slot;
      covered += static_cast<std::size_t>(b.count);
    }
    if (covered != send.data[i].size()) {
      throw std::invalid_argument("route: blocks do not cover the data");
    }
  }
  // Receivers grow while the senders are freed one by one: reserving
  // every receiver up front would hold the whole exchange twice at once.
  BlockExchange<T> recv = BlockExchange<T>::sized(g);
  for (std::size_t i = 0; i < g; ++i) {
    auto from = send.data[i].cbegin();
    for (const Block& b : send.blocks[i]) {
      auto& to = recv.data[static_cast<std::size_t>(b.slot)];
      to.insert(to.end(), from, from + b.count);
      recv.blocks[static_cast<std::size_t>(b.slot)].push_back(
          Block{static_cast<int>(i), b.count});
      from += b.count;
    }
    send.data[i].clear();
    send.data[i].shrink_to_fit();
  }
  return recv;
}

/// All-to-all over `group` from each sender's non-empty blocks: routes,
/// prices, meters, attributes to the atlas and, under a payload-fault
/// plan, corrupts, all in O(items + blocks + g). Returns what each member
/// received, in source order. Cost: g·αN + (mean per-rank bytes)·
/// βN,a2a(g) per §5.1.
template <typename T>
BlockExchange<T> alltoallv(Cluster& cluster, std::span<const int> group,
                           BlockExchange<T> send,
                           const char* site = "alltoallv") {
  const std::size_t g = group.size();

  // Byte accounting. The transfer is priced on the *mean* per-rank
  // volume, exactly as §5.1's model does (each rank moves ~m/p words):
  // at the paper's per-rank volumes the max/mean spread is small, whereas
  // a scaled-down instance has hub-dominated per-level skew that would
  // overstate the bottleneck. Per-rank skew still shows up as waiting
  // time through the compute-side clocks.
  std::uint64_t total_items = 0;
  for (std::size_t i = 0; i < send.blocks.size(); ++i) {
    for (const Block& b : send.blocks[i]) {
      // Self-sends stay in memory under MPI too; do not meter them.
      if (static_cast<std::size_t>(b.slot) != i) {
        total_items += static_cast<std::uint64_t>(b.count);
      }
    }
  }
  const std::uint64_t bottleneck = total_items / g;

  BlockExchange<T> recv = route(send, g);

  // Per-rank volume scaled by the node-sharing factor: a hybrid rank
  // owns t cores' bandwidth, while many flat ranks contend for one NIC.
  const double cost = faulted_cost(
      cluster, group,
      model::cost_alltoallv(
          cluster.machine(), static_cast<int>(g),
          static_cast<std::size_t>(
              static_cast<double>(bottleneck * sizeof(T)) *
              cluster.nic_factor())),
      site);
  meter_collective(
      cluster, group, cost, site, Pattern::kAlltoallv,
      total_items * sizeof(T), [&](obs::CommAtlas::Slice& sl) {
        for (std::size_t i = 0; i < g; ++i) {
          for (const Block& b : send.blocks[i]) {
            const auto j = static_cast<std::size_t>(b.slot);
            const auto bytes = static_cast<std::uint64_t>(b.count) * sizeof(T);
            if (i == j) {
              // Self-addressed block: unmetered, but the 1D wire codec
              // counts its encoded bytes, so the local ledger keeps the
              // wire.bytes_after reconciliation exact.
              sl.add_local(group[i], bytes);
            } else {
              sl.add(group[i], group[j], bytes);
            }
          }
        }
      });
  if (cluster.faults_enabled() && cluster.faults().payload_faults()) {
    detail::maybe_corrupt(cluster, recv.data);
  }
  return recv;
}

/// Dense builder for small groups: `counts[gi][gj]` of the items in
/// `data[gi]` are bound for group[gj], in destination order. It is only a
/// builder: alltoallv and checked_alltoallv turn it into blocks on entry
/// and return the receive with dense per-source `counts`.
template <typename T>
struct FlatExchange {
  std::vector<std::vector<T>> data;
  std::vector<std::vector<std::int64_t>> counts;

  static FlatExchange sized(std::size_t group_size) {
    FlatExchange fe;
    fe.data.resize(group_size);
    fe.counts.assign(group_size, std::vector<std::int64_t>(group_size, 0));
    return fe;
  }
};

namespace detail {

template <typename T>
BlockExchange<T> to_blocks(FlatExchange<T> dense) {
  BlockExchange<T> sparse;
  sparse.data = std::move(dense.data);
  sparse.blocks.resize(dense.counts.size());
  for (std::size_t i = 0; i < dense.counts.size(); ++i) {
    for (std::size_t j = 0; j < dense.counts[i].size(); ++j) {
      if (dense.counts[i][j] != 0) {
        sparse.blocks[i].push_back(
            Block{static_cast<int>(j), dense.counts[i][j]});
      }
    }
  }
  return sparse;
}

template <typename T>
FlatExchange<T> to_dense(BlockExchange<T> sparse) {
  FlatExchange<T> dense = FlatExchange<T>::sized(sparse.data.size());
  for (std::size_t j = 0; j < sparse.blocks.size(); ++j) {
    for (const Block& b : sparse.blocks[j]) {
      dense.counts[j][static_cast<std::size_t>(b.slot)] = b.count;
    }
  }
  dense.data = std::move(sparse.data);
  return dense;
}

}  // namespace detail

/// alltoallv from the dense builder; `recv.counts[gj][gi]` counts what
/// group[gj] received from group[gi].
template <typename T>
FlatExchange<T> alltoallv(Cluster& cluster, std::span<const int> group,
                          FlatExchange<T> send,
                          const char* site = "alltoallv") {
  return detail::to_dense(
      alltoallv(cluster, group, detail::to_blocks(std::move(send)), site));
}

/// Allgather over `group`: every rank ends with the concatenation of all
/// pieces in group order. The concatenation is returned once; simulated
/// ranks read it as an immutable shared view (semantically each holds a
/// copy). Cost: g·αN + result_bytes·βN,ag(g) per §5.2.
template <typename T>
std::vector<T> allgatherv(Cluster& cluster, std::span<const int> group,
                          std::vector<std::vector<T>> pieces,
                          model::AllgatherAlgo algo =
                              model::AllgatherAlgo::kRing,
                          const char* site = "allgatherv") {
  std::vector<T> result;
  std::size_t total = 0;
  for (const auto& piece : pieces) total += piece.size();
  result.reserve(total);
  std::uint64_t network_items = 0;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    // Each rank's own piece does not cross the network; the other g-1
    // copies of it do.
    network_items +=
        static_cast<std::uint64_t>(pieces[i].size()) * (group.size() - 1);
    result.insert(result.end(), pieces[i].begin(), pieces[i].end());
  }
  const double cost = faulted_cost(
      cluster, group,
      model::cost_allgatherv(
          cluster.machine(), static_cast<int>(group.size()),
          static_cast<std::size_t>(static_cast<double>(total * sizeof(T)) *
                                   cluster.nic_factor()),
          algo),
      site);
  meter_collective(
      cluster, group, cost, site, Pattern::kAllgatherv,
      network_items * sizeof(T), [&](obs::CommAtlas::Slice& sl) {
        for (std::size_t i = 0; i < pieces.size(); ++i) {
          const auto bytes =
              static_cast<std::uint64_t>(pieces[i].size()) * sizeof(T);
          if (bytes == 0) continue;
          for (std::size_t k = 0; k < group.size(); ++k) {
            if (k != i) sl.add(group[i], group[k], bytes);
          }
        }
      });
  if (cluster.faults_enabled() && cluster.faults().payload_faults()) {
    detail::maybe_corrupt_one(cluster, result);
  }
  return result;
}

/// Allreduce of one value per group slot; returns the reduction.
template <typename T, typename Op>
T allreduce(Cluster& cluster, std::span<const int> group,
            std::span<const T> contributions, T init, Op op,
            const char* site = "allreduce") {
  T acc = init;
  for (const T& v : contributions) acc = op(acc, v);
  const double cost = faulted_cost(
      cluster, group,
      model::cost_allreduce(cluster.machine(),
                            static_cast<int>(group.size()), sizeof(T)),
      site);
  const std::size_t g = group.size();
  meter_collective(cluster, group, cost, site, Pattern::kAllreduce,
                   static_cast<std::uint64_t>(g) * sizeof(T),
                   [&](obs::CommAtlas::Slice& sl) {
                     // Ring attribution: each member forwards one element
                     // to its neighbor, matching the meter's g·sizeof(T).
                     // A single-rank group degenerates to a metered
                     // diagonal entry.
                     for (std::size_t k = 0; k < g; ++k) {
                       sl.add(group[k], group[(k + 1) % g], sizeof(T));
                     }
                   });
  return acc;
}

template <typename T>
T allreduce_sum(Cluster& cluster, std::span<const int> group,
                std::span<const T> contributions,
                const char* site = "allreduce") {
  return allreduce(
      cluster, group, contributions, T{}, [](T a, T b) { return a + b; },
      site);
}

/// TransposeVector (paper §3.2): on a square grid, P(i,j) and P(j,i)
/// swap payloads pairwise. pieces[rank] -> returned[partner(rank)].
template <typename T>
std::vector<std::vector<T>> transpose_exchange(
    Cluster& cluster, const ProcessGrid& grid,
    std::vector<std::vector<T>> pieces, const char* site = "transpose") {
  std::vector<std::vector<T>> out(pieces.size());
  for (int rank = 0; rank < grid.ranks(); ++rank) {
    const int partner = grid.transpose_partner(rank);
    out[static_cast<std::size_t>(partner)] =
        std::move(pieces[static_cast<std::size_t>(rank)]);
    if (partner < rank) continue;  // price each pair once
    const std::size_t bytes =
        std::max(out[static_cast<std::size_t>(partner)].size(),
                 pieces[static_cast<std::size_t>(partner)].size()) *
        sizeof(T);
    if (partner == rank) continue;  // diagonal: stays local, free
    const int pair[2] = {rank, partner};
    const double cost = faulted_cost(
        cluster, pair,
        model::cost_p2p(cluster.machine(),
                        static_cast<std::size_t>(
                            static_cast<double>(bytes) *
                            cluster.nic_factor())),
        site);
    // Metered as bytes × 2 (the pair's max volume, both directions).
    meter_collective(cluster, pair, cost, site, Pattern::kTranspose,
                     static_cast<std::uint64_t>(bytes) * 2,
                     [&](obs::CommAtlas::Slice& sl) {
                       sl.add(rank, partner, bytes);
                       sl.add(partner, rank, bytes);
                     });
  }
  return out;
}

/// Rooted gather: pieces move to group[root_slot]; returns concatenation
/// in group order. Any serial post-processing the root performs on the
/// gathered data should be charged as compute on the root *after* this
/// call — the other ranks then accrue the idle time at the next
/// collective, which is exactly the Fig 4 imbalance mechanism.
template <typename T>
std::vector<T> gatherv(Cluster& cluster, std::span<const int> group,
                       std::size_t root_slot,
                       std::vector<std::vector<T>> pieces,
                       const char* site = "gatherv") {
  if (root_slot >= group.size()) {
    throw std::out_of_range("gatherv: root_slot outside group");
  }
  std::vector<T> result;
  std::uint64_t network_items = 0;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i != root_slot) network_items += pieces[i].size();
    result.insert(result.end(), pieces[i].begin(), pieces[i].end());
  }
  // The root's inbound link carries every piece, so its degradation (not
  // the group's worst) scales the whole gather.
  const double transfer = faulted_cost_rooted(
      cluster, group[root_slot],
      model::cost_gatherv(cluster.machine(),
                          static_cast<int>(group.size()),
                          static_cast<std::size_t>(
                              static_cast<double>(network_items * sizeof(T)) *
                              cluster.nic_factor())),
      site);
  meter_collective(
      cluster, group, transfer, site, Pattern::kGatherv,
      network_items * sizeof(T), [&](obs::CommAtlas::Slice& sl) {
        for (std::size_t i = 0; i < pieces.size(); ++i) {
          const auto bytes =
              static_cast<std::uint64_t>(pieces[i].size()) * sizeof(T);
          if (i != root_slot && bytes > 0) {
            sl.add(group[i], group[root_slot], bytes);
          }
        }
      });
  return result;
}

/// Rooted broadcast of `payload` from group[root_slot] to the group.
/// Returns the payload (shared immutable view for all simulated ranks).
/// The root identity matters: its NIC drives every stage of the broadcast
/// tree, so a degraded root slows the whole operation.
template <typename T>
std::vector<T> broadcast(Cluster& cluster, std::span<const int> group,
                         std::size_t root_slot, std::vector<T> payload,
                         const char* site = "broadcast") {
  if (root_slot >= group.size()) {
    throw std::out_of_range("broadcast: root_slot outside group");
  }
  const std::size_t bytes = payload.size() * sizeof(T);
  const double cost = faulted_cost_rooted(
      cluster, group[root_slot],
      model::cost_broadcast(cluster.machine(),
                            static_cast<int>(group.size()),
                            static_cast<std::size_t>(
                                static_cast<double>(bytes) *
                                cluster.nic_factor())),
      site);
  meter_collective(
      cluster, group, cost, site, Pattern::kBroadcast,
      static_cast<std::uint64_t>(bytes) * (group.size() - 1),
      [&](obs::CommAtlas::Slice& sl) {
        if (bytes == 0) return;
        for (std::size_t k = 0; k < group.size(); ++k) {
          if (k != root_slot) sl.add(group[root_slot], group[k], bytes);
        }
      });
  return payload;
}

/// Checksum-verified alltoallv: when the fault plan can corrupt payloads,
/// compare the wrapping sum of per-item hashes before and after the
/// exchange (the comparison itself is one priced allreduce — the control
/// round a real implementation would pay), and re-issue the whole
/// exchange on mismatch. Exhausting the retry budget raises FaultError:
/// corrupted data never reaches the caller. Without payload faults this
/// is exactly alltoallv.
template <typename T>
BlockExchange<T> checked_alltoallv(Cluster& cluster,
                                   std::span<const int> group,
                                   BlockExchange<T> send, const char* site) {
  if (!cluster.faults_enabled() || !cluster.faults().payload_faults()) {
    return alltoallv(cluster, group, std::move(send), site);
  }
  const FaultPlan& plan = cluster.faults();
  FaultCounters& counters = cluster.fault_counters();
  std::vector<std::uint64_t> sent(group.size(), 0);
  for (std::size_t i = 0; i < group.size(); ++i) {
    sent[i] = payload_checksum(send.data[i]);
  }
  const BlockExchange<T> backup = send;
  for (int attempt = 0; attempt <= plan.max_payload_retries; ++attempt) {
    BlockExchange<T> recv =
        alltoallv(cluster, group,
                  attempt == 0 ? std::move(send) : BlockExchange<T>(backup),
                  site);
    std::vector<std::uint64_t> delta(group.size(), 0);
    for (std::size_t i = 0; i < group.size(); ++i) {
      delta[i] = sent[i] - payload_checksum(recv.data[i]);
    }
    ++counters.checksum_checks;
    if (allreduce_sum<std::uint64_t>(cluster, group, delta, "checksum") ==
        0) {
      return recv;
    }
    ++counters.payload_retries;
    note_repair(cluster, group, "checksum-retry", "fault.checksum_retries");
  }
  throw FaultError(site, "payload-corruption",
                   plan.max_payload_retries + 1, -1,
                   cluster.current_level());
}

/// checked_alltoallv from the dense builder (see alltoallv above).
template <typename T>
FlatExchange<T> checked_alltoallv(Cluster& cluster,
                                  std::span<const int> group,
                                  FlatExchange<T> send, const char* site) {
  return detail::to_dense(checked_alltoallv(
      cluster, group, detail::to_blocks(std::move(send)), site));
}

/// Checksum-verified allgatherv (see checked_alltoallv). The expected
/// total is agreed via one priced allreduce of the per-piece checksums,
/// then compared against the gathered result.
template <typename T>
std::vector<T> checked_allgatherv(
    Cluster& cluster, std::span<const int> group,
    std::vector<std::vector<T>> pieces, const char* site,
    model::AllgatherAlgo algo = model::AllgatherAlgo::kRing) {
  if (!cluster.faults_enabled() || !cluster.faults().payload_faults()) {
    return allgatherv(cluster, group, std::move(pieces), algo, site);
  }
  const FaultPlan& plan = cluster.faults();
  FaultCounters& counters = cluster.fault_counters();
  std::vector<std::uint64_t> piece_sums(pieces.size(), 0);
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    piece_sums[i] = payload_checksum(pieces[i]);
  }
  const std::vector<std::vector<T>> backup = pieces;
  for (int attempt = 0; attempt <= plan.max_payload_retries; ++attempt) {
    std::vector<T> result = allgatherv(
        cluster, group,
        attempt == 0 ? std::move(pieces)
                     : std::vector<std::vector<T>>(backup),
        algo, site);
    ++counters.checksum_checks;
    const std::uint64_t expected =
        allreduce_sum<std::uint64_t>(cluster, group, piece_sums, "checksum");
    if (payload_checksum(result) == expected) return result;
    ++counters.payload_retries;
    note_repair(cluster, group, "checksum-retry", "fault.checksum_retries");
  }
  throw FaultError(site, "payload-corruption",
                   plan.max_payload_retries + 1, -1,
                   cluster.current_level());
}

}  // namespace dbfs::simmpi
