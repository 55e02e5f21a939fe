// Property tests for the simulated collectives: whatever a fault plan
// does to *time*, the data movement itself must conserve items and counts
// — send totals equal recv totals, per-pair counts are symmetric, and the
// order-independent checksum of the moved multiset is unchanged. Only
// payload corruption may break these, and then the checked_* wrappers
// must catch it.
#include "simmpi/comm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "obs/comm_atlas.hpp"
#include "obs/observers.hpp"
#include "util/prng.hpp"

namespace dbfs::simmpi {
namespace {

std::vector<int> world(int ranks) {
  std::vector<int> w(static_cast<std::size_t>(ranks));
  std::iota(w.begin(), w.end(), 0);
  return w;
}

/// Random exchange: every (src,dst) pair carries 0..6 random items.
FlatExchange<std::int64_t> random_exchange(int ranks,
                                           util::Xoshiro256& rng) {
  auto send = FlatExchange<std::int64_t>::sized(
      static_cast<std::size_t>(ranks));
  for (int i = 0; i < ranks; ++i) {
    for (int j = 0; j < ranks; ++j) {
      const auto count = rng.next_below(7);
      send.counts[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          static_cast<std::int64_t>(count);
      for (std::uint64_t k = 0; k < count; ++k) {
        send.data[static_cast<std::size_t>(i)].push_back(
            static_cast<std::int64_t>(rng()));
      }
    }
  }
  return send;
}

std::vector<std::vector<std::int64_t>> random_pieces(int ranks,
                                                     util::Xoshiro256& rng) {
  std::vector<std::vector<std::int64_t>> pieces(
      static_cast<std::size_t>(ranks));
  for (auto& piece : pieces) {
    const auto count = rng.next_below(9);
    for (std::uint64_t k = 0; k < count; ++k) {
      piece.push_back(static_cast<std::int64_t>(rng()));
    }
  }
  return pieces;
}

std::uint64_t exchange_checksum(const FlatExchange<std::int64_t>& fe) {
  std::uint64_t sum = 0;
  for (const auto& buffer : fe.data) sum += payload_checksum(buffer);
  return sum;
}

std::int64_t exchange_items(const FlatExchange<std::int64_t>& fe) {
  std::int64_t total = 0;
  for (const auto& buffer : fe.data) {
    total += static_cast<std::int64_t>(buffer.size());
  }
  return total;
}

/// A time-only fault plan: stragglers and transient failures but no
/// payload corruption, so data invariants must hold exactly.
FaultPlan time_faults(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.collective_fail_rate = 0.25;
  plan.compute_stragglers = {{0, 2.0}};
  plan.nic_stragglers = {{1, 3.0}};
  return plan;
}

class CommProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CommProperties, AlltoallvConservesItemsAndCounts) {
  for (const bool faulted : {false, true}) {
    util::Xoshiro256 rng{GetParam()};
    const int ranks = 2 + static_cast<int>(rng.next_below(7));
    Cluster c{ranks, model::generic()};
    if (faulted) c.set_fault_plan(time_faults(GetParam()));

    auto send = random_exchange(ranks, rng);
    const auto counts = send.counts;
    const auto items = exchange_items(send);
    const auto checksum = exchange_checksum(send);

    const auto recv = alltoallv(c, world(ranks), std::move(send));

    EXPECT_EQ(exchange_items(recv), items) << "faulted=" << faulted;
    EXPECT_EQ(exchange_checksum(recv), checksum) << "faulted=" << faulted;
    for (int i = 0; i < ranks; ++i) {
      std::int64_t sent_by_i = 0;
      std::int64_t recv_from_i = 0;
      for (int j = 0; j < ranks; ++j) {
        // Per-pair symmetry: what j receives from i is what i sent to j.
        EXPECT_EQ(recv.counts[static_cast<std::size_t>(j)]
                             [static_cast<std::size_t>(i)],
                  counts[static_cast<std::size_t>(i)]
                        [static_cast<std::size_t>(j)]);
        sent_by_i += counts[static_cast<std::size_t>(i)]
                           [static_cast<std::size_t>(j)];
        recv_from_i += recv.counts[static_cast<std::size_t>(j)]
                                  [static_cast<std::size_t>(i)];
      }
      EXPECT_EQ(sent_by_i, recv_from_i);
    }
  }
}

TEST_P(CommProperties, AllgathervEqualsConcatenation) {
  for (const bool faulted : {false, true}) {
    util::Xoshiro256 rng{GetParam()};
    const int ranks = 2 + static_cast<int>(rng.next_below(7));
    Cluster c{ranks, model::generic()};
    if (faulted) c.set_fault_plan(time_faults(GetParam()));

    auto pieces = random_pieces(ranks, rng);
    std::vector<std::int64_t> expected;
    for (const auto& piece : pieces) {
      expected.insert(expected.end(), piece.begin(), piece.end());
    }
    const auto result = allgatherv(c, world(ranks), std::move(pieces));
    EXPECT_EQ(result, expected) << "faulted=" << faulted;
  }
}

TEST_P(CommProperties, TransposeExchangeConservesItems) {
  for (const bool faulted : {false, true}) {
    util::Xoshiro256 rng{GetParam()};
    const int side = 2 + static_cast<int>(rng.next_below(3));
    const ProcessGrid grid{side};
    Cluster c{grid.ranks(), model::generic()};
    if (faulted) c.set_fault_plan(time_faults(GetParam()));

    auto pieces = random_pieces(grid.ranks(), rng);
    const auto original = pieces;
    const auto out = transpose_exchange(c, grid, std::move(pieces));

    ASSERT_EQ(out.size(), original.size());
    std::uint64_t sum_before = 0;
    std::uint64_t sum_after = 0;
    for (int rank = 0; rank < grid.ranks(); ++rank) {
      // Pairwise routing: P(i,j)'s payload lands at P(j,i), exactly.
      EXPECT_EQ(out[static_cast<std::size_t>(grid.transpose_partner(rank))],
                original[static_cast<std::size_t>(rank)]);
      sum_before += payload_checksum(original[static_cast<std::size_t>(rank)]);
      sum_after += payload_checksum(out[static_cast<std::size_t>(rank)]);
    }
    EXPECT_EQ(sum_after, sum_before) << "faulted=" << faulted;
  }
}

TEST_P(CommProperties, TimeFaultsOnlyEverSlowThingsDown) {
  util::Xoshiro256 rng{GetParam()};
  const int ranks = 2 + static_cast<int>(rng.next_below(7));
  auto send = random_exchange(ranks, rng);
  auto copy = send;

  Cluster clean{ranks, model::generic()};
  (void)alltoallv(clean, world(ranks), std::move(send));
  Cluster faulted{ranks, model::generic()};
  faulted.set_fault_plan(time_faults(GetParam()));
  (void)alltoallv(faulted, world(ranks), std::move(copy));

  EXPECT_GE(faulted.clocks().max_now(), clean.clocks().max_now());
  // Bytes on the wire are the payload's, however many re-issues happened.
  EXPECT_EQ(faulted.traffic().totals(Pattern::kAlltoallv).bytes,
            clean.traffic().totals(Pattern::kAlltoallv).bytes);
}

TEST_P(CommProperties, CorruptionDetectablyBreaksTheChecksum) {
  util::Xoshiro256 rng{GetParam()};
  const int ranks = 2 + static_cast<int>(rng.next_below(7));
  Cluster c{ranks, model::generic()};
  FaultPlan plan;
  plan.seed = GetParam();
  plan.corrupt_rate = 1.0;  // corrupt every exchange
  c.set_fault_plan(plan);

  auto send = random_exchange(ranks, rng);
  if (exchange_items(send) == 0) {
    send.data[0].push_back(42);
    send.counts[0][ranks > 1 ? 1 : 0] = 1;
  }
  const auto checksum = exchange_checksum(send);

  // The *raw* collective delivers the mangled payload — and the checksum
  // flags it. This is exactly the signal checked_alltoallv acts on.
  const auto recv = alltoallv(c, world(ranks), std::move(send));
  EXPECT_EQ(c.fault_counters().payload_corruptions, 1);
  EXPECT_NE(exchange_checksum(recv), checksum);
}

TEST_P(CommProperties, CheckedAlltoallvNeverReturnsCorruptedData) {
  util::Xoshiro256 rng{GetParam()};
  const int ranks = 2 + static_cast<int>(rng.next_below(7));
  Cluster c{ranks, model::generic()};
  FaultPlan plan;
  plan.seed = GetParam();
  plan.corrupt_rate = 0.5;
  c.set_fault_plan(plan);

  auto send = random_exchange(ranks, rng);
  const auto items = exchange_items(send);
  const auto checksum = exchange_checksum(send);
  try {
    const auto recv =
        checked_alltoallv(c, world(ranks), std::move(send), "property");
    EXPECT_EQ(exchange_items(recv), items);
    EXPECT_EQ(exchange_checksum(recv), checksum);
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), "payload-corruption");  // loud, structured abort
  }
}

TEST_P(CommProperties, CheckedAllgathervNeverReturnsCorruptedData) {
  util::Xoshiro256 rng{GetParam()};
  const int ranks = 2 + static_cast<int>(rng.next_below(7));
  Cluster c{ranks, model::generic()};
  FaultPlan plan;
  plan.seed = GetParam();
  plan.corrupt_rate = 0.5;
  c.set_fault_plan(plan);

  auto pieces = random_pieces(ranks, rng);
  std::vector<std::int64_t> expected;
  for (const auto& piece : pieces) {
    expected.insert(expected.end(), piece.begin(), piece.end());
  }
  try {
    const auto result =
        checked_allgatherv(c, world(ranks), std::move(pieces), "property");
    EXPECT_EQ(result, expected);
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), "payload-corruption");
  }
}

std::vector<std::uint64_t> property_seeds() {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= 10; ++s) seeds.push_back(s * 104729);
  return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommProperties,
                         ::testing::ValuesIn(property_seeds()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---- Blocks against a dense oracle ----
//
// alltoallv routes from each sender's non-empty blocks. A dense
// reference, which walks the g×g count matrix pair by pair as a dense
// MPI_Alltoallv would, must agree with it on random sparse patterns:
// empty senders, silent receivers, self blocks, groups of 1-64 slots,
// and groups that are a strided subset of a larger cluster.

struct SparseCase {
  int cluster_ranks = 0;
  std::vector<int> group;
  std::vector<std::vector<std::int64_t>> counts;  ///< [sender][receiver]
  std::vector<std::vector<std::int64_t>> data;    ///< destination order
};

SparseCase random_sparse_case(util::Xoshiro256& rng) {
  SparseCase c;
  const auto g = static_cast<std::size_t>(1 + rng.next_below(64));
  const int stride =
      rng.next_below(3) == 0 ? 2 + static_cast<int>(rng.next_below(3)) : 1;
  const int offset = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(stride)));
  for (std::size_t k = 0; k < g; ++k) {
    c.group.push_back(offset + stride * static_cast<int>(k));
  }
  c.cluster_ranks = c.group.back() + 1 + static_cast<int>(rng.next_below(3));
  // A sender reaches about `reach` of the group: from one slot to all.
  const std::uint64_t reach = 1 + rng.next_below(g);
  std::vector<bool> silent(g);
  for (std::size_t j = 0; j < g; ++j) silent[j] = rng.next_below(4) == 0;
  c.counts.assign(g, std::vector<std::int64_t>(g, 0));
  c.data.resize(g);
  for (std::size_t i = 0; i < g; ++i) {
    if (rng.next_below(4) == 0) continue;  // an empty sender
    for (std::size_t j = 0; j < g; ++j) {
      if (silent[j] || rng.next_below(g) >= reach) continue;
      const auto items = 1 + rng.next_below(5);
      c.counts[i][j] = static_cast<std::int64_t>(items);
      for (std::uint64_t k = 0; k < items; ++k) {
        c.data[i].push_back(static_cast<std::int64_t>(rng()));
      }
    }
  }
  return c;
}

BlockExchange<std::int64_t> as_blocks(const SparseCase& c) {
  auto send = BlockExchange<std::int64_t>::sized(c.group.size());
  send.data = c.data;
  for (std::size_t i = 0; i < c.group.size(); ++i) {
    for (std::size_t j = 0; j < c.group.size(); ++j) {
      if (c.counts[i][j] > 0) {
        send.blocks[i].push_back(Block{static_cast<int>(j), c.counts[i][j]});
      }
    }
  }
  return send;
}

FlatExchange<std::int64_t> as_dense(const SparseCase& c) {
  auto send = FlatExchange<std::int64_t>::sized(c.group.size());
  send.data = c.data;
  send.counts = c.counts;
  return send;
}

struct DenseOracle {
  std::vector<std::vector<std::int64_t>> recv;  ///< source order
  std::uint64_t network_bytes = 0;
  std::uint64_t local_bytes = 0;
  std::vector<std::uint64_t> matrix;  ///< cluster ranks², row-major
};

DenseOracle dense_route(const SparseCase& c) {
  const std::size_t g = c.group.size();
  const auto ranks = static_cast<std::size_t>(c.cluster_ranks);
  DenseOracle o;
  o.recv.resize(g);
  o.matrix.assign(ranks * ranks, 0);
  for (std::size_t i = 0; i < g; ++i) {
    std::size_t offset = 0;
    for (std::size_t j = 0; j < g; ++j) {
      const auto n = static_cast<std::size_t>(c.counts[i][j]);
      o.recv[j].insert(o.recv[j].end(), c.data[i].begin() + offset,
                       c.data[i].begin() + offset + n);
      offset += n;
      const std::uint64_t bytes = n * sizeof(std::int64_t);
      (i == j ? o.local_bytes : o.network_bytes) += bytes;
      o.matrix[static_cast<std::size_t>(c.group[i]) * ranks +
               static_cast<std::size_t>(c.group[j])] += bytes;
    }
  }
  return o;
}

/// One routing under test: a cluster with an atlas attached.
struct Routed {
  explicit Routed(const SparseCase& c)
      : cluster(c.cluster_ranks, model::generic()) {
    cluster.attach(obs::Observers{nullptr, nullptr, nullptr, &atlas}, 1,
                   c.cluster_ranks);
  }
  obs::CommAtlas atlas;
  Cluster cluster;
};

void expect_metered_like(const Routed& r, const DenseOracle& o,
                         const std::string& label) {
  EXPECT_EQ(r.cluster.traffic().totals(Pattern::kAlltoallv).bytes,
            o.network_bytes)
      << label;
  const int pattern = static_cast<int>(Pattern::kAlltoallv);
  EXPECT_EQ(r.atlas.pattern_bytes(pattern), o.network_bytes) << label;
  EXPECT_EQ(r.atlas.pattern_total_bytes(pattern),
            o.network_bytes + o.local_bytes)
      << label;
  EXPECT_EQ(r.atlas.matrix(), o.matrix) << label;
}

TEST(BlockRouting, MatchesTheDenseOracleOnSparsePatterns) {
  util::Xoshiro256 rng{20240611};
  for (int trial = 0; trial < 200; ++trial) {
    const SparseCase c = random_sparse_case(rng);
    const DenseOracle o = dense_route(c);
    const std::string label = "trial " + std::to_string(trial) +
                              " g=" + std::to_string(c.group.size());

    Routed sparse{c};
    const auto recv = alltoallv(sparse.cluster, c.group, as_blocks(c));
    EXPECT_EQ(recv.data, o.recv) << label;
    for (std::size_t j = 0; j < c.group.size(); ++j) {
      std::vector<std::pair<int, std::int64_t>> want;
      for (std::size_t i = 0; i < c.group.size(); ++i) {
        if (c.counts[i][j] > 0) {
          want.emplace_back(static_cast<int>(i), c.counts[i][j]);
        }
      }
      std::vector<std::pair<int, std::int64_t>> got;
      for (const Block& b : recv.blocks[j]) got.emplace_back(b.slot, b.count);
      EXPECT_EQ(got, want) << label << " receiver " << j;
    }
    expect_metered_like(sparse, o, label);

    Routed dense{c};
    const auto dense_recv = alltoallv(dense.cluster, c.group, as_dense(c));
    EXPECT_EQ(dense_recv.data, o.recv) << label;
    for (std::size_t i = 0; i < c.group.size(); ++i) {
      for (std::size_t j = 0; j < c.group.size(); ++j) {
        EXPECT_EQ(dense_recv.counts[j][i], c.counts[i][j]) << label;
      }
    }
    expect_metered_like(dense, o, label);
    EXPECT_EQ(dense.cluster.clocks().max_now(),
              sparse.cluster.clocks().max_now())
        << label;
  }
}

TEST(BlockRouting, CheckedPathRepairsCorruptionOnBothForms) {
  util::Xoshiro256 rng{77};
  int repaired = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const SparseCase c = random_sparse_case(rng);
    const DenseOracle o = dense_route(c);
    const std::string label = "trial " + std::to_string(trial);
    FaultPlan plan;
    plan.seed = 1000 + static_cast<std::uint64_t>(trial);
    plan.corrupt_rate = 0.6;

    Routed sparse{c};
    sparse.cluster.set_fault_plan(plan);
    Routed dense{c};
    dense.cluster.set_fault_plan(plan);
    bool sparse_threw = false;
    bool dense_threw = false;
    try {
      const auto recv =
          checked_alltoallv(sparse.cluster, c.group, as_blocks(c), "prop");
      EXPECT_EQ(recv.data, o.recv) << label;
    } catch (const FaultError& e) {
      sparse_threw = true;
      EXPECT_EQ(e.kind(), "payload-corruption") << label;
    }
    try {
      const auto recv =
          checked_alltoallv(dense.cluster, c.group, as_dense(c), "prop");
      EXPECT_EQ(recv.data, o.recv) << label;
    } catch (const FaultError&) {
      dense_threw = true;
    }
    EXPECT_EQ(sparse_threw, dense_threw) << label;
    const FaultCounters& a = sparse.cluster.fault_counters();
    const FaultCounters& b = dense.cluster.fault_counters();
    EXPECT_EQ(a.payload_corruptions, b.payload_corruptions) << label;
    EXPECT_EQ(a.payload_retries, b.payload_retries) << label;
    EXPECT_EQ(a.checksum_checks, b.checksum_checks) << label;
    EXPECT_EQ(sparse.atlas.matrix(), dense.atlas.matrix()) << label;
    if (!sparse_threw && a.payload_retries > 0) ++repaired;
  }
  EXPECT_GT(repaired, 0);  // the trials did exercise a repair
}

TEST(BlockRouting, PackBlocksIsAStableCountingSort) {
  util::Xoshiro256 rng{5};
  for (int trial = 0; trial < 100; ++trial) {
    // Alternate large and small groups so a stale counter left by an
    // earlier call would show.
    const std::size_t g = trial % 2 == 0 ? 1 + rng.next_below(4000)
                                         : 1 + rng.next_below(8);
    std::vector<std::pair<std::size_t, std::int64_t>> items(
        rng.next_below(300));
    for (auto& [slot, value] : items) {
      slot = rng.next_below(g);
      value = static_cast<std::int64_t>(rng.next_below(1000));
    }
    std::vector<std::int64_t> data;
    std::vector<Block> blocks;
    pack_blocks<std::int64_t>(
        g,
        [&](auto&& put) {
          for (const auto& [slot, value] : items) put(slot, value);
        },
        data, blocks);

    auto sorted = items;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::vector<std::int64_t> want;
    std::vector<std::pair<int, std::int64_t>> want_blocks;
    for (const auto& [slot, value] : sorted) {
      want.push_back(value);
      if (want_blocks.empty() ||
          want_blocks.back().first != static_cast<int>(slot)) {
        want_blocks.emplace_back(static_cast<int>(slot), 0);
      }
      ++want_blocks.back().second;
    }
    std::vector<std::pair<int, std::int64_t>> got_blocks;
    for (const Block& b : blocks) got_blocks.emplace_back(b.slot, b.count);
    EXPECT_EQ(data, want) << "trial " << trial;
    EXPECT_EQ(got_blocks, want_blocks) << "trial " << trial;
  }
}

TEST(BlockRouting, RouteRejectsMalformedBlocks) {
  const auto with = [](std::vector<Block> blocks, std::size_t items) {
    auto send = BlockExchange<int>::sized(3);
    send.data[0].assign(items, 7);
    send.blocks[0] = std::move(blocks);
    return send;
  };
  auto descending = with({{2, 1}, {1, 1}}, 2);
  EXPECT_THROW(route(descending, 3), std::invalid_argument);
  auto empty_block = with({{1, 0}}, 0);
  EXPECT_THROW(route(empty_block, 3), std::invalid_argument);
  auto outside = with({{3, 1}}, 1);
  EXPECT_THROW(route(outside, 3), std::invalid_argument);
  auto short_cover = with({{1, 1}}, 2);
  EXPECT_THROW(route(short_cover, 3), std::invalid_argument);
  auto wrong_group = with({{1, 1}}, 1);
  EXPECT_THROW(route(wrong_group, 4), std::invalid_argument);
  auto fine = with({{0, 1}, {2, 1}}, 2);
  const auto recv = route(fine, 3);
  EXPECT_EQ(recv.data[0], std::vector<int>{7});
  EXPECT_EQ(recv.data[2], std::vector<int>{7});
}

}  // namespace
}  // namespace dbfs::simmpi
