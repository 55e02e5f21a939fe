#include "simmpi/comm.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "test_helpers.hpp"

namespace dbfs::simmpi {
namespace {

Cluster make_cluster(int ranks) {
  return Cluster{ranks, model::generic()};
}

std::vector<int> world(int ranks) {
  std::vector<int> w(static_cast<std::size_t>(ranks));
  std::iota(w.begin(), w.end(), 0);
  return w;
}

TEST(Alltoallv, RoutesDataToDestinations) {
  Cluster c = make_cluster(3);
  const auto w = world(3);
  auto send = FlatExchange<int>::sized(3);
  // Rank 0 sends {10} to 1 and {20, 21} to 2; rank 1 sends {30} to 0.
  send.data[0] = {10, 20, 21};
  send.counts[0] = {0, 1, 2};
  send.data[1] = {30};
  send.counts[1] = {1, 0, 0};
  send.counts[2] = {0, 0, 0};

  const auto recv = alltoallv(c, w, std::move(send));
  EXPECT_EQ(recv.data[0], (std::vector<int>{30}));
  EXPECT_EQ(recv.data[1], (std::vector<int>{10}));
  EXPECT_EQ(recv.data[2], (std::vector<int>{20, 21}));
  EXPECT_EQ(recv.counts[2][0], 2);
  EXPECT_EQ(recv.counts[0][1], 1);
}

TEST(Alltoallv, SelfSendsStayLocalAndUnmetered) {
  Cluster c = make_cluster(2);
  auto send = FlatExchange<int>::sized(2);
  send.data[0] = {1, 2, 3};
  send.counts[0] = {3, 0};
  send.counts[1] = {0, 0};
  const auto recv = alltoallv(c, world(2), std::move(send));
  EXPECT_EQ(recv.data[0], (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(c.traffic().totals(Pattern::kAlltoallv).bytes, 0u);
}

TEST(Alltoallv, MetersNetworkBytes) {
  Cluster c = make_cluster(2);
  auto send = FlatExchange<int>::sized(2);
  send.data[0] = {1, 2};
  send.counts[0] = {0, 2};
  send.counts[1] = {0, 0};
  (void)alltoallv(c, world(2), std::move(send));
  EXPECT_EQ(c.traffic().totals(Pattern::kAlltoallv).bytes, 2 * sizeof(int));
  EXPECT_EQ(c.traffic().totals(Pattern::kAlltoallv).calls, 1);
}

TEST(Alltoallv, AdvancesAllClocks) {
  Cluster c = make_cluster(2);
  auto send = FlatExchange<int>::sized(2);
  send.data[0] = {1};
  send.counts[0] = {0, 1};
  send.counts[1] = {0, 0};
  (void)alltoallv(c, world(2), std::move(send));
  EXPECT_GT(c.clocks().now(0), 0.0);
  EXPECT_DOUBLE_EQ(c.clocks().now(0), c.clocks().now(1));
}

TEST(Allgatherv, ConcatenatesInGroupOrder) {
  Cluster c = make_cluster(3);
  std::vector<std::vector<int>> pieces{{1, 2}, {}, {3}};
  const auto result = allgatherv(c, world(3), std::move(pieces));
  EXPECT_EQ(result, (std::vector<int>{1, 2, 3}));
}

TEST(Allgatherv, MetersReplicatedTraffic) {
  Cluster c = make_cluster(3);
  std::vector<std::vector<int>> pieces{{1}, {2}, {3}};
  (void)allgatherv(c, world(3), std::move(pieces));
  // Each piece crosses to the other two ranks.
  EXPECT_EQ(c.traffic().totals(Pattern::kAllgatherv).bytes,
            3u * 2u * sizeof(int));
}

TEST(AllreduceSum, ReducesContributions) {
  Cluster c = make_cluster(4);
  const std::vector<std::int64_t> contributions{1, 2, 3, 4};
  EXPECT_EQ(allreduce_sum<std::int64_t>(c, world(4), contributions), 10);
  EXPECT_GT(c.clocks().now(0), 0.0);
}

TEST(Allreduce, GenericOp) {
  Cluster c = make_cluster(3);
  const std::vector<std::int64_t> contributions{5, 9, 2};
  const auto result = allreduce<std::int64_t>(
      c, world(3), contributions, std::int64_t{0},
      [](std::int64_t a, std::int64_t b) { return std::max(a, b); });
  EXPECT_EQ(result, 9);
}

TEST(TransposeExchange, SwapsAcrossDiagonal) {
  Cluster c = make_cluster(4);
  const ProcessGrid grid{2};
  std::vector<std::vector<int>> pieces{{0}, {1}, {2}, {3}};
  const auto out = transpose_exchange(c, grid, std::move(pieces));
  // (0,1)=rank1 <-> (1,0)=rank2; diagonals stay.
  EXPECT_EQ(out[0], (std::vector<int>{0}));
  EXPECT_EQ(out[1], (std::vector<int>{2}));
  EXPECT_EQ(out[2], (std::vector<int>{1}));
  EXPECT_EQ(out[3], (std::vector<int>{3}));
}

TEST(TransposeExchange, DiagonalIsFree) {
  Cluster c = make_cluster(1);
  const ProcessGrid grid{1};
  std::vector<std::vector<int>> pieces{{42}};
  const auto out = transpose_exchange(c, grid, std::move(pieces));
  EXPECT_EQ(out[0], (std::vector<int>{42}));
  EXPECT_DOUBLE_EQ(c.clocks().now(0), 0.0);
}

TEST(TransposeExchange, OnlyPartnersSynchronize) {
  Cluster c = make_cluster(9);
  const ProcessGrid grid{3};
  std::vector<std::vector<int>> pieces(9, std::vector<int>{7});
  (void)transpose_exchange(c, grid, std::move(pieces));
  // Diagonal ranks (0,4,8) exchanged nothing.
  EXPECT_DOUBLE_EQ(c.clocks().now(0), 0.0);
  EXPECT_GT(c.clocks().now(1), 0.0);
}

TEST(Gatherv, CollectsAtRoot) {
  Cluster c = make_cluster(3);
  std::vector<std::vector<int>> pieces{{1}, {2, 3}, {4}};
  const auto result = gatherv(c, world(3), 1, std::move(pieces));
  EXPECT_EQ(result, (std::vector<int>{1, 2, 3, 4}));
  // Root's own piece stays local: 2 ints cross.
  EXPECT_EQ(c.traffic().totals(Pattern::kGatherv).bytes, 2 * sizeof(int));
}

TEST(Broadcast, DeliversPayloadAndMeters) {
  Cluster c = make_cluster(4);
  const auto result = broadcast(c, world(4), 0, std::vector<int>{9, 9});
  EXPECT_EQ(result, (std::vector<int>{9, 9}));
  EXPECT_EQ(c.traffic().totals(Pattern::kBroadcast).bytes,
            3u * 2u * sizeof(int));
}

TEST(Broadcast, RejectsRootSlotOutsideGroup) {
  Cluster c = make_cluster(3);
  EXPECT_THROW((void)broadcast(c, world(3), 3, std::vector<int>{1}),
               std::out_of_range);
}

TEST(Gatherv, RejectsRootSlotOutsideGroup) {
  Cluster c = make_cluster(3);
  std::vector<std::vector<int>> pieces{{1}, {2}, {3}};
  EXPECT_THROW((void)gatherv(c, world(3), 7, std::move(pieces)),
               std::out_of_range);
}

// Regression: broadcast used to ignore root_slot entirely, which became
// observable once per-rank fault factors existed — a broadcast tree is
// driven by the *root's* link, so a degraded root must slow the whole
// operation while a degraded leaf must not change the modelled transfer.
TEST(Broadcast, DegradedRootSlowsTheTreeDegradedLeafDoesNot) {
  FaultPlan plan;
  plan.nic_stragglers = {{2, 4.0}};

  Cluster baseline = make_cluster(4);
  Cluster rooted_at_leaf = make_cluster(4);
  rooted_at_leaf.set_fault_plan(plan);
  Cluster rooted_at_degraded = make_cluster(4);
  rooted_at_degraded.set_fault_plan(plan);

  const std::vector<int> payload{1, 2, 3, 4};
  (void)broadcast(baseline, world(4), 0, std::vector<int>(payload));
  (void)broadcast(rooted_at_leaf, world(4), 0, std::vector<int>(payload));
  (void)broadcast(rooted_at_degraded, world(4), 2,
                  std::vector<int>(payload));

  EXPECT_DOUBLE_EQ(rooted_at_leaf.clocks().max_now(),
                   baseline.clocks().max_now());
  EXPECT_DOUBLE_EQ(rooted_at_degraded.clocks().max_now(),
                   4.0 * baseline.clocks().max_now());
}

TEST(Gatherv, DegradedRootSlowsTheGather) {
  FaultPlan plan;
  plan.nic_stragglers = {{1, 3.0}};

  Cluster clean_root = make_cluster(3);
  clean_root.set_fault_plan(plan);
  Cluster degraded_root = make_cluster(3);
  degraded_root.set_fault_plan(plan);

  // Equal-sized pieces: either root keeps one piece local and pulls two
  // across the network, so the byte volume is identical...
  std::vector<std::vector<int>> pieces{{1}, {2}, {3}};
  (void)gatherv(clean_root, world(3), 0,
                std::vector<std::vector<int>>(pieces));
  (void)gatherv(degraded_root, world(3), 1,
                std::vector<std::vector<int>>(pieces));

  EXPECT_GT(degraded_root.clocks().max_now(), 0.0);
  // ...but routing through the degraded rank-1 root costs 3x.
  EXPECT_DOUBLE_EQ(degraded_root.clocks().max_now(),
                   3.0 * clean_root.clocks().max_now());
}

TEST(Cluster, ResetAccountingClearsState) {
  Cluster c = make_cluster(2);
  c.charge_compute(0, 1.0);
  (void)broadcast(c, world(2), 0, std::vector<int>{1});
  c.reset_accounting();
  EXPECT_DOUBLE_EQ(c.clocks().max_now(), 0.0);
  EXPECT_EQ(c.traffic().total_bytes(), 0u);
}

TEST(Cluster, CoresAccountsThreads) {
  Cluster c{8, model::generic(), 4};
  EXPECT_EQ(c.ranks(), 8);
  EXPECT_EQ(c.cores(), 32);
}

TEST(Cluster, ForEachRankVisitsAll) {
  Cluster c = make_cluster(16);
  std::vector<int> visited(16, 0);
  c.for_each_rank([&](int r) { visited[static_cast<std::size_t>(r)] = 1; });
  for (int v : visited) EXPECT_EQ(v, 1);
}

/// Runs `body` and returns the message of the std::runtime_error that
/// reached it ("" when none did).
std::string rethrown(const std::function<void()>& body) {
  try {
    body();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Cluster, PhaseExceptionReachesTheCaller) {
  const test::HostThreads threads(4);
  // Slot 5 throws late, so slot 9's exception is usually caught first;
  // the caller must still see the lowest slot's.
  const auto throw_at = [](std::size_t slot) {
    if (slot == 5) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (slot == 5 || slot == 9) {
      throw std::runtime_error("slot " + std::to_string(slot));
    }
  };

  Cluster c = make_cluster(64);
  std::vector<int> ran(64, 0);
  EXPECT_EQ(rethrown([&] {
              c.for_each_rank([&](int r) {
                ran[static_cast<std::size_t>(r)] = 1;
                throw_at(static_cast<std::size_t>(r));
              });
            }),
            "slot 5");
  for (int v : ran) EXPECT_EQ(v, 1);

  // A phase sized small enough to stay on the calling thread keeps the
  // rule.
  std::vector<int> ran_inline(64, 0);
  EXPECT_EQ(rethrown([&] {
              c.for_each_rank(
                  [&](int r) {
                    ran_inline[static_cast<std::size_t>(r)] = 1;
                    throw_at(static_cast<std::size_t>(r));
                  },
                  0);
            }),
            "slot 5");
  for (int v : ran_inline) EXPECT_EQ(v, 1);

  std::vector<int> group(32);
  for (std::size_t k = 0; k < group.size(); ++k) {
    group[k] = static_cast<int>(2 * k + 1);
  }
  std::vector<int> slots_ran(group.size(), 0);
  EXPECT_EQ(rethrown([&] {
              c.for_each_rank(group, [&](std::size_t slot) {
                slots_ran[slot] = 1;
                throw_at(slot);
              });
            }),
            "slot 5");
  for (int v : slots_ran) EXPECT_EQ(v, 1);
}

}  // namespace
}  // namespace dbfs::simmpi
