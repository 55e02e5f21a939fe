// Resolved metric handles (simmpi::CollectiveMetrics): each collective
// pattern's metrics are looked up by name once and then updated through
// cached references, re-resolved whenever the registry's epoch moves.
// A handle that outlived a clear() would write into freed map nodes, so
// an engine that runs A, B, A must report the third run exactly as a
// fresh engine reports A — or ASan flags the stale write.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/comm.hpp"
#include "test_helpers.hpp"

namespace dbfs {
namespace {

std::string openmetrics_of(const obs::MetricsRegistry& m) {
  std::ostringstream out;
  m.write_openmetrics(out);
  return out.str();
}

TEST(MetricsHandles, EpochIsRenewedByClearAndUniquePerRegistry) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  EXPECT_NE(a.epoch(), 0u);
  EXPECT_NE(a.epoch(), b.epoch());
  const std::uint64_t before = a.epoch();
  a.clear();
  EXPECT_NE(a.epoch(), before);
  EXPECT_NE(a.epoch(), b.epoch());
}

TEST(MetricsHandles, CollectiveMetricsFollowTheRegistryAcrossClears) {
  simmpi::Cluster cluster(4, model::generic());
  obs::MetricsRegistry metrics;
  obs::Observers observers;
  observers.metrics = &metrics;
  cluster.attach(observers, 1, 4);
  const int group[] = {0, 1, 2, 3};
  const std::uint64_t sums[] = {1, 2, 3, 4};

  (void)simmpi::allreduce_sum<std::uint64_t>(cluster, group, sums);
  EXPECT_EQ(metrics.counters().at("comm.calls.Allreduce"), 1);
  cluster.reset_accounting();  // clears the registry
  EXPECT_TRUE(metrics.empty());
  (void)simmpi::allreduce_sum<std::uint64_t>(cluster, group, sums);
  (void)simmpi::allreduce_sum<std::uint64_t>(cluster, group, sums);
  EXPECT_EQ(metrics.counters().at("comm.calls.Allreduce"), 2);
  EXPECT_EQ(metrics.counters().at("comm.bytes.Allreduce"),
            static_cast<std::int64_t>(2 * 4 * sizeof(std::uint64_t)));
  EXPECT_EQ(metrics.histograms().at("comm.transfer_seconds").count(), 2u);
  EXPECT_EQ(metrics.histograms().at("comm.wait_seconds").count(), 8u);

  // Re-attaching another registry moves the handles with it.
  obs::MetricsRegistry other;
  observers.metrics = &other;
  cluster.attach(observers, 1, 4);
  (void)simmpi::allreduce_sum<std::uint64_t>(cluster, group, sums);
  EXPECT_EQ(other.counters().at("comm.calls.Allreduce"), 1);
  EXPECT_EQ(metrics.counters().at("comm.calls.Allreduce"), 2);
}

TEST(MetricsHandles, RerunMatchesAFreshEngine) {
  const graph::BuiltGraph built = test::rmat_graph(10);
  const vid_t a = test::hub_source(built.csr);
  // B: a different search (the highest-numbered vertex with an edge),
  // so the middle run leaves other counts behind for a stale handle.
  vid_t b = built.csr.num_vertices() - 1;
  while (b > 0 && (b == a || built.csr.degree(b) == 0)) --b;
  for (core::Algorithm algo :
       {core::Algorithm::kOneDFlat, core::Algorithm::kTwoDFlat}) {
    core::EngineOptions opts;
    opts.algorithm = algo;
    opts.cores = 16;
    opts.metrics = true;
    const std::string at = core::to_string(algo);

    core::Engine fresh{built.edges, built.csr.num_vertices(), opts};
    (void)fresh.run(a);
    const std::string want = fresh.metrics()->to_json();

    core::Engine reused{built.edges, built.csr.num_vertices(), opts};
    (void)reused.run(a);
    (void)reused.run(b);
    EXPECT_NE(reused.metrics()->to_json(), want) << at;
    (void)reused.run(a);
    EXPECT_EQ(reused.metrics()->to_json(), want) << at;
    EXPECT_EQ(openmetrics_of(*reused.metrics()),
              openmetrics_of(*fresh.metrics()))
        << at;
  }
}

}  // namespace
}  // namespace dbfs
