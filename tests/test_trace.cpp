// Observability-layer tests: the tracer and metrics primitives, the
// reconciliation of trace spans against the RunReport the same run
// produced (the clocks and the trace are two views of one virtual
// timeline — they must agree to float tolerance), and the Figure 4
// profile derived from the critical-path pass. That attaching
// observers never perturbs a run is proven in test_observers.cpp.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "bfs/bfs1d.hpp"
#include "bfs/bfs2d.hpp"
#include "bfs/report_json.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace dbfs {
namespace {

constexpr double kTol = 1e-9;

TEST(Tracer, RecordsSpansPerRankWithLevelTags) {
  obs::Tracer tracer(2);
  EXPECT_EQ(tracer.ranks(), 2);
  EXPECT_EQ(tracer.level(), -1);

  tracer.set_level(3);
  tracer.record(0, obs::SpanKind::kCompute, "2d-spmsv", "", 0.5, 1.5);
  tracer.record(1, obs::SpanKind::kWait, "2d-fold", "Alltoallv", 1.0, 2.0);
  tracer.record(7, obs::SpanKind::kCompute, "dropped", "", 0.0, 1.0);
  tracer.instant(1, "collective-failure", 2.5, 0.125);

  EXPECT_EQ(tracer.total_spans(), 2u);
  ASSERT_EQ(tracer.spans(0).size(), 1u);
  const obs::Span& s = tracer.spans(0).front();
  EXPECT_STREQ(s.name, "2d-spmsv");
  EXPECT_EQ(s.kind, obs::SpanKind::kCompute);
  EXPECT_EQ(s.level, 3);
  EXPECT_DOUBLE_EQ(s.begin, 0.5);
  EXPECT_DOUBLE_EQ(s.end, 1.5);
  ASSERT_EQ(tracer.instants().size(), 1u);
  EXPECT_EQ(tracer.instants().front().level, 3);
  EXPECT_DOUBLE_EQ(tracer.instants().front().seconds, 0.125);

  tracer.clear();
  EXPECT_EQ(tracer.total_spans(), 0u);
  EXPECT_TRUE(tracer.instants().empty());
  EXPECT_EQ(tracer.level(), -1);
  EXPECT_EQ(tracer.ranks(), 2);  // rank table survives a clear
}

TEST(Tracer, ChromeJsonIsWellFormed) {
  obs::Tracer tracer(2);
  tracer.set_level(0);
  tracer.record(0, obs::SpanKind::kCompute, "1d-scan", "", 0.0, 1e-6);
  tracer.record(1, obs::SpanKind::kTransfer, "1d-exchange", "Alltoallv",
                1e-6, 3e-6);
  tracer.instant(0, "checksum-retry", 2e-6);

  std::ostringstream out;
  tracer.write_chrome_json(out);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"compute\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"transfer\""), std::string::npos);
  EXPECT_NE(json.find("\"pattern\":\"Alltoallv\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);

  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(Metrics, LogHistogramCountsAndMoments) {
  obs::LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);

  h.observe(1.0);
  h.observe(2.0);
  h.observe(4.0);
  h.observe(0.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.zeros(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 7.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_DOUBLE_EQ(h.mean(), 1.75);
  // The zero mass is exact; positive quantiles interpolate inside their
  // log-2 bucket, so they stay within one bucket of the true value.
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.0);
  EXPECT_GE(h.quantile(0.5), 1.0);
  EXPECT_LE(h.quantile(0.5), 2.0);
  EXPECT_LE(h.quantile(0.99), 8.0);
  EXPECT_LE(h.quantile(0.5), h.quantile(0.99));
}

TEST(Metrics, RegistrySerializationIsDeterministic) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  EXPECT_TRUE(a.empty());

  // Populate in different orders; the ordered maps must serialize the
  // same either way, or run-to-run report diffs become noise.
  a.counter("x.calls") = 3;
  a.gauge("y.ratio") = 0.5;
  a.histogram("z.bytes").observe(1024.0);
  b.histogram("z.bytes").observe(1024.0);
  b.gauge("y.ratio") = 0.5;
  b.counter("x.calls") = 3;
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.to_json(), b.to_json());

  const std::string json = a.to_json();
  EXPECT_NE(json.find("\"counters\":{\"x.calls\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"y.ratio\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"z.bytes\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[[10,1]]"), std::string::npos);

  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(Trace, SpansReconcileWithRunReportClocks) {
  const auto built = test::rmat_graph(9);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  core::EngineOptions opts;
  opts.cores = 16;
  bfs::Bfs2D bfs{built.csr, opts,
                 {&tracer, &metrics}};
  const auto out = bfs.run(test::hub_source(built.csr));
  const bfs::RunReport& r = out.report;

  ASSERT_EQ(tracer.ranks(), r.ranks);
  double latest_end = 0.0;
  for (int rank = 0; rank < r.ranks; ++rank) {
    double compute = 0.0;
    double wait = 0.0;
    double transfer = 0.0;
    for (const obs::Span& s : tracer.spans(rank)) {
      ASSERT_GE(s.end, s.begin);
      latest_end = std::max(latest_end, s.end);
      switch (s.kind) {
        case obs::SpanKind::kCompute:
          compute += s.end - s.begin;
          break;
        case obs::SpanKind::kWait:
          wait += s.end - s.begin;
          break;
        case obs::SpanKind::kTransfer:
          transfer += s.end - s.begin;
          break;
      }
    }
    // Per rank: compute spans are exactly the compute clock, and the
    // wait + transfer spans are exactly the comm clock.
    const auto ri = static_cast<std::size_t>(rank);
    EXPECT_NEAR(compute, r.per_rank_comp[ri], kTol);
    EXPECT_NEAR(wait + transfer, r.per_rank_comm[ri], kTol);
  }
  EXPECT_NEAR(latest_end, r.total_seconds, kTol);
}

TEST(CriticalPath, DecompositionMatchesReportCollectiveSeconds) {
  const auto built = test::rmat_graph(9);
  for (const dist::VectorDistKind layout :
       {dist::VectorDistKind::kTwoD, dist::VectorDistKind::kDiagonal}) {
    const char* label = dist::to_string(layout);
    obs::Tracer tracer;
    core::EngineOptions opts;
    opts.cores = 16;
    opts.vector_dist = layout;
    bfs::Bfs2D bfs{built.csr, opts, {&tracer}};
    const auto out = bfs.run(test::hub_source(built.csr));
    const bfs::RunReport& r = out.report;

    const obs::CriticalPathReport cp =
        obs::analyze_critical_path(tracer, r.ranks);
    EXPECT_EQ(cp.ranks, r.ranks) << label;
    EXPECT_NEAR(cp.total_seconds, r.total_seconds, kTol) << label;
    EXPECT_EQ(cp.levels.size(), r.levels.size()) << label;

    // Table 1: the per-pattern transfer means recomputed from trace
    // events alone must equal the report's per-column seconds, which the
    // simulator accounted independently through the traffic meter. The
    // diagonal layout folds with a Gatherv and expands with a Broadcast.
    const auto mean_of = [&](const std::string& pattern) {
      for (const obs::PatternDecomposition& d : cp.decomposition) {
        if (d.pattern == pattern) return d.transfer_mean;
      }
      return 0.0;
    };
    if (layout == dist::VectorDistKind::kDiagonal) {
      EXPECT_GT(mean_of("Gatherv"), 0.0);
      EXPECT_GT(mean_of("Broadcast"), 0.0);
    }
    EXPECT_NEAR(mean_of("Alltoallv") + mean_of("Gatherv"),
                r.alltoall_seconds, kTol)
        << label;
    EXPECT_NEAR(mean_of("Allgatherv") + mean_of("Broadcast"),
                r.allgather_seconds, kTol)
        << label;
    EXPECT_NEAR(mean_of("Transpose"), r.transpose_seconds, kTol) << label;
    EXPECT_NEAR(mean_of("Allreduce"), r.allreduce_seconds, kTol) << label;
    EXPECT_GT(cp.transfer_total(), 0.0) << label;

    // Whole-run comm split: transfer + wait means equal the report's mean
    // per-rank comm seconds.
    EXPECT_NEAR(cp.transfer_mean + cp.wait_mean, r.comm_seconds_mean, kTol)
        << label;
  }
}

TEST(CriticalPath, FindsThePlantedStraggler) {
  const auto built = test::rmat_graph(9);
  obs::Tracer tracer;
  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kOneDFlat;
  opts.cores = 8;
  opts.load_smoothing = 0.0;  // price real volumes so the slowdown shows
  opts.faults.compute_stragglers = {{3, 16.0}};
  bfs::Bfs1D bfs{built.csr, opts, {&tracer}};
  const auto out = bfs.run(test::hub_source(built.csr));

  const obs::CriticalPathReport cp =
      obs::analyze_critical_path(tracer, out.report.ranks);
  ASSERT_FALSE(cp.levels.empty());

  // A rank slowed 16x arrives last at the collectives, so it accumulates
  // the least wait time over the run — exactly how the pass attributes
  // stragglers (Fig 4's idle-time reading).
  std::vector<double> total_wait(static_cast<std::size_t>(cp.ranks), 0.0);
  for (const obs::LevelAttribution& level : cp.levels) {
    ASSERT_EQ(level.wait_by_rank.size(), total_wait.size());
    EXPECT_GE(level.makespan(), 0.0);
    EXPECT_GE(level.wait_p99, level.wait_mean - kTol);
    for (std::size_t rank = 0; rank < total_wait.size(); ++rank) {
      total_wait[rank] += level.wait_by_rank[rank];
    }
  }
  for (std::size_t rank = 0; rank < total_wait.size(); ++rank) {
    if (rank != 3) {
      EXPECT_LT(total_wait[3], total_wait[rank] + kTol);
    }
  }

  // And the busiest level must blame rank 3 and a 1D compute phase.
  const obs::LevelAttribution* busiest = &cp.levels.front();
  for (const obs::LevelAttribution& level : cp.levels) {
    if (level.wait_mean > busiest->wait_mean) busiest = &level;
  }
  EXPECT_EQ(busiest->straggler_rank, 3);
  EXPECT_TRUE(busiest->straggler_phase == "1d-scan" ||
              busiest->straggler_phase == "1d-update")
      << busiest->straggler_phase;
}

TEST(Trace, FaultEventsAreRecorded) {
  const auto built = test::rmat_graph(9);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  core::EngineOptions opts;
  opts.cores = 16;
  opts.faults.seed = 7;
  opts.faults.collective_fail_rate = 0.05;
  bfs::Bfs2D bfs{built.csr, opts,
                 {&tracer, &metrics}};
  const auto out = bfs.run(test::hub_source(built.csr));

  ASSERT_GT(out.report.faults.collective_failures, 0)
      << "fault plan injected nothing; pick a different seed/rate";
  EXPECT_EQ(static_cast<std::int64_t>(tracer.instants().size()),
            out.report.faults.collective_failures);
  for (const obs::Instant& e : tracer.instants()) {
    EXPECT_STREQ(e.name, "collective-failure");
    EXPECT_GE(e.at, 0.0);
    EXPECT_GT(e.seconds, 0.0);
  }
  EXPECT_EQ(metrics.counter("fault.collective_failures"),
            out.report.faults.collective_failures);
  EXPECT_EQ(
      static_cast<std::int64_t>(
          metrics.histogram("fault.backoff_seconds").count()),
      out.report.faults.collective_failures);
}

TEST(Trace, ReportJsonEmbedsObserverSections) {
  const auto built = test::rmat_graph(9);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  core::EngineOptions opts;
  opts.cores = 16;
  bfs::Bfs2D bfs{built.csr, opts,
                 {&tracer, &metrics}};
  const auto out = bfs.run(test::hub_source(built.csr));

  const obs::CriticalPathReport cp =
      obs::analyze_critical_path(tracer, out.report.ranks);
  bfs::ReportJsonOptions jopts;
  jopts.metrics = &metrics;
  jopts.critical_path = &cp;
  const std::string json = bfs::report_to_json(out.report, jopts);

  EXPECT_NE(json.find("\"metrics\":{\"counters\":"), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\":{\"ranks\":"), std::string::npos);
  EXPECT_NE(json.find("\"comm.calls.Alltoallv\""), std::string::npos);
  EXPECT_NE(json.find("\"wait_by_rank\":["), std::string::npos);
  EXPECT_EQ(json.back(), '}');

  // Default options embed nothing and match the two-arg overload exactly.
  const bfs::ReportJsonOptions plain;
  EXPECT_EQ(bfs::report_to_json(out.report, plain),
            bfs::report_to_json(out.report));
}

// The Figure 4 profile over a hand-built trace with known wait and busy
// seconds:
// rank 0: level 0 = 1.0s compute + 0.5s wait; level 1 = 2.0s compute +
//         1.0s transfer.
// rank 1: level 0 = 0.5s compute + 1.0s wait; level 1 = 1.0s compute.
// Plus a level -1 setup span that the per-level rows must ignore.
obs::Tracer imbalance_trace() {
  obs::Tracer t{2};
  t.set_level(-1);
  t.record(0, obs::SpanKind::kCompute, "setup", "", 0.0, 10.0);
  t.set_level(0);
  t.record(0, obs::SpanKind::kCompute, "scan", "", 0.0, 1.0);
  t.record(0, obs::SpanKind::kWait, "fold", "alltoallv", 1.0, 1.5);
  t.record(1, obs::SpanKind::kCompute, "scan", "", 0.0, 0.5);
  t.record(1, obs::SpanKind::kWait, "fold", "alltoallv", 0.5, 1.5);
  t.set_level(1);
  t.record(0, obs::SpanKind::kCompute, "scan", "", 1.5, 3.5);
  t.record(0, obs::SpanKind::kTransfer, "fold", "alltoallv", 3.5, 4.5);
  t.record(1, obs::SpanKind::kCompute, "scan", "", 1.5, 2.5);
  return t;
}

TEST(ImbalanceProfile, PerLevelMatricesAndTotals) {
  const obs::CriticalPathReport cp =
      obs::analyze_critical_path(imbalance_trace(), 2);
  EXPECT_EQ(cp.ranks, 2);
  ASSERT_EQ(cp.levels.size(), 2u);
  EXPECT_EQ(cp.levels[0].level, 0);
  EXPECT_EQ(cp.levels[1].level, 1);

  EXPECT_EQ(cp.levels[0].wait_by_rank, (std::vector<double>{0.5, 1.0}));
  EXPECT_EQ(cp.levels[1].wait_by_rank, (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(cp.levels[0].busy_by_rank, (std::vector<double>{1.0, 0.5}));
  // Compute + transfer.
  EXPECT_EQ(cp.levels[1].busy_by_rank, (std::vector<double>{3.0, 1.0}));

  // The level -1 setup span contributes nowhere.
  const obs::ImbalanceProfile p = obs::profile_imbalance(cp);
  EXPECT_EQ(p.rank_busy_total, (std::vector<double>{4.0, 1.5}));
  EXPECT_EQ(p.rank_wait_total, (std::vector<double>{0.5, 1.0}));
}

TEST(ImbalanceProfile, ImbalanceStatisticsAndStragglers) {
  const obs::CriticalPathReport cp =
      obs::analyze_critical_path(imbalance_trace(), 2);
  const obs::ImbalanceProfile p = obs::profile_imbalance(cp);

  // util::imbalance convention: max over mean.
  EXPECT_DOUBLE_EQ(p.busy_imbalance, 4.0 / 2.75);
  EXPECT_DOUBLE_EQ(p.wait_imbalance, 1.0 / 0.75);
  EXPECT_DOUBLE_EQ(p.wait_fraction, 1.5 / 7.0);

  // Rank 0 does the most work at both levels, while at level 0 rank 0
  // also waits least: both straggler notions name it there.
  EXPECT_EQ(p.busiest_rank, (std::vector<int>{0, 0}));
  EXPECT_EQ(p.straggler_ranks, (std::vector<int>{0}));
  EXPECT_EQ(cp.levels[0].straggler_rank, 0);
}

TEST(ImbalanceProfile, EmptyTraceIsBalanced) {
  const obs::CriticalPathReport cp =
      obs::analyze_critical_path(obs::Tracer{4}, 4);
  const obs::ImbalanceProfile p = obs::profile_imbalance(cp);
  EXPECT_EQ(cp.ranks, 4);
  EXPECT_TRUE(cp.levels.empty());
  EXPECT_EQ(p.rank_wait_total, (std::vector<double>(4, 0.0)));
  EXPECT_DOUBLE_EQ(p.busy_imbalance, 1.0);
  EXPECT_DOUBLE_EQ(p.wait_imbalance, 1.0);
  EXPECT_DOUBLE_EQ(p.wait_fraction, 0.0);
  EXPECT_TRUE(p.busiest_rank.empty());
  EXPECT_TRUE(p.straggler_ranks.empty());
}

}  // namespace
}  // namespace dbfs
