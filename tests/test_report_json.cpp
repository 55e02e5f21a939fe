#include "bfs/report_json.hpp"

#include <gtest/gtest.h>

#include "bfs/bfs2d.hpp"
#include "test_helpers.hpp"

namespace dbfs::bfs {
namespace {

RunReport sample_report() {
  RunReport r;
  r.algorithm = "2d-flat";
  r.machine = "hopper";
  r.ranks = 16;
  r.threads_per_rank = 1;
  r.cores = 16;
  r.total_seconds = 0.5;
  r.comm_seconds_mean = 0.2;
  r.comp_seconds_mean = 0.25;
  r.edges_traversed = 1234;
  LevelStats l;
  l.level = 0;
  l.frontier = 1;
  l.edges_scanned = 42;
  r.levels.push_back(l);
  r.per_rank_comm = {0.1, 0.2};
  r.per_rank_comp = {0.3, 0.4};
  return r;
}

TEST(ReportJson, ContainsCoreFields) {
  const std::string json = report_to_json(sample_report());
  EXPECT_NE(json.find("\"algorithm\":\"2d-flat\""), std::string::npos);
  EXPECT_NE(json.find("\"machine\":\"hopper\""), std::string::npos);
  EXPECT_NE(json.find("\"ranks\":16"), std::string::npos);
  EXPECT_NE(json.find("\"edges_traversed\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"levels\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"edges\":42"), std::string::npos);
}

TEST(ReportJson, PerRankArraysOptIn) {
  const std::string without = report_to_json(sample_report(), false);
  EXPECT_EQ(without.find("per_rank_comm"), std::string::npos);
  const std::string with = report_to_json(sample_report(), true);
  EXPECT_NE(with.find("\"per_rank_comm\":[0.1,0.2]"), std::string::npos);
}

TEST(ReportJson, LevelBreakdownKeysAreGated) {
  RunReport r = sample_report();
  r.levels.front().comm_seconds = 0.01;
  r.levels.front().comm_seconds_max = 0.02;
  r.levels.front().comp_seconds = 0.03;
  r.levels.front().comp_seconds_max = 0.04;

  // Unobserved runs keep the pre-observability schema: no per-level
  // comm/comp keys, even if the fields were (wrongly) populated.
  r.has_level_breakdown = false;
  const std::string without = report_to_json(r);
  // (The _mean/_max whole-run keys always exist at the top level; the
  // bare per-level spellings below cannot match those.)
  EXPECT_EQ(without.find("\"comm_seconds\":"), std::string::npos);
  EXPECT_EQ(without.find("\"comp_seconds\":"), std::string::npos);

  r.has_level_breakdown = true;
  const std::string with = report_to_json(r);
  EXPECT_NE(with.find("\"comm_seconds\":0.01"), std::string::npos);
  EXPECT_NE(with.find("\"comm_seconds_max\":0.02"), std::string::npos);
  EXPECT_NE(with.find("\"comp_seconds\":0.03"), std::string::npos);
  EXPECT_NE(with.find("\"comp_seconds_max\":0.04"), std::string::npos);
}

TEST(ReportJson, DefaultObserverOptionsChangeNothing) {
  const RunReport r = sample_report();
  const ReportJsonOptions defaults;
  EXPECT_EQ(report_to_json(r, defaults), report_to_json(r));
  ReportJsonOptions with_ranks;
  with_ranks.include_per_rank = true;
  EXPECT_EQ(report_to_json(r, with_ranks), report_to_json(r, true));
}

TEST(ReportJson, EscapesStrings) {
  RunReport r = sample_report();
  r.algorithm = "we\"ird\\name\n";
  const std::string json = report_to_json(r);
  EXPECT_NE(json.find("we\\\"ird\\\\name\\n"), std::string::npos);
}

TEST(ReportJson, BalancedBracesAndBrackets) {
  // A structural smoke test standing in for a full JSON parser: every
  // opener has a closer and the object starts/ends correctly.
  const auto built = test::rmat_graph(9);
  core::EngineOptions opts;
  opts.cores = 16;
  Bfs2D bfs{built.edges, built.csr.num_vertices(), opts};
  const auto out = bfs.run(test::hub_source(built.csr));
  const std::string json = report_to_json(out.report, true);

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
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_FALSE(in_string);
}

TEST(ReportJson, LevelsArrayMatchesReport) {
  const auto built = test::rmat_graph(9);
  core::EngineOptions opts;
  opts.cores = 16;
  Bfs2D bfs{built.edges, built.csr.num_vertices(), opts};
  const auto out = bfs.run(test::hub_source(built.csr));
  const std::string json = report_to_json(out.report);
  std::size_t count = 0;
  for (std::size_t pos = json.find("\"level\":"); pos != std::string::npos;
       pos = json.find("\"level\":", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, out.report.levels.size());
}

}  // namespace
}  // namespace dbfs::bfs
