// Every JSON artifact that prints a caller-supplied name escapes it. A
// name holding a quote, a backslash and a control byte goes through each
// writer; the output must parse, hold no raw byte below 0x20 inside a
// string, and give the name back unchanged.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bfs/report_json.hpp"
#include "obs/bench_record.hpp"
#include "obs/comm_atlas.hpp"
#include "obs/critical_path.hpp"
#include "obs/doctor.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace dbfs {
namespace {

constexpr const char* kOdd = "odd\"name\\with\x01"
                             "ctl";

/// True when a byte below 0x20 sits inside a string literal of `json`.
bool raw_control_in_string(const std::string& json) {
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const auto c = static_cast<unsigned char>(json[i]);
    if (!in_string) {
      in_string = c == '"';
    } else if (c == '\\') {
      ++i;  // the escaped byte cannot end the string
    } else if (c == '"') {
      in_string = false;
    } else if (c < 0x20) {
      return true;
    }
  }
  return false;
}

util::JsonValue parse_checked(const std::string& json) {
  EXPECT_FALSE(raw_control_in_string(json)) << json;
  return util::parse_json(json);
}

TEST(JsonEscaping, MetricsCounter) {
  obs::MetricsRegistry metrics;
  metrics.counter(kOdd) = 1;
  const util::JsonValue doc = parse_checked(metrics.to_json());
  EXPECT_EQ(doc.at("counters").at(kOdd).as_int(), 1);
}

TEST(JsonEscaping, TraceSpanAndPattern) {
  obs::Tracer tracer(1);
  tracer.record(0, obs::SpanKind::kTransfer, kOdd, kOdd, 0.0, 1.0);
  tracer.instant(0, kOdd, 0.5);
  std::ostringstream out;
  tracer.write_chrome_json(out);
  const util::JsonValue doc = parse_checked(out.str());
  int named = 0;
  for (const util::JsonValue& ev : doc.at("traceEvents").items) {
    if (ev.at("name").as_string() != kOdd) continue;
    ++named;
    if (ev.at("ph").as_string() == "X") {
      EXPECT_EQ(ev.at("args").at("pattern").as_string(), kOdd);
    }
  }
  EXPECT_EQ(named, 2);
}

TEST(JsonEscaping, CriticalPathPhaseAndSite) {
  obs::CriticalPathReport cp;
  cp.ranks = 1;
  obs::LevelAttribution level;
  level.level = 0;
  level.straggler_phase = kOdd;
  level.collective_seconds[kOdd] = 1.0;
  cp.levels.push_back(level);
  obs::PatternDecomposition pattern;
  pattern.pattern = kOdd;
  cp.decomposition.push_back(pattern);
  std::ostringstream out;
  {
    util::JsonWriter json(out);
    obs::write_critical_path_json(json, cp);
  }
  const util::JsonValue doc = parse_checked(out.str());
  const util::JsonValue& l = doc.at("levels").items.at(0);
  EXPECT_EQ(l.at("straggler_phase").as_string(), kOdd);
  EXPECT_DOUBLE_EQ(l.at("collectives").at(kOdd).as_number(), 1.0);
  EXPECT_EQ(doc.at("decomposition").items.at(0).at("pattern").as_string(),
            kOdd);
}

TEST(JsonEscaping, AtlasSite) {
  obs::CommAtlas atlas;
  atlas.ensure_ranks(2);
  atlas.set_grid(1, 2);
  atlas.slice(0, kOdd, kOdd, 0).add(0, 1, 64);
  std::ostringstream out;
  atlas.write_json(out);
  const util::JsonValue doc = parse_checked(out.str());
  const util::JsonValue& a = doc.at("atlas");
  EXPECT_EQ(a.at("sites").items.at(0).at("site").as_string(), kOdd);
  EXPECT_EQ(a.at("patterns").items.at(0).at("pattern").as_string(), kOdd);
}

TEST(JsonEscaping, FlightKindSiteAndKey) {
  obs::FlightRecorder flight(4);
  flight.append(kOdd, kOdd, 0.5, -1, 0).set(kOdd, 2.0);
  std::ostringstream out;
  flight.write_json(out);
  const util::JsonValue doc = parse_checked(out.str());
  const util::JsonValue& ev = doc.at("flight").at("events").items.at(0);
  EXPECT_EQ(ev.at("kind").as_string(), kOdd);
  EXPECT_EQ(ev.at("site").as_string(), kOdd);
  EXPECT_DOUBLE_EQ(ev.at("payload").at(kOdd).as_number(), 2.0);
}

TEST(JsonEscaping, ReportAlgorithm) {
  bfs::RunReport report;
  report.algorithm = kOdd;
  const util::JsonValue doc = parse_checked(bfs::report_to_json(report));
  EXPECT_EQ(doc.at("algorithm").as_string(), kOdd);
}

TEST(JsonEscaping, BenchSiteAndCounter) {
  obs::BenchRecord record;
  record.name = "odd";
  obs::BenchLevelSplit level;
  level.level = 0;
  level.sites[kOdd] = 1.5;
  record.levels.push_back(level);
  record.counters[kOdd] = 7;
  const std::string json = obs::bench_record_to_json(record);
  const util::JsonValue doc = parse_checked(json);
  EXPECT_DOUBLE_EQ(
      doc.at("levels").items.at(0).at("sites").at(kOdd).as_number(), 1.5);
  EXPECT_EQ(doc.at("counters").at(kOdd).as_int(), 7);
  const obs::BenchRecord back = obs::parse_bench_record(json);
  EXPECT_EQ(back.counters.at(kOdd), 7);
}

TEST(JsonEscaping, DoctorCause) {
  obs::DoctorReport report;
  obs::DoctorFinding finding;
  finding.cause = kOdd;
  report.findings.push_back(finding);
  std::ostringstream out;
  obs::write_doctor_json(out, report);
  const util::JsonValue doc = parse_checked(out.str());
  EXPECT_EQ(
      doc.at("doctor").at("findings").items.at(0).at("cause").as_string(),
      kOdd);
}

TEST(JsonEscaping, ParserRejectsRawControlBytesAndBadEscapes) {
  EXPECT_EQ(util::parse_json(R"({"s": "\u0041\u001f"})").at("s").as_string(),
            "A\x1f");
  // The error names the offset of the offending byte or escape digits.
  const auto error_of = [](const std::string& json) -> std::string {
    try {
      (void)util::parse_json(json);
    } catch (const util::JsonError& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(error_of("{\"s\": \"a\x01"
                     "b\"}"),
            "json: raw control byte in string at byte 8");
  EXPECT_EQ(error_of("[\"tab\there\"]"),
            "json: raw control byte in string at byte 5");
  EXPECT_EQ(error_of("[\"new\nline\"]"),
            "json: raw control byte in string at byte 5");
  for (const char* bad : {R"(["\uzzzz"])", R"(["\u00g1"])", R"(["\u+041"])",
                          R"(["\u-041"])", R"(["\u 041"])", R"(["\u0x41"])"}) {
    EXPECT_EQ(error_of(bad), "json: bad \\u escape at byte 4") << bad;
  }
  EXPECT_EQ(error_of(R"(["\u004"])"), "json: bad \\u escape at byte 4");
  EXPECT_EQ(error_of(R"(["\u00)"), "json: truncated \\u escape at byte 4");
}

}  // namespace
}  // namespace dbfs
