#include "obs/bench_record.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/comm_atlas.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace dbfs::obs {

namespace {

void write_summary(util::JsonWriter& json, const util::Summary& s) {
  json.object()
      .field("count", s.count)
      .field("min", s.min)
      .field("max", s.max)
      .field("mean", s.mean)
      .field("harmonic_mean", s.harmonic_mean)
      .field("median", s.median)
      .field("p25", s.p25)
      .field("p75", s.p75)
      .field("p95", s.p95)
      .field("p99", s.p99)
      .field("p999", s.p999)
      .field("stddev", s.stddev)
      .end();
}

util::Summary parse_summary(const util::JsonValue& v) {
  util::Summary s;
  s.count = static_cast<std::size_t>(v.int_or("count", 0));
  s.min = v.number_or("min", 0.0);
  s.max = v.number_or("max", 0.0);
  s.mean = v.number_or("mean", 0.0);
  s.harmonic_mean = v.number_or("harmonic_mean", 0.0);
  s.median = v.number_or("median", 0.0);
  s.p25 = v.number_or("p25", 0.0);
  s.p75 = v.number_or("p75", 0.0);
  s.p95 = v.number_or("p95", 0.0);
  s.p99 = v.number_or("p99", 0.0);
  // Schema-additive: absent in pre-p999 baselines, defaulting to 0.
  s.p999 = v.number_or("p999", 0.0);
  s.stddev = v.number_or("stddev", 0.0);
  return s;
}

/// Population stddev / mean over a small sample set; 0 with < 2 samples
/// or a non-positive mean.
double rel_stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  const double mean = sum / static_cast<double>(xs.size());
  if (mean <= 0.0) return 0.0;
  double sq = 0.0;
  for (double x : xs) sq += (x - mean) * (x - mean);
  return std::sqrt(sq / static_cast<double>(xs.size())) / mean;
}

}  // namespace

void write_bench_record_json(std::ostream& out, const BenchRecord& r) {
  util::JsonWriter json(out, util::JsonWriter::kExact);
  const BenchSetup& c = r.config;
  json.object()
      .field("schema_version", r.schema_version)
      .field("name", r.name)
      .field("created_by", r.created_by)
      .object("config")
      .field("generator", c.generator)
      .field("scale", c.scale)
      .field("edge_factor", c.edge_factor)
      .field("graph_seed", c.graph_seed)
      .field("algorithm", c.algorithm)
      .field("machine", c.machine)
      .field("wire_format", c.wire_format)
      .field("cores", c.cores)
      .field("ranks", c.ranks)
      .field("threads_per_rank", c.threads_per_rank)
      .field("sources", c.sources)
      .field("repetitions", c.repetitions)
      .field("source_seed", c.source_seed)
      .field("faults_enabled", c.faults_enabled)
      .field("fault_plan", c.fault_plan)
      .end();

  json.object("results").key("teps");
  write_summary(json, r.teps);
  json.field("harmonic_mean_teps", r.harmonic_mean_teps)
      .field("mean_seconds", r.mean_seconds)
      .field("comm_seconds_mean", r.comm_seconds_mean)
      .field("comp_seconds_mean", r.comp_seconds_mean)
      .object("noise")
      .field("teps_rel_stddev", r.noise.teps_rel_stddev)
      .field("seconds_rel_stddev", r.noise.seconds_rel_stddev)
      .field("comm_rel_stddev", r.noise.comm_rel_stddev)
      .end()
      .array("repetitions");
  for (const BenchRepetition& rep : r.repetitions) {
    json.object()
        .field("source_seed", rep.source_seed)
        .field("sources", rep.sources)
        .field("validated", rep.validated)
        .field("failed", rep.failed)
        .field("harmonic_mean_teps", rep.harmonic_mean_teps)
        .field("mean_seconds", rep.mean_seconds)
        .field("comm_seconds_mean", rep.comm_seconds_mean)
        .field("comp_seconds_mean", rep.comp_seconds_mean)
        .end();
  }
  json.end().end();

  json.array("levels");
  for (const BenchLevelSplit& l : r.levels) {
    json.object()
        .field("level", l.level)
        .field("compute_mean", l.compute_mean)
        .field("wait_mean", l.wait_mean)
        .field("transfer_mean", l.transfer_mean)
        .field("wait_max", l.wait_max)
        .field("wait_p99", l.wait_p99)
        .field("straggler_rank", l.straggler_rank)
        .field("straggler_phase", l.straggler_phase)
        .field("sites", l.sites)
        .end();
  }
  json.end();

  const BenchImbalanceSummary& im = r.imbalance;
  json.object("imbalance")
      .field("ranks", im.ranks)
      .field("comm_imbalance", im.comm_imbalance)
      .field("comp_imbalance", im.comp_imbalance)
      .field("busy_imbalance", im.busy_imbalance)
      .field("wait_imbalance", im.wait_imbalance)
      .field("wait_fraction", im.wait_fraction)
      .field("straggler_ranks", im.straggler_ranks)
      .field("level_ids", im.level_ids)
      .field("wait_heatmap", im.wait_heatmap)
      .end();

  // Schema-additive: atlas block only when a profile run carried one, so
  // records from unobserved runs stay byte-identical to pre-atlas output.
  if (r.atlas.present) {
    const BenchAtlasSummary& at = r.atlas;
    json.object("atlas")
        .field("grid_rows", at.grid_rows)
        .field("grid_cols", at.grid_cols)
        .field("total_bytes", at.total_bytes)
        .field("network_bytes", at.network_bytes)
        .field("max_pair_share", at.max_pair_share)
        .field("row_skew", at.row_skew)
        .field("col_skew", at.col_skew)
        .field("hotspot_rank", at.hotspot_rank)
        .field("incast_rank", at.incast_rank)
        .field("locality_share", at.locality_share)
        .field("self_share", at.self_share)
        .end();
  }

  json.field("counters", r.counters).end();
}

std::string bench_record_to_json(const BenchRecord& record) {
  std::ostringstream out;
  write_bench_record_json(out, record);
  return out.str();
}

BenchRecord parse_bench_record(const std::string& json) {
  try {
    const util::JsonValue doc = util::parse_json(json);
    if (!doc.is_object() || !doc.has("schema_version")) {
      throw BenchSchemaError("not a BenchRecord (no schema_version)");
    }
    const int version = static_cast<int>(doc.at("schema_version").as_int());
    if (version != kBenchRecordSchemaVersion) {
      throw BenchSchemaError(
          "schema_version " + std::to_string(version) + ", this build reads " +
          std::to_string(kBenchRecordSchemaVersion) +
          " — refresh the baselines (see EXPERIMENTS.md)");
    }

    BenchRecord r;
    r.schema_version = version;
    r.name = doc.at("name").as_string();
    r.created_by = doc.string_or("created_by", "");

    const util::JsonValue& c = doc.at("config");
    r.config.generator = c.string_or("generator", "rmat");
    r.config.scale = static_cast<int>(c.int_or("scale", 0));
    r.config.edge_factor = static_cast<int>(c.int_or("edge_factor", 16));
    r.config.graph_seed =
        static_cast<std::uint64_t>(c.int_or("graph_seed", 1));
    r.config.algorithm = c.string_or("algorithm", "");
    r.config.machine = c.string_or("machine", "");
    r.config.wire_format = c.string_or("wire_format", "raw");
    r.config.cores = static_cast<int>(c.int_or("cores", 0));
    r.config.ranks = static_cast<int>(c.int_or("ranks", 0));
    r.config.threads_per_rank =
        static_cast<int>(c.int_or("threads_per_rank", 1));
    r.config.sources = static_cast<int>(c.int_or("sources", 0));
    r.config.repetitions = static_cast<int>(c.int_or("repetitions", 0));
    r.config.source_seed =
        static_cast<std::uint64_t>(c.int_or("source_seed", 0));
    r.config.faults_enabled =
        c.has("faults_enabled") && c.at("faults_enabled").as_bool();
    r.config.fault_plan = c.string_or("fault_plan", "");

    const util::JsonValue& res = doc.at("results");
    r.teps = parse_summary(res.at("teps"));
    r.harmonic_mean_teps = res.number_or("harmonic_mean_teps", 0.0);
    r.mean_seconds = res.number_or("mean_seconds", 0.0);
    r.comm_seconds_mean = res.number_or("comm_seconds_mean", 0.0);
    r.comp_seconds_mean = res.number_or("comp_seconds_mean", 0.0);
    if (res.has("noise")) {
      const util::JsonValue& n = res.at("noise");
      r.noise.teps_rel_stddev = n.number_or("teps_rel_stddev", 0.0);
      r.noise.seconds_rel_stddev = n.number_or("seconds_rel_stddev", 0.0);
      r.noise.comm_rel_stddev = n.number_or("comm_rel_stddev", 0.0);
    }
    if (res.has("repetitions")) {
      for (const util::JsonValue& rep : res.at("repetitions").items) {
        BenchRepetition b;
        b.source_seed =
            static_cast<std::uint64_t>(rep.int_or("source_seed", 0));
        b.sources = static_cast<int>(rep.int_or("sources", 0));
        b.validated = static_cast<int>(rep.int_or("validated", 0));
        b.failed = static_cast<int>(rep.int_or("failed", 0));
        b.harmonic_mean_teps = rep.number_or("harmonic_mean_teps", 0.0);
        b.mean_seconds = rep.number_or("mean_seconds", 0.0);
        b.comm_seconds_mean = rep.number_or("comm_seconds_mean", 0.0);
        b.comp_seconds_mean = rep.number_or("comp_seconds_mean", 0.0);
        r.repetitions.push_back(std::move(b));
      }
    }

    if (doc.has("levels")) {
      for (const util::JsonValue& lv : doc.at("levels").items) {
        BenchLevelSplit l;
        l.level = static_cast<int>(lv.int_or("level", -1));
        l.compute_mean = lv.number_or("compute_mean", 0.0);
        l.wait_mean = lv.number_or("wait_mean", 0.0);
        l.transfer_mean = lv.number_or("transfer_mean", 0.0);
        l.wait_max = lv.number_or("wait_max", 0.0);
        l.wait_p99 = lv.number_or("wait_p99", 0.0);
        l.straggler_rank = static_cast<int>(lv.int_or("straggler_rank", 0));
        l.straggler_phase = lv.string_or("straggler_phase", "");
        // Schema-additive: per-site transfer split, absent in old records.
        if (lv.has("sites")) {
          for (const auto& [site, seconds] : lv.at("sites").members) {
            l.sites[site] = seconds.as_number();
          }
        }
        r.levels.push_back(std::move(l));
      }
    }

    if (doc.has("imbalance")) {
      const util::JsonValue& im = doc.at("imbalance");
      r.imbalance.ranks = static_cast<int>(im.int_or("ranks", 0));
      r.imbalance.comm_imbalance = im.number_or("comm_imbalance", 1.0);
      r.imbalance.comp_imbalance = im.number_or("comp_imbalance", 1.0);
      r.imbalance.busy_imbalance = im.number_or("busy_imbalance", 1.0);
      r.imbalance.wait_imbalance = im.number_or("wait_imbalance", 1.0);
      r.imbalance.wait_fraction = im.number_or("wait_fraction", 0.0);
      if (im.has("straggler_ranks")) {
        for (const util::JsonValue& v : im.at("straggler_ranks").items) {
          r.imbalance.straggler_ranks.push_back(static_cast<int>(v.as_int()));
        }
      }
      if (im.has("level_ids")) {
        for (const util::JsonValue& v : im.at("level_ids").items) {
          r.imbalance.level_ids.push_back(static_cast<int>(v.as_int()));
        }
      }
      if (im.has("wait_heatmap")) {
        for (const util::JsonValue& row : im.at("wait_heatmap").items) {
          std::vector<double> cells;
          cells.reserve(row.items.size());
          for (const util::JsonValue& v : row.items) {
            cells.push_back(v.as_number());
          }
          r.imbalance.wait_heatmap.push_back(std::move(cells));
        }
      }
    }

    if (doc.has("atlas")) {
      const util::JsonValue& at = doc.at("atlas");
      r.atlas.present = true;
      r.atlas.grid_rows = static_cast<int>(at.int_or("grid_rows", 0));
      r.atlas.grid_cols = static_cast<int>(at.int_or("grid_cols", 0));
      r.atlas.total_bytes = at.int_or("total_bytes", 0);
      r.atlas.network_bytes = at.int_or("network_bytes", 0);
      r.atlas.max_pair_share = at.number_or("max_pair_share", 0.0);
      r.atlas.row_skew = at.number_or("row_skew", 1.0);
      r.atlas.col_skew = at.number_or("col_skew", 1.0);
      r.atlas.hotspot_rank = static_cast<int>(at.int_or("hotspot_rank", -1));
      r.atlas.incast_rank = static_cast<int>(at.int_or("incast_rank", -1));
      r.atlas.locality_share = at.number_or("locality_share", 0.0);
      r.atlas.self_share = at.number_or("self_share", 0.0);
    }

    if (doc.has("counters")) {
      for (const auto& [name, value] : doc.at("counters").members) {
        r.counters[name] = value.as_int();
      }
    }
    return r;
  } catch (const BenchSchemaError&) {
    throw;
  } catch (const std::exception& e) {
    throw BenchSchemaError(std::string("malformed BenchRecord: ") + e.what());
  }
}

BenchRecord load_bench_record(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw BenchSchemaError("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_bench_record(buffer.str());
  } catch (const BenchSchemaError& e) {
    throw BenchSchemaError(path + ": " + e.what());
  }
}

std::vector<BenchRecord> load_bench_records(const std::string& path) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(path)) return {load_bench_record(path)};
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(path)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.size() > 11 /* BENCH_ + .json */ &&
        name.starts_with("BENCH_") && name.ends_with(".json")) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<BenchRecord> records;
  for (const std::string& file : files) {
    records.push_back(load_bench_record(file));
  }
  return records;
}

void save_bench_record(const std::string& path, const BenchRecord& record) {
  std::ofstream out(path);
  if (!out) throw BenchSchemaError("cannot write " + path);
  write_bench_record_json(out, record);
  out << '\n';
}

std::string bench_record_filename(const std::string& name) {
  return "BENCH_" + name + ".json";
}

void BenchRecordBuilder::add_repetition(std::uint64_t source_seed,
                                        std::span<const bfs::RunReport> reports,
                                        eid_t edge_denominator, int validated,
                                        int failed) {
  BenchRepetition rep;
  rep.source_seed = source_seed;
  rep.sources = static_cast<int>(reports.size());
  rep.validated = validated;
  rep.failed = failed;

  std::vector<double> teps;
  for (const bfs::RunReport& report : reports) {
    teps.push_back(report.teps(edge_denominator));
    rep.mean_seconds += report.total_seconds;
    rep.comm_seconds_mean += report.comm_seconds_mean;
    rep.comp_seconds_mean += report.comp_seconds_mean;
    seconds_sum_ += report.total_seconds;
    comm_sum_ += report.comm_seconds_mean;
    comp_sum_ += report.comp_seconds_mean;
    ++run_count_;
  }
  rep.harmonic_mean_teps = util::summarize(teps).harmonic_mean;
  teps_samples_.insert(teps_samples_.end(), teps.begin(), teps.end());
  if (!reports.empty()) {
    const auto k = static_cast<double>(reports.size());
    rep.mean_seconds /= k;
    rep.comm_seconds_mean /= k;
    rep.comp_seconds_mean /= k;
  }
  record_.repetitions.push_back(std::move(rep));
}

void BenchRecordBuilder::attach_profile(const Tracer* tracer,
                                        const MetricsRegistry* metrics,
                                        const bfs::RunReport& profile_run,
                                        int ranks) {
  record_.imbalance.ranks = ranks;
  record_.imbalance.comm_imbalance =
      util::imbalance(profile_run.per_rank_comm);
  record_.imbalance.comp_imbalance =
      util::imbalance(profile_run.per_rank_comp);

  if (tracer != nullptr) {
    const CriticalPathReport cp = analyze_critical_path(*tracer, ranks);
    record_.levels.clear();
    record_.imbalance.level_ids.clear();
    record_.imbalance.wait_heatmap.clear();
    for (const LevelAttribution& la : cp.levels) {
      BenchLevelSplit l;
      l.level = la.level;
      l.compute_mean = la.compute_mean;
      l.wait_mean = la.wait_mean;
      double transfer = 0.0;
      for (const auto& [site, seconds] : la.collective_seconds) {
        transfer += seconds;
        l.sites[site] = seconds;
      }
      l.transfer_mean = transfer;
      l.wait_max = la.wait_max;
      l.wait_p99 = la.wait_p99;
      l.straggler_rank = la.straggler_rank;
      l.straggler_phase = la.straggler_phase;
      record_.levels.push_back(std::move(l));
      record_.imbalance.level_ids.push_back(la.level);
      record_.imbalance.wait_heatmap.push_back(la.wait_by_rank);
    }

    const ImbalanceProfile profile = profile_imbalance(cp);
    record_.imbalance.busy_imbalance = profile.busy_imbalance;
    record_.imbalance.wait_imbalance = profile.wait_imbalance;
    record_.imbalance.wait_fraction = profile.wait_fraction;
    record_.imbalance.straggler_ranks = profile.straggler_ranks;
  }

  if (metrics != nullptr) {
    for (const auto& [name, value] : metrics->counters()) {
      record_.counters[name] = value;
    }
  }
}

void BenchRecordBuilder::attach_atlas(const CommAtlas* atlas) {
  if (atlas == nullptr) return;
  const AtlasSummary s = atlas->summary();
  if (s.total_bytes == 0) return;  // nothing recorded — keep the block out
  record_.atlas.present = true;
  record_.atlas.grid_rows = s.grid_rows;
  record_.atlas.grid_cols = s.grid_cols;
  record_.atlas.total_bytes = static_cast<std::int64_t>(s.total_bytes);
  record_.atlas.network_bytes = static_cast<std::int64_t>(s.network_bytes);
  record_.atlas.max_pair_share = s.max_pair_share;
  record_.atlas.row_skew = s.row_skew;
  record_.atlas.col_skew = s.col_skew;
  record_.atlas.hotspot_rank = s.hotspot_rank;
  record_.atlas.incast_rank = s.incast_rank;
  record_.atlas.locality_share = s.locality_share;
  record_.atlas.self_share = s.self_share;
}

BenchRecord BenchRecordBuilder::finish() {
  record_.teps = util::summarize(teps_samples_);
  record_.harmonic_mean_teps = record_.teps.harmonic_mean;
  if (run_count_ > 0) {
    const auto n = static_cast<double>(run_count_);
    record_.mean_seconds = seconds_sum_ / n;
    record_.comm_seconds_mean = comm_sum_ / n;
    record_.comp_seconds_mean = comp_sum_ / n;
  }

  std::vector<double> rep_teps;
  std::vector<double> rep_seconds;
  std::vector<double> rep_comm;
  for (const BenchRepetition& rep : record_.repetitions) {
    rep_teps.push_back(rep.harmonic_mean_teps);
    rep_seconds.push_back(rep.mean_seconds);
    rep_comm.push_back(rep.comm_seconds_mean);
  }
  record_.noise.teps_rel_stddev = rel_stddev(rep_teps);
  record_.noise.seconds_rel_stddev = rel_stddev(rep_seconds);
  record_.noise.comm_rel_stddev = rel_stddev(rep_comm);

  record_.config.repetitions = static_cast<int>(record_.repetitions.size());
  if (!record_.repetitions.empty()) {
    record_.config.sources = record_.repetitions.front().sources;
  }
  return record_;
}

}  // namespace dbfs::obs
