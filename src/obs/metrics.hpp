// Metrics registry for the simulator: named counters, gauges, and
// log-scale histograms, populated by simmpi::comm (per-pattern call and
// byte accounting, per-rank collective wait times) and by the BFS kernel
// call sites (SpMSV flop/output distributions). Everything is keyed by
// name in ordered maps so the JSON serialization is deterministic, and
// the whole registry is passive — the simulator never reads it back, so
// attaching one cannot perturb a run.
//
// Histograms use base-2 log buckets: bucket k counts samples in
// [2^k, 2^(k+1)). That covers message sizes (bytes) and wait times
// (seconds, down to sub-nanosecond) in one fixed-size array with no
// per-sample allocation, and supports geometric-interpolation quantile
// estimates (p50/p95/p99 in the JSON output).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace dbfs::util {
class JsonWriter;
}  // namespace dbfs::util

namespace dbfs::obs {

class LogHistogram {
 public:
  // Exponent range: 2^-40 (~1e-12, below any priced latency) through
  // 2^40 (~1e12, above any byte count we meter). Out-of-range samples
  // clamp to the edge buckets; zero/negative samples count in `zeros`.
  static constexpr int kMinExp = -40;
  static constexpr int kMaxExp = 40;
  static constexpr int kBuckets = kMaxExp - kMinExp + 1;

  void observe(double value);

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t zeros() const noexcept { return zeros_; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  double mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Bucket-interpolated quantile estimate, q in [0,1]. Exact for the
  /// zero mass; geometric interpolation within a log bucket otherwise.
  double quantile(double q) const;

  const std::array<std::uint64_t, kBuckets>& buckets() const noexcept {
    return buckets_;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;  ///< all observations, including zeros
  std::uint64_t zeros_ = 0;  ///< observations <= 0 (kept out of buckets)
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  /// Not copyable: references handed out by counter()/gauge()/histogram()
  /// are tied to this instance's epoch().
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Monotonic counter; created zeroed on first access. The references
  /// these three return stay valid until the next clear().
  std::int64_t& counter(const std::string& name) { return counters_[name]; }
  /// Last-write-wins value.
  double& gauge(const std::string& name) { return gauges_[name]; }
  LogHistogram& histogram(const std::string& name) {
    return histograms_[name];
  }

  const std::map<std::string, std::int64_t>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const noexcept {
    return gauges_;
  }
  const std::map<std::string, LogHistogram>& histograms() const noexcept {
    return histograms_;
  }

  bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Drop every metric (Cluster::reset_accounting calls this so each run
  /// reports its own distributions). Starts a new epoch.
  void clear();

  /// Names the set of live metric references: unique across every
  /// registry in the process and renewed by clear(). A caller that caches
  /// references (simmpi's per-pattern collective handles) stores the
  /// epoch it resolved them under and resolves again when it moves.
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// Serialize as one JSON object:
  /// {"counters":{...},"gauges":{...},
  ///  "histograms":{name:{count,zeros,sum,min,max,mean,p50,p95,p99,
  ///                      buckets:[[exp,count],...]}}}
  void write_json(util::JsonWriter& json) const;
  std::string to_json() const;

  /// Serialize in the OpenMetrics / Prometheus text exposition format so
  /// the registry can feed standard dashboards: counters as `counter`
  /// (`dbfs_<name>_total`), gauges as `gauge`, and log histograms as
  /// cumulative-bucket `histogram` families with `le` upper bounds at the
  /// bucket edges (2^(exp+1); zeros land in the lowest bucket). Metric
  /// names are sanitized to [a-zA-Z0-9_:] with a `dbfs_` prefix; the
  /// output ends with the `# EOF` terminator the format requires.
  void write_openmetrics(std::ostream& out) const;

 private:
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, LogHistogram> histograms_;
  std::uint64_t epoch_ = next_epoch();

  static std::uint64_t next_epoch() noexcept;
};

}  // namespace dbfs::obs
