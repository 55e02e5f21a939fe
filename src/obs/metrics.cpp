#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <ostream>
#include <sstream>

#include "util/json.hpp"

namespace dbfs::obs {

void LogHistogram::observe(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (!(value > 0.0)) {  // zeros, negatives, NaN: no log bucket
    ++zeros_;
    return;
  }
  const int exp = std::clamp(
      static_cast<int>(std::floor(std::log2(value))), kMinExp, kMaxExp);
  ++buckets_[static_cast<std::size_t>(exp - kMinExp)];
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  if (target <= static_cast<double>(zeros_)) return 0.0;
  std::uint64_t seen = zeros_;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = buckets_[static_cast<std::size_t>(i)];
    if (c == 0) continue;
    if (static_cast<double>(seen + c) >= target) {
      const double lo = std::exp2(static_cast<double>(i + kMinExp));
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(c);
      // Geometric interpolation inside the bucket [lo, 2*lo).
      return lo * std::exp2(frac);
    }
    seen += c;
  }
  return max_;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  epoch_ = next_epoch();
}

std::uint64_t MetricsRegistry::next_epoch() noexcept {
  static std::atomic<std::uint64_t> last{0};
  return ++last;
}

void MetricsRegistry::write_json(util::JsonWriter& json) const {
  json.object()
      .field("counters", counters_)
      .field("gauges", gauges_)
      .object("histograms");
  for (const auto& [name, h] : histograms_) {
    json.object(name)
        .field("count", h.count())
        .field("zeros", h.zeros())
        .field("sum", h.sum())
        .field("min", h.min())
        .field("max", h.max())
        .field("mean", h.mean())
        .field("p50", h.quantile(0.50))
        .field("p95", h.quantile(0.95))
        .field("p99", h.quantile(0.99))
        .array("buckets");
    for (int i = 0; i < LogHistogram::kBuckets; ++i) {
      const std::uint64_t c = h.buckets()[static_cast<std::size_t>(i)];
      if (c == 0) continue;
      json.array().value(i + LogHistogram::kMinExp).value(c).end();
    }
    json.end().end();
  }
  json.end().end();
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream out;
  util::JsonWriter json(out);
  write_json(json);
  return out.str();
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted names map the
/// dots (and anything else) to underscores under a dbfs_ prefix.
std::string openmetrics_name(const std::string& name) {
  std::string out = "dbfs_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

void MetricsRegistry::write_openmetrics(std::ostream& out) const {
  for (const auto& [name, value] : counters_) {
    const std::string m = openmetrics_name(name);
    out << "# TYPE " << m << " counter\n";
    out << m << "_total " << value << "\n";
  }
  for (const auto& [name, value] : gauges_) {
    const std::string m = openmetrics_name(name);
    out << "# TYPE " << m << " gauge\n";
    out << m << ' ' << value << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string m = openmetrics_name(name);
    out << "# TYPE " << m << " histogram\n";
    // Cumulative le buckets at the log-bucket upper edges. The zero mass
    // (observations <= 0) belongs under every finite bound, so it seeds
    // the running total.
    std::uint64_t cumulative = h.zeros();
    for (int i = 0; i < LogHistogram::kBuckets; ++i) {
      const std::uint64_t c = h.buckets()[static_cast<std::size_t>(i)];
      if (c == 0) continue;
      cumulative += c;
      out << m << "_bucket{le=\""
          << std::exp2(static_cast<double>(i + LogHistogram::kMinExp + 1))
          << "\"} " << cumulative << "\n";
    }
    out << m << "_bucket{le=\"+Inf\"} " << h.count() << "\n";
    out << m << "_sum " << h.sum() << "\n";
    out << m << "_count " << h.count() << "\n";
  }
  out << "# EOF\n";
}

}  // namespace dbfs::obs
