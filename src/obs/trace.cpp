#include "obs/trace.hpp"

#include <string>

#include "util/json.hpp"

namespace dbfs::obs {

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCompute:
      return "compute";
    case SpanKind::kWait:
      return "wait";
    case SpanKind::kTransfer:
      return "transfer";
  }
  return "?";
}

void Tracer::ensure_ranks(int ranks) {
  if (ranks > 0 && static_cast<std::size_t>(ranks) > per_rank_.size()) {
    per_rank_.resize(static_cast<std::size_t>(ranks));
  }
}

std::size_t Tracer::total_spans() const noexcept {
  std::size_t total = 0;
  for (const auto& spans : per_rank_) total += spans.size();
  return total;
}

void Tracer::clear() {
  for (auto& spans : per_rank_) spans.clear();
  instants_.clear();
  level_ = -1;
}

namespace {

constexpr double kMicros = 1e6;  // virtual seconds -> trace microseconds

}  // namespace

void Tracer::write_chrome_json(std::ostream& out) const {
  util::JsonWriter json(out);
  json.object().array("traceEvents");
  for (int rank = 0; rank < ranks(); ++rank) {
    // Thread-name metadata rows make Perfetto label each track "rank N".
    json.object()
        .field("name", "thread_name")
        .field("ph", "M")
        .field("pid", 0)
        .field("tid", rank)
        .object("args")
        .field("name", "rank " + std::to_string(rank))
        .end()
        .end();
    for (const Span& s : per_rank_[static_cast<std::size_t>(rank)]) {
      json.object()
          .field("name", s.name)
          .field("cat", to_string(s.kind))
          .field("ph", "X")
          .field("ts", s.begin * kMicros)
          .field("dur", (s.end - s.begin) * kMicros)
          .field("pid", 0)
          .field("tid", rank)
          .object("args")
          .field("level", s.level);
      if (s.pattern != nullptr && s.pattern[0] != '\0') {
        json.field("pattern", s.pattern);
      }
      json.end().end();
    }
  }
  for (const Instant& e : instants_) {
    json.object()
        .field("name", e.name)
        .field("cat", "fault")
        .field("ph", "i")
        .field("s", "t")
        .field("ts", e.at * kMicros)
        .field("pid", 0)
        .field("tid", e.rank)
        .object("args")
        .field("level", e.level)
        .field("seconds", e.seconds)
        .end()
        .end();
  }
  json.end().field("displayTimeUnit", "ms").end();
}

}  // namespace dbfs::obs
