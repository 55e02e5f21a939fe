#include "obs/flight_recorder.hpp"

#include <ostream>

#include "util/json.hpp"

namespace dbfs::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::clear() noexcept {
  next_ = 0;
  recorded_ = 0;
}

std::vector<FlightEvent> FlightRecorder::chronological() const {
  std::vector<FlightEvent> out;
  const std::size_t held = size();
  out.reserve(held);
  // When the ring has wrapped, the oldest held event sits at next_.
  const std::size_t start = recorded_ > ring_.size() ? next_ : 0;
  for (std::size_t i = 0; i < held; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void FlightRecorder::write_json(std::ostream& out) const {
  util::JsonWriter json(out, util::JsonWriter::kExact);
  json.object()
      .object("flight")
      .field("capacity", ring_.size())
      .field("recorded", recorded_)
      .field("dropped", dropped())
      .array("events");
  for (const FlightEvent& ev : chronological()) {
    json.object()
        .field("t", ev.t)
        .field("kind", ev.kind)
        .field("site", ev.site)
        .field("rank", ev.rank)
        .field("level", ev.level)
        .object("payload");
    for (int s = 0; s < FlightEvent::kSlots; ++s) {
      if (ev.key[s] != nullptr) json.field(ev.key[s], ev.value[s]);
    }
    json.end().end();
  }
  json.end().end().end();
  out << '\n';
}

}  // namespace dbfs::obs
