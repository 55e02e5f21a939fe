#include "obs/observers.hpp"

#include "obs/comm_atlas.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dbfs::obs {

void Observers::prepare(int rows, int cols) const {
  if (tracer != nullptr) tracer->ensure_ranks(rows * cols);
  if (atlas != nullptr) {
    atlas->ensure_ranks(rows * cols);
    atlas->set_grid(rows, cols);
  }
}

void Observers::clear() const {
  if (tracer != nullptr) tracer->clear();
  if (metrics != nullptr) metrics->clear();
  if (flight != nullptr) flight->clear();
  if (atlas != nullptr) atlas->clear();
}

}  // namespace dbfs::obs
