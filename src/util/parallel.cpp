#include "util/parallel.hpp"

#include <algorithm>
#include <exception>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace dbfs::util {

int host_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void for_each_slot(std::size_t count,
                   const std::function<void(std::size_t)>& phase,
                   std::size_t items) {
  const auto n = static_cast<std::ptrdiff_t>(count);
  std::exception_ptr error;
  std::ptrdiff_t error_slot = n;
  const auto run = [&](std::ptrdiff_t slot) {
    try {
      phase(static_cast<std::size_t>(slot));
    } catch (...) {
#ifdef _OPENMP
#pragma omp critical(dbfs_slot_error)
#endif
      if (slot < error_slot) {
        error_slot = slot;
        error = std::current_exception();
      }
    }
  };
  if (items < kInlineWork && count < kInlineWork - items) {
    for (std::ptrdiff_t slot = 0; slot < n; ++slot) run(slot);
  } else {
    const auto chunk =
        std::clamp<std::ptrdiff_t>(n / (4 * host_threads()), 1, 16);
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, chunk)
#endif
    for (std::ptrdiff_t slot = 0; slot < n; ++slot) run(slot);
  }
  if (error) std::rethrow_exception(error);
}

SlotRange slot_range(std::size_t count, std::size_t slots,
                     std::size_t slot) noexcept {
  const std::size_t share = count / slots;
  const std::size_t extra = count % slots;
  const std::size_t first = slot * share + std::min(slot, extra);
  return {first, first + share + (slot < extra ? 1 : 0)};
}

std::size_t counting_slots(std::size_t items, std::size_t buckets) {
  return std::clamp<std::size_t>(items / std::max<std::size_t>(buckets, 1),
                                 1, static_cast<std::size_t>(host_threads()));
}

std::vector<eid_t> slot_starts(std::span<eid_t> counts, std::size_t slots) {
  const std::size_t buckets = counts.size() / slots;
  std::vector<eid_t> totals(buckets);
  const std::size_t parts = static_cast<std::size_t>(host_threads());
  for_each_slot(parts, [&](std::size_t part) {
    const auto [first, last] = slot_range(buckets, parts, part);
    for (std::size_t b = first; b < last; ++b) {
      eid_t running = 0;
      for (std::size_t s = 0; s < slots; ++s) {
        eid_t& count = counts[s * buckets + b];
        const eid_t items = count;
        count = running;
        running += items;
      }
      totals[b] = running;
    }
  });
  return totals;
}

}  // namespace dbfs::util
