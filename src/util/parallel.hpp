// The host-thread executor. Every data-parallel loop of the library runs
// through for_each_slot: the simulator's rank phases
// (simmpi::Cluster::for_each_rank) and the graph and partition builders.
// The only other OpenMP region is bfs/shared.cpp's shared-memory BFS,
// which is itself the algorithm under study.
//
// Callers keep their results independent of the thread count: a slot
// writes only what its index owns, and any buffer that outlives the
// region is sized and allocated on the calling thread before it opens
// (workers only fill it; allocating in a worker grows glibc's per-thread
// arenas, which peak RSS pays for).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace dbfs::util {

/// The threads for_each_slot runs on: omp_get_max_threads() under
/// OpenMP, 1 without it.
int host_threads();

/// A phase whose items plus slots fall below kInlineWork runs on the
/// calling thread. Measured on the 2D fold's and the 1D exchange's phases
/// (EXPERIMENTS.md, "The fold in world phases"): a slot's fixed cost is
/// about one item's (12-25 ns against 10-40 ns), and a parallel region
/// costs about 5 us, which four threads win back only past ~500 items.
inline constexpr std::size_t kInlineWork = std::size_t{1} << 9;
/// The item count of a phase that states none: it always opens a region.
inline constexpr std::size_t kUnsized = static_cast<std::size_t>(-1);

/// Run phase(0) .. phase(count - 1) across the host threads (serially
/// without OpenMP), or on the calling thread when `items` (what the
/// slots process between them) plus `count` is below kInlineWork. A chunk
/// is a quarter of one thread's even share, capped at 16 slots, so a
/// 32-member row group on 4 threads runs as 16 chunks of 2 rather than
/// two chunks of 16. An exception does not stop the other slots: each is
/// caught in its slot, the lowest slot's is kept, and it is rethrown here
/// once every slot has run.
void for_each_slot(std::size_t count,
                   const std::function<void(std::size_t)>& phase,
                   std::size_t items = kUnsized);

/// The items [first, last) of slot `slot` when `count` items are cut into
/// `slots` contiguous ranges whose sizes differ by at most one.
struct SlotRange {
  std::size_t first;
  std::size_t last;
};
SlotRange slot_range(std::size_t count, std::size_t slots,
                     std::size_t slot) noexcept;

/// How many slots a counting sort of `items` into `buckets` cuts its
/// input into: one per host thread, but never so many that the per-slot
/// counters (slots × buckets) outnumber the items.
std::size_t counting_slots(std::size_t items, std::size_t buckets);

/// The bookkeeping of a stable counting sort cut into slots. `counts`
/// holds `slots` rows of per-bucket item counts, slot-major (row s counts
/// the items slot s sends to each bucket). On return each entry holds
/// its slot's first position within the bucket — every item of a lower
/// slot comes first — and the result holds each bucket's total. Placing
/// each slot's items in input order at those positions reproduces the
/// serial placement whatever thread runs which slot.
std::vector<eid_t> slot_starts(std::span<eid_t> counts, std::size_t slots);

}  // namespace dbfs::util
