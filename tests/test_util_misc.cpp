// Mop-up coverage: timers, cluster argument checking, where the
// executor runs a phase.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "simmpi/cluster.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace dbfs {
namespace {

/// For each of `slots` slots of one for_each_slot call sized by `items`:
/// 1 if it ran inside an active parallel region, else 0.
std::vector<int> ran_in_region(std::size_t slots, std::size_t items) {
  std::vector<int> parallel(slots, -1);
  util::for_each_slot(
      slots,
      [&](std::size_t s) {
#ifdef _OPENMP
        parallel[s] = omp_in_parallel() ? 1 : 0;
#else
        parallel[s] = 0;
#endif
      },
      items);
  return parallel;
}

TEST(ForEachSlot, PhaseBelowTheInlineWorkStaysOnTheCallingThread) {
  const test::HostThreads threads(test::kMaxHostThreads);
  constexpr std::size_t kSlots = 16;
  const std::vector<int> inline_run(kSlots, 0);
  const std::vector<int> region(kSlots, test::kMaxHostThreads > 1 ? 1 : 0);
  // Items plus slots below kInlineWork: no region opens.
  EXPECT_EQ(ran_in_region(kSlots, util::kInlineWork - kSlots - 1),
            inline_run);
  EXPECT_EQ(ran_in_region(kSlots, 0), inline_run);
  // At kInlineWork, or with no size stated, the host threads run it.
  EXPECT_EQ(ran_in_region(kSlots, util::kInlineWork - kSlots), region);
  EXPECT_EQ(ran_in_region(util::kInlineWork, 0), std::vector<int>(
                util::kInlineWork, test::kMaxHostThreads > 1 ? 1 : 0));
  EXPECT_EQ(ran_in_region(kSlots, util::kUnsized), region);
}

TEST(Timer, MeasuresElapsedTime) {
  util::Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const double elapsed = t.elapsed();
  EXPECT_GE(elapsed, 0.005);
  EXPECT_LT(elapsed, 5.0);
}

TEST(Timer, ResetRestartsClock) {
  util::Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  t.reset();
  EXPECT_LT(t.elapsed(), 0.01);
}

TEST(AccumTimer, AccumulatesWindows) {
  util::AccumTimer t;
  for (int i = 0; i < 3; ++i) {
    t.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    t.stop();
  }
  EXPECT_GE(t.total(), 0.010);
  t.clear();
  EXPECT_DOUBLE_EQ(t.total(), 0.0);
}

TEST(Cluster, RejectsInvalidConfiguration) {
  EXPECT_THROW(simmpi::Cluster(0, model::generic()), std::invalid_argument);
  EXPECT_THROW(simmpi::Cluster(4, model::generic(), 0),
               std::invalid_argument);
}

TEST(Cluster, AccessorsReflectConstruction) {
  simmpi::Cluster c{6, model::franklin(), 2};
  EXPECT_EQ(c.ranks(), 6);
  EXPECT_EQ(c.threads_per_rank(), 2);
  EXPECT_EQ(c.cores(), 12);
  EXPECT_EQ(c.machine().name, "franklin");
}

}  // namespace
}  // namespace dbfs
