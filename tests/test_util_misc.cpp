// Mop-up coverage: timers, cluster argument checking.
#include <gtest/gtest.h>

#include <thread>

#include "simmpi/cluster.hpp"
#include "util/timer.hpp"

namespace dbfs {
namespace {

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
