#include "util/options.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace dbfs::util {
namespace {

class OptionsTest : public ::testing::Test {
 protected:
  void SetEnv(const char* name, const char* value) {
    ::setenv(name, value, 1);
    set_.push_back(name);
  }

  void TearDown() override {
    for (const char* name : set_) ::unsetenv(name);
  }

  std::vector<const char*> set_;
};

TEST_F(OptionsTest, EnvIntFallsBackWhenUnset) {
  ::unsetenv("DISTBFS_TEST_INT");
  EXPECT_EQ(env_int("DISTBFS_TEST_INT", 7), 7);
}

TEST_F(OptionsTest, EnvIntParsesValue) {
  SetEnv("DISTBFS_TEST_INT", "42");
  EXPECT_EQ(env_int("DISTBFS_TEST_INT", 7), 42);
}

TEST_F(OptionsTest, EnvIntNegative) {
  SetEnv("DISTBFS_TEST_INT", "-13");
  EXPECT_EQ(env_int("DISTBFS_TEST_INT", 7), -13);
}

TEST_F(OptionsTest, EnvIntGarbageFallsBack) {
  SetEnv("DISTBFS_TEST_INT", "zebra");
  EXPECT_EQ(env_int("DISTBFS_TEST_INT", 7), 7);
}

TEST_F(OptionsTest, EnvFlagSemantics) {
  ::unsetenv("DISTBFS_TEST_FLAG");
  EXPECT_FALSE(env_flag("DISTBFS_TEST_FLAG"));
  SetEnv("DISTBFS_TEST_FLAG", "1");
  EXPECT_TRUE(env_flag("DISTBFS_TEST_FLAG"));
  SetEnv("DISTBFS_TEST_FLAG", "0");
  EXPECT_FALSE(env_flag("DISTBFS_TEST_FLAG"));
  SetEnv("DISTBFS_TEST_FLAG", "false");
  EXPECT_FALSE(env_flag("DISTBFS_TEST_FLAG"));
  SetEnv("DISTBFS_TEST_FLAG", "yes");
  EXPECT_TRUE(env_flag("DISTBFS_TEST_FLAG"));
}

TEST_F(OptionsTest, BenchScaleHonorsOverride) {
  ::unsetenv("DISTBFS_FAST");
  SetEnv("DISTBFS_SCALE", "18");
  EXPECT_EQ(bench_scale(14), 18);
}

TEST_F(OptionsTest, BenchScaleFastShrinks) {
  ::unsetenv("DISTBFS_SCALE");
  SetEnv("DISTBFS_FAST", "1");
  EXPECT_EQ(bench_scale(16), 12);
  EXPECT_EQ(bench_scale(12), 10);  // floor at 10
}

}  // namespace
}  // namespace dbfs::util
