#include "src/core/runtime.hpp"

#include <string>

#include <gtest/gtest.h>

namespace scanprim {
namespace {

TEST(Runtime, BoundsCheckingRoundTrips) {
  const bool prev = bounds_checking();
  set_bounds_checking(false);
  EXPECT_FALSE(bounds_checking());
  set_bounds_checking(true);
  EXPECT_TRUE(bounds_checking());
  set_bounds_checking(prev);
}

TEST(Runtime, WorkersIsPositive) { EXPECT_GE(runtime_workers(), 1u); }

TEST(Runtime, VersionIsNonEmpty) {
  ASSERT_NE(version(), nullptr);
  EXPECT_FALSE(std::string(version()).empty());
}

}  // namespace
}  // namespace scanprim
