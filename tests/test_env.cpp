// The consolidated SCANPRIM_* environment parser (src/core/env.hpp): every
// subsystem reads its knobs through these helpers, so the contract pinned
// here — malformed values warn ONCE with the offending text and fall back,
// out-of-range values warn and clamp, unset stays silent — holds uniformly
// across SCANPRIM_THREADS, SCANPRIM_SERVE_*, SCANPRIM_SHARD_*, and friends.
#include <gtest/gtest.h>

#include <stdlib.h>

#include "src/core/env.hpp"

namespace scanprim::env {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_warnings(); }
  void TearDown() override {
    ::unsetenv("SCANPRIM_TEST_KNOB");
    reset_warnings();
  }
};

TEST_F(EnvTest, UnsetFallsBackSilently) {
  ::unsetenv("SCANPRIM_TEST_KNOB");
  EXPECT_EQ(size_or("SCANPRIM_TEST_KNOB", 42, 1, 100), 42u);
  EXPECT_TRUE(flag_or("SCANPRIM_TEST_KNOB", true));
  EXPECT_FALSE(flag_or("SCANPRIM_TEST_KNOB", false));
  EXPECT_EQ(warning_count(), 0u);
}

TEST_F(EnvTest, SizeParsesInRange) {
  ::setenv("SCANPRIM_TEST_KNOB", "17", 1);
  EXPECT_EQ(size_or("SCANPRIM_TEST_KNOB", 42, 1, 100), 17u);
  ::setenv("SCANPRIM_TEST_KNOB", "  8 ", 1);  // whitespace tolerated
  EXPECT_EQ(size_or("SCANPRIM_TEST_KNOB", 42, 1, 100), 8u);
  EXPECT_EQ(warning_count(), 0u);
}

TEST_F(EnvTest, SizeMalformedWarnsOnceAndFallsBack) {
  ::setenv("SCANPRIM_TEST_KNOB", "banana", 1);
  EXPECT_EQ(size_or("SCANPRIM_TEST_KNOB", 42, 1, 100), 42u);
  EXPECT_EQ(warning_count(), 1u);
  // Same variable again: the warning already fired; no spam.
  EXPECT_EQ(size_or("SCANPRIM_TEST_KNOB", 42, 1, 100), 42u);
  EXPECT_EQ(warning_count(), 1u);
}

TEST_F(EnvTest, SizeTrailingGarbageIsMalformed) {
  ::setenv("SCANPRIM_TEST_KNOB", "12abc", 1);
  EXPECT_EQ(size_or("SCANPRIM_TEST_KNOB", 42, 1, 100), 42u);
  EXPECT_EQ(warning_count(), 1u);
}

TEST_F(EnvTest, SizeNonPositiveIsMalformed) {
  ::setenv("SCANPRIM_TEST_KNOB", "0", 1);
  EXPECT_EQ(size_or("SCANPRIM_TEST_KNOB", 42, 1, 100), 42u);
  ::setenv("SCANPRIM_TEST_KNOB", "-3", 1);
  reset_warnings();
  EXPECT_EQ(size_or("SCANPRIM_TEST_KNOB", 42, 1, 100), 42u);
  EXPECT_EQ(warning_count(), 1u);
}

// The inputs strtoll would half-accept: overflow, exponent and fraction
// notation, a hex prefix. Each is malformed and takes the fallback.
TEST_F(EnvTest, SizeEdgeSpellingsAreMalformed) {
  for (const char* bad : {"99999999999999999999999999", "-300", "1e9", "3.5",
                          "0x10"}) {
    reset_warnings();
    ::setenv("SCANPRIM_TEST_KNOB", bad, 1);
    EXPECT_EQ(size_or("SCANPRIM_TEST_KNOB", 42, 1, 100), 42u) << bad;
    EXPECT_EQ(warning_count(), 1u) << bad;
  }
}

// The fallback is the caller's own default and comes back as given, even
// outside [min, max]: knobs such as SCANPRIM_NET_PORT use 0 for "not set".
TEST_F(EnvTest, SizeFallbackIsNotClamped) {
  ::unsetenv("SCANPRIM_TEST_KNOB");
  EXPECT_EQ(size_or("SCANPRIM_TEST_KNOB", 1000, 1, 100), 1000u);
  EXPECT_EQ(size_or("SCANPRIM_TEST_KNOB", 0, 1, 100), 0u);
  ::setenv("SCANPRIM_TEST_KNOB", "junk", 1);
  EXPECT_EQ(size_or("SCANPRIM_TEST_KNOB", 1000, 1, 100), 1000u);
  EXPECT_EQ(warning_count(), 1u);
}

TEST_F(EnvTest, SizeOutOfRangeWarnsAndClamps) {
  ::setenv("SCANPRIM_TEST_KNOB", "1000", 1);
  EXPECT_EQ(size_or("SCANPRIM_TEST_KNOB", 42, 1, 100), 100u);  // clamp high
  EXPECT_EQ(warning_count(), 1u);
  reset_warnings();
  ::setenv("SCANPRIM_TEST_KNOB", "2", 1);
  EXPECT_EQ(size_or("SCANPRIM_TEST_KNOB", 42, 10, 100), 10u);  // clamp low
  EXPECT_EQ(warning_count(), 1u);
}

TEST_F(EnvTest, FlagAcceptsTheDocumentedSpellings) {
  for (const char* on : {"1", "on", "true", "ON", "True"}) {
    ::setenv("SCANPRIM_TEST_KNOB", on, 1);
    EXPECT_TRUE(flag_or("SCANPRIM_TEST_KNOB", false)) << on;
  }
  for (const char* off : {"0", "off", "false", "OFF", "False"}) {
    ::setenv("SCANPRIM_TEST_KNOB", off, 1);
    EXPECT_FALSE(flag_or("SCANPRIM_TEST_KNOB", true)) << off;
  }
  EXPECT_EQ(warning_count(), 0u);
}

TEST_F(EnvTest, FlagMalformedWarnsOnceAndFallsBack) {
  ::setenv("SCANPRIM_TEST_KNOB", "maybe", 1);
  EXPECT_TRUE(flag_or("SCANPRIM_TEST_KNOB", true));
  EXPECT_FALSE(flag_or("SCANPRIM_TEST_KNOB", false));
  EXPECT_EQ(warning_count(), 1u);
}

TEST_F(EnvTest, ChoiceMatchesCaseInsensitively) {
  ::setenv("SCANPRIM_TEST_KNOB", "AVX2", 1);
  const int got = choice_or("SCANPRIM_TEST_KNOB",
                            {{"scalar", 0}, {"avx2", 1}, {"avx512", 2}}, -1);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(warning_count(), 0u);
}

TEST_F(EnvTest, ChoiceUnknownTokenWarnsOnceAndFallsBack) {
  ::setenv("SCANPRIM_TEST_KNOB", "sse9", 1);
  const int got = choice_or("SCANPRIM_TEST_KNOB",
                            {{"scalar", 0}, {"avx2", 1}}, -1);
  EXPECT_EQ(got, -1);
  EXPECT_EQ(warning_count(), 1u);
  choice_or("SCANPRIM_TEST_KNOB", {{"scalar", 0}, {"avx2", 1}}, -1);
  EXPECT_EQ(warning_count(), 1u);
}

TEST_F(EnvTest, WarningsArePerVariable) {
  ::setenv("SCANPRIM_TEST_KNOB", "junk", 1);
  ::setenv("SCANPRIM_TEST_KNOB2", "junk", 1);
  size_or("SCANPRIM_TEST_KNOB", 1, 1, 10);
  size_or("SCANPRIM_TEST_KNOB2", 1, 1, 10);
  EXPECT_EQ(warning_count(), 2u);
  ::unsetenv("SCANPRIM_TEST_KNOB2");
}

// The real knobs ride the same helpers: one end-to-end spot check that a
// malformed production variable degrades to its default instead of
// crashing or silently misconfiguring.
TEST_F(EnvTest, ProductionKnobFallsBackOnGarbage) {
  ::setenv("SCANPRIM_TEST_KNOB", "not-a-number", 1);
  EXPECT_EQ(size_or("SCANPRIM_TEST_KNOB", 50, 1, 60'000), 50u);
  EXPECT_EQ(warning_count(), 1u);
}

}  // namespace
}  // namespace scanprim::env
