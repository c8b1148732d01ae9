// Kernel-agreement property suite for the SIMD dispatch tiers (core/simd/):
// for every available tier, the vector kernels must be bit-identical to the
// scalar reference loops across all five operators × {forward, backward} ×
// {inclusive, exclusive} × {segmented, unsegmented} × awkward sizes (0, 1,
// around the register width, around the tile) × misaligned base pointers.
// This is the invariant that lets the engines dispatch on a runtime tier
// without the result ever depending on the machine.
#include "src/core/simd/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <typeinfo>
#include <vector>

#include "src/core/chained_scan.hpp"
#include "src/core/ops.hpp"
#include "src/core/scan.hpp"
#include "src/core/segmented.hpp"
#include "test_util.hpp"

namespace scanprim {
namespace {

class TierGuard {
 public:
  explicit TierGuard(simd::Tier tier) : prev_(simd::active_tier()) {
    simd::set_simd_tier(tier);
  }
  ~TierGuard() { simd::set_simd_tier(prev_); }

 private:
  simd::Tier prev_;
};

std::vector<simd::Tier> available_tiers() {
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  const simd::Tier best = simd::best_supported_tier();
  if (best >= simd::Tier::kAvx2) tiers.push_back(simd::Tier::kAvx2);
  if (best >= simd::Tier::kAvx512) tiers.push_back(simd::Tier::kAvx512);
  return tiers;
}

// Sizes around the widest register (64 bytes) and the byte-based tile for T.
template <class T>
std::vector<std::size_t> awkward_sizes() {
  const std::size_t w = 64 / sizeof(T);
  const std::size_t tile = detail::chained_tile_elements<T>();
  return {0,     1,        2,        w - 1,    w,
          w + 1, 2 * w + 3, tile - 1, tile,     tile + 1};
}

// Runs every kernel entry point under `tier` at a deliberately misaligned
// base pointer (data() + 1 of an over-allocated buffer, so vector loads
// never see a 64-byte-aligned start) and compares bit-for-bit against the
// scalar reference loops.
template <class Op>
void expect_tier_matches_scalar(simd::Tier tier) {
  using T = typename Op::value_type;
  static_assert(simd::vectorizable_v<Op, T>);
  for (const std::size_t n : awkward_sizes<T>()) {
    const auto seed = static_cast<std::uint64_t>(n + 7 * sizeof(T));
    std::vector<T> inbuf = testutil::random_vector<T>(n + 1, seed, 97);
    const Flags fbuf = testutil::random_flags(n + 1, seed + 1, 5);
    const T* in = inbuf.data() + 1;
    const std::uint8_t* flags = fbuf.data() + 1;
    const T carry = static_cast<T>(1);

    for (const std::uint8_t* f : {static_cast<const std::uint8_t*>(nullptr),
                                  flags}) {
      const char* ctx = f == nullptr ? "unsegmented" : "segmented";
      SCOPED_TRACE(::testing::Message()
                   << typeid(Op).name() << " n=" << n << " " << ctx
                   << " tier=" << simd::tier_name(tier));

      std::vector<T> want(n + 1), got(n + 1);
      const auto compare = [&](auto run) {
        std::fill(want.begin(), want.end(), T{});
        std::fill(got.begin(), got.end(), T{});
        T want_carry, got_carry;
        {
          TierGuard g(simd::Tier::kScalar);
          want_carry = run(want.data() + 1);
        }
        {
          TierGuard g(tier);
          got_carry = run(got.data() + 1);
        }
        ASSERT_EQ(want, got);
        ASSERT_EQ(want_carry, got_carry);
      };

      compare([&](T* out) {
        return simd::scan_fwd<T, Op, true>(in, f, out, n, carry);
      });
      compare([&](T* out) {
        return simd::scan_fwd<T, Op, false>(in, f, out, n, carry);
      });
      compare([&](T* out) {
        return simd::scan_bwd<T, Op, true>(in, f, out, n, carry);
      });
      compare([&](T* out) {
        return simd::scan_bwd<T, Op, false>(in, f, out, n, carry);
      });
      compare([&](T*) {
        bool saw = false;
        return simd::reduce_fwd<T, Op>(in, f, n, carry, &saw);
      });
      compare([&](T*) {
        bool saw = false;
        return simd::reduce_bwd<T, Op>(in, f, n, carry, &saw);
      });

      // The segmented saw_flag report must agree with a plain flag check.
      if (f != nullptr) {
        TierGuard g(tier);
        bool saw_f = false, saw_b = false;
        simd::reduce_fwd<T, Op>(in, f, n, Op::identity(), &saw_f);
        simd::reduce_bwd<T, Op>(in, f, n, Op::identity(), &saw_b);
        ASSERT_EQ(saw_f, simd::any_flag(f, n));
        ASSERT_EQ(saw_b, simd::any_flag(f, n));
      }
    }
  }
}

class SimdTiers : public ::testing::TestWithParam<simd::Tier> {};

TEST_P(SimdTiers, PlusKernelsMatchScalar) {
  expect_tier_matches_scalar<Plus<std::int64_t>>(GetParam());
  expect_tier_matches_scalar<Plus<std::int32_t>>(GetParam());
  expect_tier_matches_scalar<Plus<std::uint8_t>>(GetParam());
}

TEST_P(SimdTiers, MaxMinKernelsMatchScalar) {
  expect_tier_matches_scalar<Max<std::int64_t>>(GetParam());
  expect_tier_matches_scalar<Max<std::int16_t>>(GetParam());
  expect_tier_matches_scalar<Min<std::int64_t>>(GetParam());
  expect_tier_matches_scalar<Min<std::uint32_t>>(GetParam());
}

TEST_P(SimdTiers, OrAndKernelsMatchScalar) {
  expect_tier_matches_scalar<Or<std::uint8_t>>(GetParam());
  expect_tier_matches_scalar<And<std::uint8_t>>(GetParam());
  expect_tier_matches_scalar<Or<std::uint64_t>>(GetParam());
  expect_tier_matches_scalar<And<std::uint64_t>>(GetParam());
}

// The public scans must give identical bytes whatever the tier — segment
// boundaries, carries, and tails included.
TEST_P(SimdTiers, FullScansBitMatchAcrossTiers) {
  const std::size_t n = 3 * detail::chained_tile_elements<long>() + 41;
  const auto in = testutil::random_vector<long>(n, 77);
  const Flags f = testutil::random_flags(n, 78, 13);
  const std::span<const long> s(in);

  std::vector<long> scalar(n), tiered(n);
  const auto both = [&](auto run) {
    {
      TierGuard g(simd::Tier::kScalar);
      run(std::span<long>(scalar));
    }
    {
      TierGuard g(GetParam());
      run(std::span<long>(tiered));
    }
    ASSERT_EQ(scalar, tiered);
  };
  both([&](std::span<long> o) { exclusive_scan(s, o, Plus<long>{}); });
  both([&](std::span<long> o) { inclusive_scan(s, o, Max<long>{}); });
  both([&](std::span<long> o) { backward_exclusive_scan(s, o, Plus<long>{}); });
  both([&](std::span<long> o) { backward_inclusive_scan(s, o, Min<long>{}); });
  both([&](std::span<long> o) {
    seg_exclusive_scan(s, FlagsView(f), o, Plus<long>{});
  });
  both([&](std::span<long> o) {
    seg_backward_inclusive_scan(s, FlagsView(f), o, Plus<long>{});
  });

  TierGuard g(GetParam());
  std::vector<long> out(n);
  seg_inclusive_scan(s, FlagsView(f), std::span<long>(out), Plus<long>{});
  EXPECT_EQ(out, testutil::ref_seg_inclusive_scan(s, FlagsView(f),
                                                  Plus<long>{}));
}

// Integer + wraps mod 2^64 (core/ops.hpp). Runs of INT64_MAX and INT64_MIN
// overflow on almost every element; every tier, every flavour, and the
// chained engine above the serial cutoff must give the result an unsigned
// accumulator gives, with no UBSan report.
TEST_P(SimdTiers, Int64ExtremesWrapOnEveryTier) {
  using I = std::int64_t;
  constexpr I kMax = std::numeric_limits<I>::max();
  constexpr I kMin = std::numeric_limits<I>::min();
  TierGuard g(GetParam());
  std::vector<std::size_t> sizes = awkward_sizes<I>();
  sizes.push_back(3 * detail::chained_tile_elements<I>() + 41);
  for (const std::size_t n : sizes) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    std::vector<I> in(n);
    for (std::size_t i = 0; i < n; ++i) in[i] = i % 3 == 2 ? kMin : kMax;
    const Flags f = testutil::random_flags(n, n + 5, 11);
    const std::span<const I> s(in);
    const FlagsView fv(f);

    std::vector<I> want(n), got(n);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = static_cast<I>(acc);
      acc += static_cast<std::uint64_t>(in[i]);
    }
    exclusive_scan(s, std::span<I>(got), Plus<I>{});
    ASSERT_EQ(got, want);
    ASSERT_EQ(reduce(s, Plus<I>{}), static_cast<I>(acc));

    inclusive_scan(s, std::span<I>(got), Plus<I>{});
    ASSERT_EQ(got, testutil::ref_inclusive_scan(s, Plus<I>{}));
    backward_exclusive_scan(s, std::span<I>(got), Plus<I>{});
    ASSERT_EQ(got, testutil::ref_backward_exclusive_scan(s, Plus<I>{}));
    seg_inclusive_scan(s, fv, std::span<I>(got), Plus<I>{});
    ASSERT_EQ(got, testutil::ref_seg_inclusive_scan(s, fv, Plus<I>{}));
    seg_backward_exclusive_scan(s, fv, std::span<I>(got), Plus<I>{});
    ASSERT_EQ(got, testutil::ref_seg_backward_exclusive_scan(s, fv, Plus<I>{}));
    inclusive_scan(s, std::span<I>(got), Max<I>{});
    ASSERT_EQ(got, testutil::ref_inclusive_scan(s, Max<I>{}));
    backward_exclusive_scan(s, std::span<I>(got), Min<I>{});
    ASSERT_EQ(got, testutil::ref_backward_exclusive_scan(s, Min<I>{}));
  }
}

INSTANTIATE_TEST_SUITE_P(Available, SimdTiers,
                         ::testing::ValuesIn(available_tiers()),
                         [](const auto& info) {
                           return std::string(simd::tier_name(info.param));
                         });

// The wrap rule of core/ops.hpp, outside the vector kernels: the paper's
// example of three INT64_MAX values, Times on both signed and promoted
// short types, and the serve batcher's job scans.
TEST(IntegerWrap, OperatorsAndBatchPathWrap) {
  using I = std::int64_t;
  constexpr I kMax = std::numeric_limits<I>::max();
  constexpr I kMin = std::numeric_limits<I>::min();
  EXPECT_EQ(plus_scan(std::span<const I>(std::vector<I>{kMax, kMax, kMax})),
            (std::vector<I>{0, kMax, -2}));
  EXPECT_EQ(Plus<I>{}(kMin, -1), kMax);
  EXPECT_EQ(Times<I>{}(kMax, 2), -2);
  EXPECT_EQ(Times<I>{}(kMin, -1), kMin);
  EXPECT_EQ(Times<std::int16_t>{}(32767, 32767), 1);
  EXPECT_EQ(Times<std::uint16_t>{}(65535, 65535), 1);

  std::vector<batch::Value> data{kMax, kMax, kMax};
  batch::JobSlice job;  // kPlus, exclusive, one segment
  job.data = data.data();
  job.n = data.size();
  batch::seg_scan_jobs(std::span<const batch::JobSlice>(&job, 1), false);
  EXPECT_EQ(data, (std::vector<batch::Value>{0, kMax, -2}));
}

TEST(SimdDispatch, TierOverrideClampsAndNames) {
  const simd::Tier prev = simd::active_tier();
  simd::set_simd_tier(simd::Tier::kScalar);
  EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
  simd::set_simd_tier(simd::Tier::kAvx512);
  EXPECT_LE(simd::active_tier(), simd::best_supported_tier());
  simd::set_simd_tier(prev);

  EXPECT_STREQ(simd::tier_name(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kAvx2), "avx2");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kAvx512), "avx512");
}

TEST(SimdDispatch, AnyFlagFindsLoneFlagAtEveryPosition) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                              std::size_t{257}}) {
    Flags f(n, 0);
    EXPECT_FALSE(simd::any_flag(f.data(), n));
    for (std::size_t i = 0; i < n; ++i) {
      f[i] = 1;
      EXPECT_TRUE(simd::any_flag(f.data(), n)) << "flag at " << i;
      f[i] = 0;
    }
  }
  EXPECT_FALSE(simd::any_flag(nullptr, 0));
}

// Floats must never take a vector tier (re-association is not bit-exact
// there), and operators without a kernel stay scalar by construction.
TEST(SimdDispatch, VectorizabilityIsIntegralOnly) {
  static_assert(simd::vectorizable_v<Plus<std::int64_t>, std::int64_t>);
  static_assert(simd::vectorizable_v<Or<std::uint8_t>, std::uint8_t>);
  static_assert(!simd::vectorizable_v<Plus<double>, double>);
  static_assert(!simd::vectorizable_v<Max<float>, float>);
  static_assert(!simd::vectorizable_v<Times<std::int64_t>, std::int64_t>);
  static_assert(!simd::vectorizable_v<Plus<std::int64_t>, std::int32_t>);
}

}  // namespace
}  // namespace scanprim
