// Split radix sort (§2.2.1): correctness, stability, step complexity, and
// the float-key extension.
#include "src/algo/radix_sort.hpp"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace scanprim::algo {
namespace {

class RadixSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RadixSweep, SortsUniformKeys) {
  machine::Machine m;
  const auto keys = testutil::random_vector<std::uint64_t>(GetParam(), 121,
                                                           1u << 20);
  const auto sorted = split_radix_sort(m, std::span<const std::uint64_t>(keys), 20);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sorted, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RadixSweep,
                         ::testing::Values(0, 1, 2, 10, 1000, 4097, 65536));

TEST(RadixSort, StepComplexityIsLinearInBits) {
  // O(1) program steps per bit in the scan model (§2.2.1): the per-bit step
  // count must not depend on n.
  const auto count_steps = [](std::size_t n, unsigned bits) {
    machine::Machine m(machine::Model::Scan);
    const auto keys =
        testutil::random_vector<std::uint64_t>(n, 122, std::uint64_t{1} << bits);
    split_radix_sort(m, std::span<const std::uint64_t>(keys), bits);
    return m.stats().steps;
  };
  const auto small = count_steps(1 << 8, 16);
  const auto large = count_steps(1 << 14, 16);
  EXPECT_EQ(small, large);
  // And doubling the bit count doubles the steps.
  EXPECT_EQ(count_steps(1 << 10, 16) * 2, count_steps(1 << 10, 32));
}

TEST(RadixSort, StableOnEqualKeys) {
  machine::Machine m;
  const std::size_t n = 20000;
  const auto keys = testutil::random_vector<std::uint64_t>(n, 123, 16);
  const SortWithOrigin r = split_radix_sort_with_origin(
      m, std::span<const std::uint64_t>(keys), 4);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    ASSERT_LE(r.keys[i], r.keys[i + 1]);
    if (r.keys[i] == r.keys[i + 1]) {
      ASSERT_LT(r.origin[i], r.origin[i + 1]) << "stability violated at " << i;
    }
  }
}

TEST(RadixSort, OriginIsAValidPermutationOfTheInput) {
  machine::Machine m;
  const auto keys = testutil::random_vector<std::uint64_t>(5000, 124, 1000);
  const SortWithOrigin r = split_radix_sort_with_origin(
      m, std::span<const std::uint64_t>(keys), 10);
  std::vector<bool> seen(keys.size(), false);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_LT(r.origin[i], keys.size());
    ASSERT_FALSE(seen[r.origin[i]]);
    seen[r.origin[i]] = true;
    ASSERT_EQ(r.keys[i], keys[r.origin[i]]);
  }
}

TEST(RadixSort, WithOriginAboveTheCutoffGathersToTheKeysStably) {
  machine::Machine m;
  const std::size_t n = (std::size_t{1} << 17) + 5;
  const auto keys = testutil::random_vector<std::uint64_t>(n, 130, 1u << 12);
  const SortWithOrigin r = split_radix_sort_with_origin(
      m, std::span<const std::uint64_t>(keys), 12);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  ASSERT_EQ(r.keys, expect);
  EXPECT_EQ(gathered(std::span<const std::uint64_t>(keys),
                     std::span<const std::size_t>(r.origin)),
            r.keys);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (r.keys[i] == r.keys[i + 1]) {
      ASSERT_LT(r.origin[i], r.origin[i + 1]) << "stability violated at " << i;
    }
  }
}

// The cost model is the paper's, not the kernel's: every StepStats field
// Machine::split and the radix sorts charge is pinned to the values of the
// scan-composition formulation (flag inversion, enumerate, back-enumerate,
// select, permute) they replaced.
struct PinnedStats {
  std::uint64_t steps, elementwise, permutes, scans;
  double bit_cycles;
};

void expect_stats(const machine::Machine& m, const PinnedStats& p,
                  const char* what) {
  const machine::StepStats& s = m.stats();
  EXPECT_EQ(s.steps, p.steps) << what;
  EXPECT_EQ(s.elementwise, p.elementwise) << what;
  EXPECT_EQ(s.permutes, p.permutes) << what;
  EXPECT_EQ(s.scans, p.scans) << what;
  EXPECT_EQ(s.broadcasts, 0u) << what;
  EXPECT_EQ(s.combines, 0u) << what;
  EXPECT_EQ(s.bit_cycles, p.bit_cycles) << what;
}

TEST(RadixSort, CostModelIsPinned) {
  const std::size_t n = 10000;
  const auto keys = testutil::random_vector<std::uint64_t>(n, 131, 1u << 16);
  Flags f(n);
  for (std::size_t i = 0; i < n; ++i) f[i] = keys[i] & 1;
  const std::span<const std::uint64_t> k(keys);
  struct Case {
    machine::Model model;
    std::size_t procs;
    PinnedStats split, split_index, sort, sort_origin;
  };
  const Case cases[] = {
      {machine::Model::Scan, 0, {5, 2, 1, 2, 1828}, {4, 2, 0, 2, 424},
       {96, 48, 16, 32, 30720}, {112, 48, 32, 32, 53184}},
      {machine::Model::EREW, 64, {795, 2, 1, 2, 110852},
       {638, 2, 0, 2, 20360}, {15232, 48, 16, 32, 1854976},
       {17744, 48, 32, 32, 3302848}},
  };
  for (const Case& c : cases) {
    machine::Machine m(c.model, c.procs);
    m.split(k, FlagsView(f));
    expect_stats(m, c.split, "split");
    m.reset_stats();
    m.split_index(FlagsView(f));
    expect_stats(m, c.split_index, "split_index");
    m.reset_stats();
    split_radix_sort(m, k, 16);
    expect_stats(m, c.sort, "split_radix_sort");
    m.reset_stats();
    split_radix_sort_with_origin(m, k, 16);
    expect_stats(m, c.sort_origin, "split_radix_sort_with_origin");
  }
}

TEST(RadixSort, SortsDoublesIncludingNegatives) {
  machine::Machine m;
  auto keys = testutil::random_doubles(8000, 125, -1e6, 1e6);
  keys.push_back(0.0);
  keys.push_back(-1e-12);
  keys.push_back(std::numeric_limits<double>::infinity());
  keys.push_back(-std::numeric_limits<double>::infinity());
  const auto sorted =
      split_radix_sort_doubles(m, std::span<const double>(keys));
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sorted, expect);
}

TEST(RadixSort, MultiDigitVariantsAgree) {
  machine::Machine m;
  const auto keys = testutil::random_vector<std::uint64_t>(20000, 126,
                                                           1u << 16);
  const auto one_bit =
      split_radix_sort(m, std::span<const std::uint64_t>(keys), 16);
  for (const unsigned r : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(split_radix_sort_digits(m, std::span<const std::uint64_t>(keys),
                                      16, r),
              one_bit)
        << "radix bits " << r;
  }
}

TEST(RadixSort, MultiDigitHandlesRaggedWidths) {
  machine::Machine m;
  // 10 bits sorted with 4-bit digits: the last pass covers a partial digit.
  const auto keys = testutil::random_vector<std::uint64_t>(5000, 127, 1u << 10);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(split_radix_sort_digits(m, std::span<const std::uint64_t>(keys),
                                    10, 4),
            expect);
}

TEST(RadixSort, SortPairsCarriesValues) {
  machine::Machine m;
  const auto keys = testutil::random_vector<std::uint64_t>(8000, 129, 256);
  std::vector<std::size_t> payload(keys.size());
  std::iota(payload.begin(), payload.end(), std::size_t{0});
  const auto [sk, sv] = sort_pairs(m, std::span<const std::uint64_t>(keys),
                                   std::span<const std::size_t>(payload), 8);
  ASSERT_TRUE(std::is_sorted(sk.begin(), sk.end()));
  // Every (key, value) pair of the input appears, with its own key, and the
  // sort is stable: equal keys keep ascending payloads.
  for (std::size_t i = 0; i < sk.size(); ++i) {
    ASSERT_EQ(keys[sv[i]], sk[i]);
    if (i > 0 && sk[i - 1] == sk[i]) {
      ASSERT_LT(sv[i - 1], sv[i]);
    }
  }
}

TEST(RadixSort, SortsStringsLexicographically) {
  machine::Machine m;
  auto g = testutil::rng(128);
  std::vector<std::string> words;
  const char* syllables[] = {"scan", "seg", "ment", "tree", "sum", "permute",
                             "pack", "", "a", "zebra"};
  for (int i = 0; i < 3000; ++i) {
    std::string w;
    const std::size_t parts = g() % 4;
    for (std::size_t p = 0; p < parts; ++p) w += syllables[g() % 10];
    words.push_back(w);
  }
  const auto sorted =
      split_radix_sort_strings(m, std::span<const std::string>(words));
  auto expect = words;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sorted, expect);
}

TEST(RadixSort, StringsLongerThanOneChunk) {
  machine::Machine m;
  const std::vector<std::string> words{
      "aaaaaaaaab", "aaaaaaaaaa", "aaaaaaaaa", "b", "aaaaaaaa",
      "aaaaaaaaac", "aaaaaaaaaaaaaaaaaaZ", "aaaaaaaaaaaaaaaaaa"};
  const auto sorted =
      split_radix_sort_strings(m, std::span<const std::string>(words));
  auto expect = words;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sorted, expect);
}

TEST(RadixSort, BitsFor) {
  EXPECT_EQ(bits_for(1), 1u);
  EXPECT_EQ(bits_for(2), 1u);
  EXPECT_EQ(bits_for(3), 2u);
  EXPECT_EQ(bits_for(1024), 10u);
  EXPECT_EQ(bits_for(1025), 11u);
}

TEST(RadixSort, LowBitsOutsideRangeAreIgnored) {
  // Sorting 4-bit keys with bits=4 must order by the low 4 bits only.
  machine::Machine m;
  const std::vector<std::uint64_t> keys{7, 3, 15, 0, 9, 12, 1};
  const auto sorted = split_radix_sort(m, std::span<const std::uint64_t>(keys), 4);
  EXPECT_EQ(sorted, (std::vector<std::uint64_t>{0, 1, 3, 7, 9, 12, 15}));
}

}  // namespace
}  // namespace scanprim::algo
