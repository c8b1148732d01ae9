// The §2.2 / §2.4 / §2.5 vector operations: enumerate, copy, distribute,
// split, pack, allocate — unit behaviour and randomized properties.
#include "src/core/primitives.hpp"

#include <numeric>

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace scanprim {
namespace {

TEST(Enumerate, PaperFigure1) {
  const Flags flag{1, 0, 0, 1, 0, 1, 1, 0};
  EXPECT_EQ(enumerate(FlagsView(flag)),
            (std::vector<std::size_t>{0, 1, 1, 1, 2, 2, 3, 4}));
}

TEST(Copy, PaperFigure1) {
  const std::vector<int> a{5, 1, 3, 4, 3, 9, 2, 6};
  EXPECT_EQ(copy(std::span<const int>(a)), std::vector<int>(8, 5));
}

TEST(Distribute, PaperFigure1) {
  const std::vector<int> b{1, 1, 2, 1, 1, 2, 1, 1};
  EXPECT_EQ(distribute(std::span<const int>(b), Plus<int>{}),
            std::vector<int>(8, 10));
}

TEST(Enumerate, CountsFlagsBeforeEachPosition) {
  const Flags f = testutil::random_flags(50000, 41, 3);
  const auto e = enumerate(FlagsView(f));
  std::size_t count = 0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    ASSERT_EQ(e[i], count);
    if (f[i]) ++count;
  }
  EXPECT_EQ(count_flags(FlagsView(f)), count);
}

TEST(BackEnumerate, CountsFlagsAboveEachPosition) {
  const Flags f = testutil::random_flags(20000, 42, 4);
  const auto e = back_enumerate(FlagsView(f));
  std::size_t count = 0;
  for (std::size_t i = f.size(); i-- > 0;) {
    ASSERT_EQ(e[i], count);
    if (f[i]) ++count;
  }
}

TEST(Permute, IsTheInverseOfItsIndexVector) {
  const std::size_t n = 30000;
  auto in = testutil::random_vector<long>(n, 43);
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::shuffle(idx.begin(), idx.end(), testutil::rng(44));
  const auto out = permuted(std::span<const long>(in),
                            std::span<const std::size_t>(idx));
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[idx[i]], in[i]);
  // gather with the same index vector undoes the permute.
  EXPECT_EQ(gathered(std::span<const long>(out),
                     std::span<const std::size_t>(idx)),
            in);
}

// The bounds checks must survive release builds: assert-only checking
// vanishes under NDEBUG and a bad index vector would silently scribble over
// memory. Out-of-range indices throw; duplicate (non-EREW) indices are
// memory-safe — some write wins, nothing lands outside the destination.
TEST(Permute, OutOfRangeIndexThrows) {
  const std::vector<long> in{1, 2, 3};
  std::vector<long> out(3);
  const std::vector<std::size_t> bad{0, 7, 2};  // 7 >= out.size()
  EXPECT_THROW(permute(std::span<const long>(in),
                       std::span<const std::size_t>(bad),
                       std::span<long>(out)),
               std::out_of_range);
  // Parallel path too: one bad index deep inside a large vector.
  const std::size_t n = 50000;
  const auto big = testutil::random_vector<long>(n, 71);
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  idx[n - 7] = n + 1000;
  std::vector<long> big_out(n);
  EXPECT_THROW(permute(std::span<const long>(big),
                       std::span<const std::size_t>(idx),
                       std::span<long>(big_out)),
               std::out_of_range);
}

TEST(Gather, OutOfRangeIndexThrows) {
  const std::vector<long> in{1, 2, 3};
  std::vector<long> out(2);
  const std::vector<std::size_t> bad{1, 3};  // 3 >= in.size()
  EXPECT_THROW(gather(std::span<const long>(in),
                      std::span<const std::size_t>(bad), std::span<long>(out)),
               std::out_of_range);
}

TEST(Permute, DuplicateIndicesAreMemorySafe) {
  const std::vector<long> in{10, 20, 30, 40};
  std::vector<long> out(4, -1);
  const std::vector<std::size_t> dup{2, 2, 2, 2};
  permute(std::span<const long>(in), std::span<const std::size_t>(dup),
          std::span<long>(out));
  EXPECT_TRUE(out[2] == 10 || out[2] == 20 || out[2] == 30 || out[2] == 40);
  EXPECT_EQ(out[0], -1);
  EXPECT_EQ(out[1], -1);
  EXPECT_EQ(out[3], -1);
}

TEST(Permute, BoundsCheckingCanBeDisabled) {
  ASSERT_TRUE(bounds_checking());  // on by default
  set_bounds_checking(false);
  EXPECT_FALSE(bounds_checking());
  // In-range traffic still works with the check compiled out of the loop.
  const std::vector<long> in{5, 6};
  std::vector<long> out(2);
  const std::vector<std::size_t> idx{1, 0};
  permute(std::span<const long>(in), std::span<const std::size_t>(idx),
          std::span<long>(out));
  EXPECT_EQ(out, (std::vector<long>{6, 5}));
  set_bounds_checking(true);
}

TEST(Split, PaperFigure3) {
  const std::vector<int> a{5, 7, 3, 1, 4, 2, 7, 2};
  const Flags flags{1, 1, 1, 1, 0, 0, 1, 0};
  const auto idx = split_index(FlagsView(flags));
  EXPECT_EQ(idx, (std::vector<std::size_t>{3, 4, 5, 6, 0, 1, 7, 2}));
  EXPECT_EQ(split(std::span<const int>(a), FlagsView(flags)),
            (std::vector<int>{4, 2, 2, 5, 7, 3, 1, 7}));
}

TEST(Split, StableAndPartitioned) {
  const std::size_t n = 40000;
  const auto in = testutil::random_vector<long>(n, 45);
  Flags f(n);
  for (std::size_t i = 0; i < n; ++i) f[i] = (in[i] % 2) != 0;
  const auto out = split(std::span<const long>(in), FlagsView(f));
  // All evens first (order kept), then all odds (order kept).
  std::vector<long> expect;
  for (long v : in) {
    if (v % 2 == 0) expect.push_back(v);
  }
  for (long v : in) {
    if (v % 2 != 0) expect.push_back(v);
  }
  EXPECT_EQ(out, expect);
}

// The blocked split kernel against a sequential stable partition, across
// the serial cutoff, sizes that do not divide among the workers, and flag
// patterns that leave blocks all-zero, all-one or mixed.
std::vector<Flags> split_flag_patterns(std::size_t n) {
  Flags zeros(n, 0), ones(n, 1), alternating(n), run(n, 0), random(n);
  for (std::size_t i = 0; i < n; ++i) alternating[i] = i % 2;
  for (std::size_t i = n / 3; i < n - n / 3; ++i) run[i] = 1;
  auto g = testutil::rng(48 + n);
  for (auto& f : random) f = g() % 2 ? 7 : 0;  // any nonzero byte is a 1
  return {zeros, ones, alternating, run, random};
}

TEST(Split, MatchesSequentialStablePartition) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{4095},
        std::size_t{4096}, std::size_t{4097}, std::size_t{4099},
        std::size_t{10007}, std::size_t{65543},
        (std::size_t{1} << 18) + 3}) {
    const auto in = testutil::random_vector<long>(n, 49 + n, 1u << 30);
    for (const Flags& f : split_flag_patterns(n)) {
      std::vector<long> expect;
      std::vector<std::size_t> expect_index(n);
      for (const bool side : {false, true}) {
        for (std::size_t i = 0; i < n; ++i) {
          if ((f[i] != 0) != side) continue;
          expect_index[i] = expect.size();
          expect.push_back(in[i]);
        }
      }
      ASSERT_EQ(split(std::span<const long>(in), FlagsView(f)), expect)
          << "n=" << n;
      const auto index = split_index(FlagsView(f));
      ASSERT_EQ(index, expect_index) << "n=" << n;
      std::vector<bool> hit(n, false);
      for (const std::size_t d : index) {
        ASSERT_LT(d, n);
        ASSERT_FALSE(hit[d]) << "index is not a permutation, n=" << n;
        hit[d] = true;
      }
    }
  }
}

TEST(Pack, KeepsExactlyTheFlaggedElementsInOrder) {
  const std::size_t n = 30000;
  const auto in = testutil::random_vector<long>(n, 46);
  const Flags f = testutil::random_flags(n, 47, 2);
  const auto out = pack(std::span<const long>(in), FlagsView(f));
  std::vector<long> expect;
  for (std::size_t i = 0; i < n; ++i) {
    if (f[i]) expect.push_back(in[i]);
  }
  EXPECT_EQ(out, expect);
  const auto idx = pack_index(FlagsView(f));
  ASSERT_EQ(idx.size(), expect.size());
  for (std::size_t j = 0; j < idx.size(); ++j) ASSERT_EQ(in[idx[j]], expect[j]);
}

TEST(Pack, EmptyAndBoundaryKeptCounts) {
  // `kept` comes from the enumerate scan's final carry; the edges are the
  // empty input and a set/unset last flag.
  const std::vector<long> none;
  EXPECT_TRUE(pack(std::span<const long>(none), FlagsView(Flags{})).empty());
  EXPECT_TRUE(pack_index(FlagsView(Flags{})).empty());
  EXPECT_EQ(count_flags(FlagsView(Flags{})), 0u);

  const std::vector<long> in{1, 2, 3, 4};
  EXPECT_EQ(pack(std::span<const long>(in), FlagsView(Flags{0, 1, 0, 1})),
            (std::vector<long>{2, 4}));
  EXPECT_EQ(pack(std::span<const long>(in), FlagsView(Flags{1, 0, 1, 0})),
            (std::vector<long>{1, 3}));
  EXPECT_EQ(pack(std::span<const long>(in), FlagsView(Flags{0, 0, 0, 0})),
            std::vector<long>{});
  EXPECT_EQ(pack(std::span<const long>(in), FlagsView(Flags{1, 1, 1, 1})), in);
}

TEST(CountFlags, MatchesSerialCountAcrossSizes) {
  for (const std::size_t n : {0u, 1u, 4095u, 4096u, 100001u}) {
    const Flags f = testutil::random_flags(n, 72 + n, 3);
    std::size_t expect = 0;
    for (auto v : f) expect += v ? 1 : 0;
    EXPECT_EQ(count_flags(FlagsView(f)), expect);
  }
}

TEST(SegCopy, SpreadsSegmentHeads) {
  const std::size_t n = 30000;
  const auto in = testutil::random_vector<long>(n, 48);
  const Flags f = testutil::random_flags(n, 49, 6);
  const auto out = seg_copy(std::span<const long>(in), FlagsView(f));
  long head = in[0];
  for (std::size_t i = 0; i < n; ++i) {
    if (f[i]) head = in[i];
    ASSERT_EQ(out[i], head);
  }
}

TEST(SegDistribute, SpreadsSegmentReductions) {
  const std::size_t n = 20000;
  const auto in = testutil::random_vector<long>(n, 50);
  const Flags f = testutil::random_flags(n, 51, 9);
  const auto out =
      seg_distribute(std::span<const long>(in), FlagsView(f), Plus<long>{});
  // Reference: compute per-segment sums.
  std::size_t start = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (i == n || f[i]) {
      long total = 0;
      for (std::size_t j = start; j < i; ++j) total += in[j];
      for (std::size_t j = start; j < i; ++j) ASSERT_EQ(out[j], total);
      start = i;
    }
  }
}

TEST(Allocate, PaperFigure8) {
  const std::vector<std::size_t> a{4, 1, 3};
  const Allocation alloc = allocate(std::span<const std::size_t>(a));
  EXPECT_EQ(alloc.offsets, (std::vector<std::size_t>{0, 4, 5}));
  EXPECT_EQ(alloc.total, 8u);
  EXPECT_EQ(alloc.segment_flags, (Flags{1, 0, 0, 0, 1, 1, 0, 0}));
  const std::vector<char> v{'a', 'b', 'c'};
  EXPECT_EQ(distribute_to_segments(std::span<const char>(v), alloc),
            (std::vector<char>{'a', 'a', 'a', 'a', 'b', 'c', 'c', 'c'}));
}

TEST(Allocate, ZeroSizedRequestsVanish) {
  const std::vector<std::size_t> a{2, 0, 0, 3, 0, 1};
  const Allocation alloc = allocate(std::span<const std::size_t>(a));
  EXPECT_EQ(alloc.total, 6u);
  EXPECT_EQ(alloc.segment_flags, (Flags{1, 0, 1, 0, 0, 1}));
  const std::vector<int> v{10, 20, 30, 40, 50, 60};
  EXPECT_EQ(distribute_to_segments(std::span<const int>(v), alloc),
            (std::vector<int>{10, 10, 40, 40, 40, 60}));
}

TEST(Allocate, EmptyInput) {
  const Allocation alloc = allocate(std::span<const std::size_t>{});
  EXPECT_TRUE(alloc.offsets.empty());
  EXPECT_EQ(alloc.total, 0u);
  EXPECT_TRUE(alloc.segment_flags.empty());
  EXPECT_TRUE(
      distribute_to_segments(std::span<const int>{}, alloc).empty());
}

TEST(Allocate, AllZeroSizes) {
  const std::vector<std::size_t> sizes(100, 0);
  const Allocation alloc = allocate(std::span<const std::size_t>(sizes));
  EXPECT_EQ(alloc.total, 0u);
  EXPECT_EQ(alloc.offsets, std::vector<std::size_t>(100, 0));
  EXPECT_TRUE(alloc.segment_flags.empty());
  const std::vector<int> values(100, 7);
  EXPECT_TRUE(
      distribute_to_segments(std::span<const int>(values), alloc).empty());
}

TEST(Allocate, RandomizedTotalsAndSegments) {
  const auto sizes = testutil::random_vector<std::size_t>(5000, 52, 5);
  const Allocation alloc = allocate(std::span<const std::size_t>(sizes));
  std::size_t total = 0;
  for (auto s : sizes) total += s;
  ASSERT_EQ(alloc.total, total);
  std::size_t flags = 0, nonzero = 0;
  for (auto f : alloc.segment_flags) flags += f;
  for (auto s : sizes) nonzero += s > 0;
  EXPECT_EQ(flags, nonzero);
}

TEST(MapZip, Elementwise) {
  const auto a = testutil::random_vector<long>(10000, 53);
  const auto b = testutil::random_vector<long>(10000, 54);
  const auto doubled =
      mapped<long>(std::span<const long>(a), [](long v) { return 2 * v; });
  const auto sums = zipped<long>(std::span<const long>(a),
                                 std::span<const long>(b),
                                 [](long x, long y) { return x + y; });
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(doubled[i], 2 * a[i]);
    ASSERT_EQ(sums[i], a[i] + b[i]);
  }
}

}  // namespace
}  // namespace scanprim
