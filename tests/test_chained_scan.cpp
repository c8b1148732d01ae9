// The single-pass chained scan engine (core/chained_scan.hpp) against the
// sequential references of test_util.hpp: every operator x direction x
// segmentation, the fused executor's scan and pack groups, and the
// protocol's boundary cases — empty and length-1 inputs, segment flags
// landing exactly on tile and worker-block boundaries, all-flags / no-flags
// inputs, and out == in aliasing.
#include "src/core/chained_scan.hpp"

#include <gtest/gtest.h>

#include <random>
#include <span>
#include <vector>

#include "src/core/primitives.hpp"
#include "src/core/scan.hpp"
#include "src/core/segmented.hpp"
#include "src/exec/executor.hpp"
#include "src/fault/fault.hpp"
#include "test_util.hpp"

namespace scanprim {
namespace {

template <class T, class Scan, class Ref>
void expect_matches_reference(std::span<const T> in, Scan scan, Ref ref) {
  std::vector<T> out(in.size());
  scan(in, std::span<T>(out));
  ASSERT_EQ(out, ref(in));
}

// Sizes around the serial cutoff, the tile size, and well past both, so the
// protocol runs with one tile, a partial last tile, and many tiles.
std::vector<std::size_t> engine_sizes() {
  const std::size_t tile = detail::kChainedTileElements;
  return {0,        1,        2,         tile - 1,    tile,
          tile + 1, 3 * tile, 4 * tile + 123, 100001, 1u << 17};
}

class ChainedSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChainedSweep, AllOperatorsAllDirectionsMatchReference) {
  const std::size_t n = GetParam();
  const auto longs = testutil::random_vector<long>(n, 31);
  const auto bytes = testutil::random_vector<std::uint8_t>(n, 32, 2);
  const std::span<const long> ls(longs);
  const std::span<const std::uint8_t> bs(bytes);

  const auto check = [](auto in, auto op) {
    using T = typename decltype(op)::value_type;
    using OpT = decltype(op);
    expect_matches_reference(
        in, [](std::span<const T> i, std::span<T> o) {
          exclusive_scan(i, o, OpT{});
        },
        [](std::span<const T> i) {
          return testutil::ref_exclusive_scan(i, OpT{});
        });
    expect_matches_reference(
        in, [](std::span<const T> i, std::span<T> o) {
          inclusive_scan(i, o, OpT{});
        },
        [](std::span<const T> i) {
          return testutil::ref_inclusive_scan(i, OpT{});
        });
    expect_matches_reference(
        in, [](std::span<const T> i, std::span<T> o) {
          backward_exclusive_scan(i, o, OpT{});
        },
        [](std::span<const T> i) {
          return testutil::ref_backward_exclusive_scan(i, OpT{});
        });
    expect_matches_reference(
        in, [](std::span<const T> i, std::span<T> o) {
          backward_inclusive_scan(i, o, OpT{});
        },
        [](std::span<const T> i) {
          return testutil::ref_backward_inclusive_scan(i, OpT{});
        });
  };
  check(ls, Plus<long>{});
  check(ls, Max<long>{});
  check(ls, Min<long>{});
  check(bs, Or<std::uint8_t>{});
  check(bs, And<std::uint8_t>{});
}

TEST_P(ChainedSweep, SegmentedScansMatchReference) {
  const std::size_t n = GetParam();
  const auto in = testutil::random_vector<long>(n, 33);
  const Flags f = testutil::random_flags(n, 34, 97);
  const std::span<const long> s(in);
  const FlagsView fv(f);
  std::vector<long> out(n);
  const std::span<long> o(out);

  seg_exclusive_scan(s, fv, o, Plus<long>{});
  ASSERT_EQ(out, testutil::ref_seg_exclusive_scan(s, fv, Plus<long>{}));
  seg_inclusive_scan(s, fv, o, Max<long>{});
  ASSERT_EQ(out, testutil::ref_seg_inclusive_scan(s, fv, Max<long>{}));
  seg_backward_exclusive_scan(s, fv, o, Plus<long>{});
  ASSERT_EQ(out,
            testutil::ref_seg_backward_exclusive_scan(s, fv, Plus<long>{}));
  seg_backward_inclusive_scan(s, fv, o, Min<long>{});
  ASSERT_EQ(out,
            testutil::ref_seg_backward_inclusive_scan(s, fv, Min<long>{}));
}

// Sequential pack: the flagged elements of `in`, in order.
template <class T>
std::vector<T> ref_pack(const std::vector<T>& in, FlagsView keep) {
  std::vector<T> out;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (keep[i]) out.push_back(in[i]);
  }
  return out;
}

// Multi-block pack groups carry (scan carry, kept count) through the chained
// lookback; each shape is checked against the scan reference composed with
// the sequential pack.
TEST_P(ChainedSweep, ExecutorPackGroupsMatchReference) {
  using U = std::uint32_t;
  const std::size_t n = GetParam();
  const auto in = testutil::random_vector<U>(n, 48, 1u << 20);
  const auto keep = testutil::random_vector<std::uint8_t>(n, 49, 2);
  const Flags f = testutil::random_flags(n, 50, 97);
  const std::span<const U> s(in);
  const FlagsView kv(keep);
  const FlagsView fv(f);
  exec::Executor ex;

  // Forward scan | pack: one chained dispatch once the pool is in play.
  EXPECT_EQ(ex.run(exec::source(s) | exec::scan<Plus>() | exec::pack(kv)),
            ref_pack(testutil::ref_exclusive_scan(s, Plus<U>{}), kv));
  if (thread::num_workers() > 1 && n >= thread::kSerialCutoff) {
    EXPECT_EQ(ex.stats().pool_dispatches, 1u);
  }

  // Pre- and post-scan stages fused around the scan.
  std::vector<U> pre(n);
  for (std::size_t i = 0; i < n; ++i) pre[i] = in[i] + 3;
  auto expect = testutil::ref_inclusive_scan(std::span<const U>(pre),
                                             Plus<U>{});
  for (U& v : expect) v *= 2;
  EXPECT_EQ(ex.run(exec::source(s) | exec::map([](U v) { return v + 3; }) |
                   exec::inclusive_scan<Plus>() |
                   exec::map([](U v) { return 2 * v; }) | exec::pack(kv)),
            ref_pack(expect, kv));

  // Scan-less pack: only the kept count travels.
  std::vector<U> xored(in);
  for (U& v : xored) v ^= 5;
  EXPECT_EQ(ex.run(exec::source(s) | exec::map([](U v) { return v ^ 5; }) |
                   exec::pack(kv)),
            ref_pack(xored, kv));

  // Backward: each tile fills its output top-down from the total.
  EXPECT_EQ(ex.run(exec::source(s) | exec::backscan<Max>() | exec::pack(kv)),
            ref_pack(testutil::ref_backward_exclusive_scan(s, Max<U>{}), kv));

  // Segmented, both directions: the scan carry resets inside the pack carry
  // while kept counts run across segment boundaries.
  EXPECT_EQ(
      ex.run(exec::source(s) | exec::seg_scan<Plus>(fv) | exec::pack(kv)),
      ref_pack(testutil::ref_seg_exclusive_scan(s, fv, Plus<U>{}), kv));
  EXPECT_EQ(ex.run(exec::source(s) | exec::seg_back_inclusive_scan<Min>(fv) |
                   exec::pack(kv)),
            ref_pack(testutil::ref_seg_backward_inclusive_scan(s, fv,
                                                               Min<U>{}),
                     kv));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChainedSweep,
                         ::testing::ValuesIn(engine_sizes()));

TEST(ChainedScan, EmptyAndLengthOneEveryFlavour) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}}) {
    const auto in = testutil::random_vector<long>(n, 35);
    const Flags f = testutil::random_flags(n, 36);
    const std::span<const long> s(in);
    std::vector<long> out(n);
    const std::span<long> o(out);

    exclusive_scan(s, o, Plus<long>{});
    EXPECT_EQ(out, testutil::ref_exclusive_scan(s, Plus<long>{}));
    inclusive_scan(s, o, Plus<long>{});
    EXPECT_EQ(out, testutil::ref_inclusive_scan(s, Plus<long>{}));
    backward_exclusive_scan(s, o, Plus<long>{});
    EXPECT_EQ(out, testutil::ref_backward_exclusive_scan(s, Plus<long>{}));
    backward_inclusive_scan(s, o, Plus<long>{});
    EXPECT_EQ(out, testutil::ref_backward_inclusive_scan(s, Plus<long>{}));
    seg_exclusive_scan(s, FlagsView(f), o, Plus<long>{});
    EXPECT_EQ(out, testutil::ref_seg_exclusive_scan(s, FlagsView(f),
                                                    Plus<long>{}));
    seg_backward_inclusive_scan(s, FlagsView(f), o, Plus<long>{});
    EXPECT_EQ(out, testutil::ref_seg_backward_inclusive_scan(s, FlagsView(f),
                                                             Plus<long>{}));
  }
}

// Flags exactly on tile boundaries exercise the lookback short-circuit: a
// flagged tile publishes its prefix immediately, and a flag as a tile's
// first element makes the whole tile independent of its carry-in.
TEST(ChainedScan, FlagsOnTileAndWorkerBoundaries) {
  const std::size_t tile = detail::kChainedTileElements;
  const std::size_t n = 6 * tile + 17;
  const auto in = testutil::random_vector<long>(n, 37);
  const std::span<const long> s(in);

  Flags f(n, 0);
  f[0] = 1;
  for (std::size_t t = 1; t * tile < n; ++t) f[t * tile] = 1;      // tile starts
  for (std::size_t t = 1; t * tile < n; ++t) f[t * tile - 1] = 1;  // tile ends
  // Worker-block boundaries for the forced 8-worker runs (block_of splits
  // differently from tiles, so these land mid-tile).
  for (std::size_t w = 1; w < 8; ++w) {
    f[thread::block_of(n, 8, w).begin] = 1;
  }

  std::vector<long> out(n);
  seg_exclusive_scan(s, FlagsView(f), std::span<long>(out), Plus<long>{});
  EXPECT_EQ(out,
            testutil::ref_seg_exclusive_scan(s, FlagsView(f), Plus<long>{}));
  seg_backward_exclusive_scan(s, FlagsView(f), std::span<long>(out),
                              Plus<long>{});
  EXPECT_EQ(out, testutil::ref_seg_backward_exclusive_scan(s, FlagsView(f),
                                                           Plus<long>{}));
}

TEST(ChainedScan, AllFlagsAndNoFlags) {
  const std::size_t n = 3 * detail::kChainedTileElements + 5;
  const auto in = testutil::random_vector<long>(n, 38);
  const std::span<const long> s(in);
  std::vector<long> out(n);

  const Flags all(n, 1);
  seg_exclusive_scan(s, FlagsView(all), std::span<long>(out), Plus<long>{});
  EXPECT_EQ(out, std::vector<long>(n, 0));  // every element starts a segment
  seg_inclusive_scan(s, FlagsView(all), std::span<long>(out), Plus<long>{});
  EXPECT_EQ(out, in);

  Flags none(n, 0);  // no flag at all: one segment, equals the plain scan
  seg_exclusive_scan(s, FlagsView(none), std::span<long>(out), Plus<long>{});
  EXPECT_EQ(out, testutil::ref_exclusive_scan(s, Plus<long>{}));
  seg_backward_inclusive_scan(s, FlagsView(none), std::span<long>(out),
                              Plus<long>{});
  EXPECT_EQ(out, testutil::ref_backward_inclusive_scan(s, Plus<long>{}));
}

// A tile is only written by its owner after its own summary read, so the
// chained engine keeps the library's out-may-alias-in contract.
TEST(ChainedScan, InPlaceAliasingForwardAndBackward) {
  const std::size_t n = 5 * detail::kChainedTileElements + 321;

  auto v = testutil::random_vector<long>(n, 39);
  const auto fwd = testutil::ref_exclusive_scan(std::span<const long>(v),
                                                Plus<long>{});
  exclusive_scan(std::span<const long>(v), std::span<long>(v), Plus<long>{});
  EXPECT_EQ(v, fwd);

  v = testutil::random_vector<long>(n, 40);
  const auto bwd = testutil::ref_backward_exclusive_scan(
      std::span<const long>(v), Plus<long>{});
  backward_exclusive_scan(std::span<const long>(v), std::span<long>(v),
                          Plus<long>{});
  EXPECT_EQ(v, bwd);

  v = testutil::random_vector<long>(n, 41);
  const Flags f = testutil::random_flags(n, 42, 53);
  const auto seg = testutil::ref_seg_inclusive_scan(std::span<const long>(v),
                                                    FlagsView(f), Plus<long>{});
  seg_inclusive_scan(std::span<const long>(v), FlagsView(f), std::span<long>(v),
                     Plus<long>{});
  EXPECT_EQ(v, seg);
}

// seg_copy scans a non-commutative "latest valid value" operator through
// inclusive_scan; the chained lookback must preserve combination order.
TEST(ChainedScan, NonCommutativeSegCopyOperator) {
  const std::size_t n = 4 * detail::kChainedTileElements + 77;
  const auto in = testutil::random_vector<int>(n, 43);
  const Flags f = testutil::random_flags(n, 44, 211);
  std::vector<int> expect(n);
  for (std::size_t i = 0; i < n; ++i) {  // the latest segment head's value
    expect[i] = (i == 0 || f[i]) ? in[i] : expect[i - 1];
  }
  EXPECT_EQ(seg_copy(std::span<const int>(in), FlagsView(f)), expect);
}

// The fused executor's scan groups run the same protocol: one dispatch for a
// map | scan | map group, output equal to the composed references.
TEST(ChainedScan, ExecutorScanGroupsMatchReference) {
  using U = std::uint32_t;
  const std::size_t n = 200000;
  const auto in = testutil::random_vector<U>(n, 45, 1u << 20);
  const Flags f = testutil::random_flags(n, 46, 999);
  const std::span<const U> s(in);

  exec::Executor ex;
  const auto fwd =
      ex.run(exec::source(s) | exec::map([](U v) { return v + 3; }) |
             exec::scan<Plus>() | exec::map([](U v) { return 2 * v; }));
  const exec::Stats fwd_stats = ex.stats();
  std::vector<U> pre(in);
  for (U& v : pre) v += 3;
  auto expect = testutil::ref_exclusive_scan(std::span<const U>(pre),
                                             Plus<U>{});
  for (U& v : expect) v *= 2;
  EXPECT_EQ(fwd, expect);
  if (thread::num_workers() > 1) {
    EXPECT_EQ(fwd_stats.pool_dispatches, 1u);  // fused group: one pass
  }

  expect = testutil::ref_seg_exclusive_scan(s, FlagsView(f), Plus<U>{});
  for (U& v : expect) v ^= 5;
  EXPECT_EQ(ex.run(exec::source(s) | exec::seg_scan<Plus>(FlagsView(f)) |
                   exec::map([](U v) { return v ^ 5; })),
            expect);

  expect = testutil::ref_backward_exclusive_scan(s, Plus<U>{});
  for (U& v : expect) v += 1;
  EXPECT_EQ(ex.run(exec::source(s) | exec::backscan<Plus>() |
                   exec::map([](U v) { return v + 1; })),
            expect);
}

TEST(ChainedScan, PrimitivesBuiltOnScansWorkUnderChained) {
  const std::size_t n = 100000;
  const auto in = testutil::random_vector<long>(n, 47);
  Flags f(n);
  for (std::size_t i = 0; i < n; ++i) f[i] = in[i] & 1;

  const auto packed = pack(std::span<const long>(in), FlagsView(f));
  EXPECT_EQ(packed.size(), count_flags(FlagsView(f)));
  for (long v : packed) EXPECT_TRUE(v & 1);

  const auto s = split(std::span<const long>(in), FlagsView(f));
  const std::size_t evens = n - packed.size();
  for (std::size_t i = 0; i < evens; ++i) EXPECT_FALSE(s[i] & 1);
  for (std::size_t i = evens; i < n; ++i) EXPECT_TRUE(s[i] & 1);
}

TEST(ChainedScan, PoisonedScratchIsRepairedAndReusable) {
  // Regression for the serve batcher's reuse pattern: a caller-owned
  // ChainedScratch whose run aborts (a tile callback threw) must be handed
  // back clean — the engine resets the tile statuses before rethrowing — so
  // the very next run on the SAME scratch is bit-correct, not poisoned by
  // stale kPrefix/kAggregate descriptors or the fabricated abort prefix.
  if (thread::num_workers() == 1) {
    GTEST_SKIP() << "the chained dispatch needs a multi-worker pool";
  }
  fault::disarm_all();
  const std::size_t n = 6 * detail::kChainedTileElements + 123;
  std::mt19937_64 g(91);
  std::vector<batch::Value> original(n);
  for (auto& v : original) v = static_cast<batch::Value>(g() % 1000);
  std::vector<batch::Value> expect(n);
  batch::Value acc = 0;
  for (std::size_t i = 0; i < n; ++i) {  // exclusive plus reference
    expect[i] = acc;
    acc += original[i];
  }

  detail::ChainedScratch<batch::BatchCarry> scratch;
  const auto run = [&](std::vector<batch::Value>& data) {
    batch::JobSlice s;  // defaults: kPlus, exclusive, single segment
    s.data = data.data();
    s.n = data.size();
    batch::seg_scan_jobs(std::span<const batch::JobSlice>(&s, 1), false,
                         &scratch, batch::JobsMode::kForceParallel);
  };

  std::vector<batch::Value> poisoned = original;
  fault::arm("chained.summarize", 2);
  EXPECT_THROW(run(poisoned), fault::Injected);
  fault::disarm_all();

  std::vector<batch::Value> again = original;
  run(again);  // same scratch, straight after the abort
  EXPECT_EQ(again, expect);

  std::vector<batch::Value> rescan_poisoned = original;
  fault::arm("chained.rescan", 3);  // abort later in the protocol too
  EXPECT_THROW(run(rescan_poisoned), fault::Injected);
  fault::disarm_all();

  std::vector<batch::Value> once_more = original;
  run(once_more);
  EXPECT_EQ(once_more, expect);
}

TEST(ChainedScan, AbortAfterPrefixPublicationDoesNotRewritePrefix) {
  // Regression for the abort-path data race: when a tile's *rescan* throws,
  // the tile has already published kPrefix with release, and a successor's
  // lookback may be reading st.prefix concurrently. The old catch block
  // unconditionally rewrote st.prefix = identity — a plain (non-atomic)
  // write racing those readers (TSan-visible under the thread-sanitize CI
  // leg, which runs this test), and a lost true prefix for any lookback
  // that had already acquired the status. The fix fabricates the identity
  // prefix only when the tile has NOT yet published kPrefix. Arming
  // chained.rescan mid-run hits the throw-after-publication window on every
  // multi-tile dispatch; the racy rewrite then shows up as a TSan report
  // and, functionally, the engine must still abort cleanly and produce
  // correct results on the very next run.
  if (thread::num_workers() == 1) {
    GTEST_SKIP() << "the chained dispatch needs a multi-worker pool";
  }
  fault::disarm_all();
  const std::size_t n = 8 * detail::chained_tile_elements<long>() + 9;
  const auto in = testutil::random_vector<long>(n, 93);
  const std::span<const long> s(in);
  const auto expect = testutil::ref_exclusive_scan(s, Plus<long>{});
  std::vector<long> out(n);

  for (const unsigned nth : {2u, 3u, 5u}) {
    fault::arm("chained.rescan", nth);
    EXPECT_THROW(exclusive_scan(s, std::span<long>(out), Plus<long>{}),
                 fault::Injected);
    fault::disarm_all();
    exclusive_scan(s, std::span<long>(out), Plus<long>{});
    EXPECT_EQ(out, expect);
  }

  // Same window on the backward protocol (reversed logical tile order).
  fault::arm("chained.rescan", 4);
  EXPECT_THROW(
      backward_exclusive_scan(s, std::span<long>(out), Plus<long>{}),
      fault::Injected);
  fault::disarm_all();
  backward_exclusive_scan(s, std::span<long>(out), Plus<long>{});
  EXPECT_EQ(out, testutil::ref_backward_exclusive_scan(s, Plus<long>{}));
}

}  // namespace
}  // namespace scanprim
