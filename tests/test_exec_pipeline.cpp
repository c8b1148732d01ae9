// Golden tests for the fusing pipeline executor (src/exec/): every fused
// stage combination must bit-match the eager primitives it replaces, the
// fuser must produce the documented group structure, and the executor's
// Stats must prove the fusion actually happened (dispatch rounds, groups,
// arena reuse).
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/primitives.hpp"
#include "src/exec/executor.hpp"
#include "test_util.hpp"

namespace scanprim::exec {
namespace {

using Sz = std::size_t;

template <class T, class F>
std::vector<T> apply_map(std::vector<T> v, F fn) {
  for (auto& x : v) x = fn(x);
  return v;
}

// --- fuser structure ---------------------------------------------------------

TEST(Fuser, SourceOnlyPipelineIsACopyGroup) {
  const std::vector<StageKind> k{StageKind::Source};
  const auto g = fuse(std::span<const StageKind>(k), FuseOptions{});
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0].stages(), 0u);  // first==1 && last==0: pure copy
  EXPECT_FALSE(g[0].has_scan);
}

TEST(Fuser, MapScanMapPackFusesIntoOneGroup) {
  const std::vector<StageKind> k{StageKind::Source, StageKind::Map,
                                 StageKind::Scan, StageKind::Map,
                                 StageKind::Pack};
  const auto g = fuse(std::span<const StageKind>(k), FuseOptions{});
  ASSERT_EQ(g.size(), 1u);
  EXPECT_TRUE(g[0].has_scan);
  EXPECT_EQ(g[0].scan_at, 2u);
  EXPECT_TRUE(g[0].has_pack);
  EXPECT_EQ(g[0].stages(), 4u);
}

TEST(Fuser, SecondScanOpensANewGroup) {
  const std::vector<StageKind> k{StageKind::Source, StageKind::Scan,
                                 StageKind::Scan};
  const auto g = fuse(std::span<const StageKind>(k), FuseOptions{});
  ASSERT_EQ(g.size(), 2u);
  EXPECT_TRUE(g[0].has_scan);
  EXPECT_TRUE(g[1].has_scan);
  EXPECT_EQ(g[1].scan_at, 2u);
}

TEST(Fuser, PermuteIsASingletonBarrier) {
  const std::vector<StageKind> k{StageKind::Source, StageKind::Map,
                                 StageKind::Permute, StageKind::Map};
  const auto g = fuse(std::span<const StageKind>(k), FuseOptions{});
  ASSERT_EQ(g.size(), 3u);
  EXPECT_FALSE(g[0].is_permute);
  EXPECT_TRUE(g[1].is_permute);
  EXPECT_EQ(g[1].stages(), 1u);
  EXPECT_FALSE(g[2].is_permute);
  EXPECT_TRUE(breaks_fusion(StageKind::Permute));
  EXPECT_FALSE(breaks_fusion(StageKind::Map));
}

TEST(Fuser, PackClosesItsGroup) {
  const std::vector<StageKind> k{StageKind::Source, StageKind::Pack,
                                 StageKind::Map, StageKind::Map};
  const auto g = fuse(std::span<const StageKind>(k), FuseOptions{});
  ASSERT_EQ(g.size(), 2u);
  EXPECT_TRUE(g[0].has_pack);
  EXPECT_FALSE(g[1].has_pack);
  EXPECT_EQ(g[1].stages(), 2u);
}

TEST(Fuser, SegScanFusesLikeAScan) {
  const std::vector<StageKind> k{StageKind::Source, StageKind::Map,
                                 StageKind::SegScan, StageKind::Map};
  const auto g = fuse(std::span<const StageKind>(k), FuseOptions{});
  ASSERT_EQ(g.size(), 1u);
  EXPECT_TRUE(g[0].has_scan);
  EXPECT_EQ(g[0].scan_at, 2u);
}

TEST(Fuser, DisabledFusionGivesOneGroupPerStage) {
  const std::vector<StageKind> k{StageKind::Source, StageKind::Map,
                                 StageKind::Scan, StageKind::Map,
                                 StageKind::Pack};
  const auto g =
      fuse(std::span<const StageKind>(k), FuseOptions{.enabled = false});
  ASSERT_EQ(g.size(), 4u);  // the source loads as part of the first group
  for (const auto& grp : g) EXPECT_LE(grp.stages(), 1u);
}

// --- golden equality across the size sweep -----------------------------------

class ExecSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExecSweep, MapScanMapMatchesEager) {
  const auto in = testutil::random_vector<long>(GetParam(), 31);
  const auto dbl = [](long v) { return 2 * v; };
  const auto inc = [](long v) { return v + 1; };
  const auto fused = run(source(std::span<const long>(in)) | map(dbl) |
                         scan<Plus>() | map(inc));
  const auto staged = apply_map(
      testutil::ref_exclusive_scan(
          std::span<const long>(apply_map(in, dbl)), Plus<long>{}),
      inc);
  EXPECT_EQ(fused, staged);
}

TEST_P(ExecSweep, AllFourScanFlavoursMatchReferences) {
  const auto in = testutil::random_vector<long>(GetParam(), 32);
  const std::span<const long> s(in);
  EXPECT_EQ(run(source(s) | scan<Plus>()),
            testutil::ref_exclusive_scan(s, Plus<long>{}));
  EXPECT_EQ(run(source(s) | inclusive_scan<Plus>()),
            testutil::ref_inclusive_scan(s, Plus<long>{}));
  EXPECT_EQ(run(source(s) | backscan<Plus>()),
            testutil::ref_backward_exclusive_scan(s, Plus<long>{}));
  EXPECT_EQ(run(source(s) | back_inclusive_scan<Plus>()),
            testutil::ref_backward_inclusive_scan(s, Plus<long>{}));
}

TEST_P(ExecSweep, MaxMinOrAndOperatorsMatchReferences) {
  const auto in = testutil::random_vector<long>(GetParam(), 33);
  const std::span<const long> s(in);
  EXPECT_EQ(run(source(s) | scan<Max>()),
            testutil::ref_exclusive_scan(s, Max<long>{}));
  EXPECT_EQ(run(source(s) | scan<Min>()),
            testutil::ref_exclusive_scan(s, Min<long>{}));
  const auto bits = testutil::random_vector<std::uint8_t>(GetParam(), 34, 2);
  const std::span<const std::uint8_t> bs(bits);
  EXPECT_EQ(run(source(bs) | scan<Or>()),
            testutil::ref_exclusive_scan(bs, Or<std::uint8_t>{}));
  EXPECT_EQ(run(source(bs) | scan<And>()),
            testutil::ref_exclusive_scan(bs, And<std::uint8_t>{}));
}

TEST_P(ExecSweep, SegmentedScansMatchReferences) {
  const auto in = testutil::random_vector<long>(GetParam(), 35);
  const Flags f = testutil::random_flags(GetParam(), 36);
  const std::span<const long> s(in);
  const FlagsView fv(f);
  EXPECT_EQ(run(source(s) | seg_scan<Plus>(fv)),
            testutil::ref_seg_exclusive_scan(s, fv, Plus<long>{}));
  EXPECT_EQ(run(source(s) | seg_inclusive_scan<Plus>(fv)),
            testutil::ref_seg_inclusive_scan(s, fv, Plus<long>{}));
  EXPECT_EQ(run(source(s) | seg_backscan<Plus>(fv)),
            testutil::ref_seg_backward_exclusive_scan(s, fv, Plus<long>{}));
  EXPECT_EQ(run(source(s) | seg_back_inclusive_scan<Plus>(fv)),
            testutil::ref_seg_backward_inclusive_scan(s, fv, Plus<long>{}));
}

TEST_P(ExecSweep, SegmentedScanWithFusedMapsMatchesStaged) {
  const auto in = testutil::random_vector<long>(GetParam(), 37);
  const Flags f = testutil::random_flags(GetParam(), 38);
  const auto neg = [](long v) { return -v; };
  const auto fused = run(source(std::span<const long>(in)) | map(neg) |
                         seg_scan<Plus>(FlagsView(f)) | map(neg));
  const auto staged = apply_map(
      testutil::ref_seg_exclusive_scan(
          std::span<const long>(apply_map(in, neg)), FlagsView(f),
          Plus<long>{}),
      neg);
  EXPECT_EQ(fused, staged);
}

TEST_P(ExecSweep, PackVariantsMatchEagerPack) {
  const auto in = testutil::random_vector<long>(GetParam(), 39);
  const auto keep = testutil::random_vector<std::uint8_t>(GetParam(), 40, 2);
  const std::span<const long> s(in);
  const FlagsView kv(keep);
  // Plain pack.
  EXPECT_EQ(run(source(s) | pack(kv)), scanprim::pack(s, kv));
  // Map + scan + map + pack fused into one group.
  const auto dbl = [](long v) { return 2 * v; };
  const auto scanned = testutil::ref_exclusive_scan(
      std::span<const long>(apply_map(in, dbl)), Plus<long>{});
  EXPECT_EQ(run(source(s) | map(dbl) | scan<Plus>() | pack(kv)),
            scanprim::pack(std::span<const long>(scanned), kv));
  // Backward scan + pack (the count-then-fill serial path and the
  // top-down parallel fill).
  const auto back = testutil::ref_backward_exclusive_scan(s, Plus<long>{});
  EXPECT_EQ(run(source(s) | backscan<Plus>() | pack(kv)),
            scanprim::pack(std::span<const long>(back), kv));
}

TEST_P(ExecSweep, PermuteMatchesEagerPermute) {
  const std::size_t n = GetParam();
  const auto in = testutil::random_vector<long>(n, 41);
  std::vector<Sz> idx(n);
  std::iota(idx.begin(), idx.end(), Sz{0});
  std::mt19937_64 g(42);
  std::shuffle(idx.begin(), idx.end(), g);
  const std::span<const long> s(in);
  const std::span<const Sz> is(idx);
  EXPECT_EQ(run(source(s) | permute(is)), permuted(s, is));
  // Permute mid-chain: scan, scatter, then a map on the permuted vector.
  const auto inc = [](long v) { return v + 1; };
  const auto fused = run(source(s) | scan<Plus>() | permute(is) | map(inc));
  const auto staged = apply_map(
      permuted(std::span<const long>(
                   testutil::ref_exclusive_scan(s, Plus<long>{})),
               is),
      inc);
  EXPECT_EQ(fused, staged);
}

TEST_P(ExecSweep, MultiGroupChainsMatchStaged) {
  const auto in = testutil::random_vector<long>(GetParam(), 43);
  const std::span<const long> s(in);
  // Two scans: the second group reads the first group's arena buffer.
  const auto twice = run(source(s) | scan<Plus>() | scan<Plus>());
  const auto once = testutil::ref_exclusive_scan(s, Plus<long>{});
  EXPECT_EQ(twice, testutil::ref_exclusive_scan(std::span<const long>(once),
                                                Plus<long>{}));
  // Pack, then further stages on the shortened vector.
  const auto keep = testutil::random_vector<std::uint8_t>(GetParam(), 44, 2);
  const auto neg = [](long v) { return -v; };
  const auto fused = run(source(s) | pack(FlagsView(keep)) | map(neg));
  const auto staged = apply_map(scanprim::pack(s, FlagsView(keep)), neg);
  EXPECT_EQ(fused, staged);
}

TEST_P(ExecSweep, ZipAndGeneratedSourcesMatchStaged) {
  const std::size_t n = GetParam();
  const auto a = testutil::random_vector<long>(n, 45);
  const auto b = testutil::random_vector<long>(n, 46);
  const auto sum = [](long x, long y) { return x + y; };
  const auto fused = run(source(std::span<const long>(a)) |
                         zip(std::span<const long>(b), sum) | scan<Max>());
  std::vector<long> z(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = a[i] + b[i];
  EXPECT_EQ(fused, testutil::ref_exclusive_scan(std::span<const long>(z),
                                                Max<long>{}));
  // iota through source_fn, scanned.
  const auto ones = run(source_fn<Sz>(n, [](std::size_t) -> Sz { return 1; }) |
                        scan<Plus>());
  std::vector<Sz> iota(n);
  std::iota(iota.begin(), iota.end(), Sz{0});
  EXPECT_EQ(ones, iota);
}

TEST_P(ExecSweep, UnfusedPlanMatchesFusedPlan) {
  const auto in = testutil::random_vector<long>(GetParam(), 47);
  const auto keep = testutil::random_vector<std::uint8_t>(GetParam(), 48, 2);
  const auto dbl = [](long v) { return 2 * v; };
  const auto inc = [](long v) { return v + 1; };
  const auto build = [&] {
    return source(std::span<const long>(in)) | map(dbl) | scan<Plus>() |
           map(inc) | pack(FlagsView(keep));
  };
  Executor fused_ex;
  Executor eager_ex{Executor::Options{.fuse = false}};
  const auto fused = fused_ex.run(build());
  const auto eager = eager_ex.run(build());
  EXPECT_EQ(fused, eager);
  EXPECT_LE(fused_ex.stats().groups, eager_ex.stats().groups);
}

TEST_P(ExecSweep, FusedPackMatchesEagerPack) {
  const std::size_t n = GetParam();
  const auto in = testutil::random_vector<long>(n, 49);
  const Flags flags = [&] {
    Flags f(n);
    auto g = testutil::rng(50);
    for (auto& x : f) x = g() % 2;
    return f;
  }();
  Executor ex;
  EXPECT_EQ(fused::pack(ex, std::span<const long>(in), FlagsView(flags)),
            scanprim::pack(std::span<const long>(in), FlagsView(flags)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExecSweep,
                         ::testing::ValuesIn(testutil::sweep_sizes()));

// --- stats -------------------------------------------------------------------

TEST(ExecStats, FourStageChainRunsInOneDispatchRound) {
  // The acceptance bar of the fusing executor: map | scan | map | map is one
  // fused group — one chained pass when parallel, one sequential pass when
  // serial — never one dispatch per stage.
  const auto in = testutil::random_vector<long>(1 << 16, 51);
  Executor ex;
  const auto out = ex.run(source(std::span<const long>(in)) |
                          map([](long v) { return v + 3; }) | scan<Plus>() |
                          map([](long v) { return 2 * v; }) |
                          map([](long v) { return v - 1; }));
  ASSERT_EQ(out.size(), in.size());
  const Stats& s = ex.stats();
  EXPECT_EQ(s.stages_recorded, 5u);  // source + 4 stages
  EXPECT_EQ(s.groups, 1u);
  EXPECT_EQ(s.fused_groups, 1u);
  EXPECT_EQ(s.pool_dispatches, 1u);
  EXPECT_GT(s.bytes_read, 0u);
  EXPECT_GT(s.bytes_written, 0u);
}

TEST(ExecStats, UnfusedPlanDispatchesPerStage) {
  const auto in = testutil::random_vector<long>(1 << 16, 52);
  Executor ex{Executor::Options{.fuse = false}};
  ex.run(source(std::span<const long>(in)) |
         map([](long v) { return v + 3; }) | scan<Plus>() |
         map([](long v) { return 2 * v; }) | map([](long v) { return v - 1; }));
  const Stats& s = ex.stats();
  EXPECT_EQ(s.groups, 4u);
  EXPECT_EQ(s.fused_groups, 0u);
  EXPECT_GE(s.pool_dispatches, 4u);
}

TEST(ExecStats, ArenaReusesBuffersAcrossGroupsAndRuns) {
  const auto in = testutil::random_vector<long>(1 << 15, 53);
  Executor ex;
  const auto p = [&] {
    return source(std::span<const long>(in)) | scan<Plus>() | scan<Plus>() |
           scan<Plus>();
  };
  ex.run(p());
  const Stats first = ex.stats();
  EXPECT_EQ(first.groups, 3u);
  // Three groups need two intermediates; the second frees before the third
  // allocates only in a longer chain, so allow misses on the first run...
  ex.run(p());
  // ...but a re-run must recycle every intermediate it acquires.
  EXPECT_EQ(ex.stats().arena_misses, 0u);
  EXPECT_GE(ex.stats().arena_hits, 1u);
  // Lifetime totals accumulate across runs.
  EXPECT_EQ(ex.total_stats().stages_recorded,
            first.stages_recorded + ex.stats().stages_recorded);
}

}  // namespace
}  // namespace scanprim::exec
