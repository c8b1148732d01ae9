// Segmented scans (§2.3, Figure 4) against references, across sizes, flag
// densities, and operators.
#include "src/core/segmented.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "src/core/primitives.hpp"
#include "src/fault/fault.hpp"
#include "src/thread/thread_pool.hpp"
#include "test_util.hpp"

namespace scanprim {
namespace {

struct SegCase {
  std::size_t n;
  std::size_t avg_len;
};

class SegSweep : public ::testing::TestWithParam<SegCase> {};

TEST_P(SegSweep, SegPlusScanMatchesReference) {
  const auto [n, len] = GetParam();
  const auto in = testutil::random_vector<long>(n, 21);
  const Flags f = testutil::random_flags(n, 22, len);
  std::vector<long> out(n);
  seg_exclusive_scan(std::span<const long>(in), FlagsView(f),
                     std::span<long>(out), Plus<long>{});
  EXPECT_EQ(out, testutil::ref_seg_exclusive_scan(std::span<const long>(in),
                                                  FlagsView(f), Plus<long>{}));
}

TEST_P(SegSweep, SegMaxScanMatchesReference) {
  const auto [n, len] = GetParam();
  const auto in = testutil::random_vector<long>(n, 23);
  const Flags f = testutil::random_flags(n, 24, len);
  std::vector<long> out(n);
  seg_exclusive_scan(std::span<const long>(in), FlagsView(f),
                     std::span<long>(out), Max<long>{});
  EXPECT_EQ(out, testutil::ref_seg_exclusive_scan(std::span<const long>(in),
                                                  FlagsView(f), Max<long>{}));
}

TEST_P(SegSweep, SegInclusiveMatchesReference) {
  const auto [n, len] = GetParam();
  const auto in = testutil::random_vector<long>(n, 25);
  const Flags f = testutil::random_flags(n, 26, len);
  std::vector<long> out(n);
  seg_inclusive_scan(std::span<const long>(in), FlagsView(f),
                     std::span<long>(out), Plus<long>{});
  EXPECT_EQ(out, testutil::ref_seg_inclusive_scan(std::span<const long>(in),
                                                  FlagsView(f), Plus<long>{}));
}

TEST_P(SegSweep, SegBackwardExclusiveMatchesReference) {
  const auto [n, len] = GetParam();
  const auto in = testutil::random_vector<long>(n, 27);
  const Flags f = testutil::random_flags(n, 28, len);
  std::vector<long> out(n);
  seg_backward_exclusive_scan(std::span<const long>(in), FlagsView(f),
                              std::span<long>(out), Plus<long>{});
  EXPECT_EQ(out, testutil::ref_seg_backward_exclusive_scan(
                     std::span<const long>(in), FlagsView(f), Plus<long>{}));
}

TEST_P(SegSweep, SegBackwardInclusiveMatchesReference) {
  const auto [n, len] = GetParam();
  const auto in = testutil::random_vector<long>(n, 29);
  const Flags f = testutil::random_flags(n, 30, len);
  std::vector<long> out(n);
  seg_backward_inclusive_scan(std::span<const long>(in), FlagsView(f),
                              std::span<long>(out), Min<long>{});
  EXPECT_EQ(out, testutil::ref_seg_backward_inclusive_scan(
                     std::span<const long>(in), FlagsView(f), Min<long>{}));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SegSweep,
    ::testing::Values(SegCase{0, 5}, SegCase{1, 5}, SegCase{7, 3},
                      SegCase{100, 4}, SegCase{4095, 2}, SegCase{4096, 9},
                      SegCase{4097, 1000}, SegCase{50000, 3},
                      SegCase{50000, 5000}, SegCase{100001, 17}));

TEST(Segmented, PaperFigure4) {
  // A  = [5 1 3 4 3 9 2 6], Sb = [T F T F F F T F]
  const std::vector<int> a{5, 1, 3, 4, 3, 9, 2, 6};
  const Flags sb{1, 0, 1, 0, 0, 0, 1, 0};
  EXPECT_EQ(seg_plus_scan(std::span<const int>(a), FlagsView(sb)),
            (std::vector<int>{0, 5, 0, 3, 7, 10, 0, 2}));
  const auto mx = seg_max_scan(std::span<const int>(a), FlagsView(sb));
  // The paper prints the identity as 0 (its values are non-negative).
  const int id = std::numeric_limits<int>::lowest();
  EXPECT_EQ(mx, (std::vector<int>{id, 5, id, 3, 4, 4, id, 2}));
}

TEST(Segmented, SingleSegmentEqualsUnsegmented) {
  const auto in = testutil::random_vector<long>(30000, 31);
  Flags f(in.size(), 0);
  f[0] = 1;
  std::vector<long> seg(in.size()), plain(in.size());
  seg_exclusive_scan(std::span<const long>(in), FlagsView(f),
                     std::span<long>(seg), Plus<long>{});
  exclusive_scan(std::span<const long>(in), std::span<long>(plain),
                 Plus<long>{});
  EXPECT_EQ(seg, plain);
}

TEST(Segmented, AllFlagsMakesEverySegmentAUnit) {
  const auto in = testutil::random_vector<long>(10000, 32);
  const Flags f(in.size(), 1);
  std::vector<long> out(in.size());
  seg_exclusive_scan(std::span<const long>(in), FlagsView(f),
                     std::span<long>(out), Plus<long>{});
  for (long v : out) ASSERT_EQ(v, 0);
  seg_inclusive_scan(std::span<const long>(in), FlagsView(f),
                     std::span<long>(out), Plus<long>{});
  EXPECT_EQ(out, in);
}

// --- degenerate segment shapes under the chained engine ----------------------
// The chained engine's flagged-tile short-circuit (a tile containing any flag
// publishes kPrefix immediately) is most stressed when flags are everywhere
// or exactly at tile seams. Sweep the five paper operators, both directions,
// both flavours, over shapes built from zero-length and single-element
// segments, at sizes that put several tiles in flight.

template <class Op>
void expect_all_directions_match(std::span<const long> in, FlagsView f,
                                 Op op) {
  std::vector<long> out(in.size());
  seg_exclusive_scan(in, f, std::span<long>(out), op);
  ASSERT_EQ(out, testutil::ref_seg_exclusive_scan(in, f, op));
  seg_inclusive_scan(in, f, std::span<long>(out), op);
  ASSERT_EQ(out, testutil::ref_seg_inclusive_scan(in, f, op));
  seg_backward_exclusive_scan(in, f, std::span<long>(out), op);
  ASSERT_EQ(out, testutil::ref_seg_backward_exclusive_scan(in, f, op));
  seg_backward_inclusive_scan(in, f, std::span<long>(out), op);
  ASSERT_EQ(out, testutil::ref_seg_backward_inclusive_scan(in, f, op));
}

void expect_all_ops_match(std::span<const long> in, FlagsView f) {
  expect_all_directions_match(in, f, Plus<long>{});
  expect_all_directions_match(in, f, Max<long>{});
  expect_all_directions_match(in, f, Min<long>{});
  expect_all_directions_match(in, f, Or<long>{});
  expect_all_directions_match(in, f, And<long>{});
}

class DegenerateSegments : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DegenerateSegments, AllSingleElementSegments) {
  const std::size_t n = GetParam();
  const auto in = testutil::random_vector<long>(n, 41, 2);
  const Flags f(n, 1);  // every element its own segment
  expect_all_ops_match(std::span<const long>(in), FlagsView(f));
}

TEST_P(DegenerateSegments, SingleElementSegmentsAtTheEnds) {
  const std::size_t n = GetParam();
  const auto in = testutil::random_vector<long>(n, 42, 2);
  Flags f(n, 0);
  // A single-element segment at each end (and one just past the first tile
  // seam), the rest of the vector one long middle segment.
  f[0] = 1;
  f[1] = 1;
  f[n - 1] = 1;
  if (n > 4097) f[4097] = 1;
  expect_all_ops_match(std::span<const long>(in), FlagsView(f));
}

TEST_P(DegenerateSegments, ZeroLengthSegmentsVanishFromAllocation) {
  const std::size_t n = GetParam();
  // Segment sizes with zero-length requests interleaved: allocate() writes
  // no flag for them, so they must not perturb their neighbours' scans.
  std::vector<std::size_t> sizes;
  std::size_t total = 0;
  std::mt19937_64 gen(43);
  while (total < n) {
    const std::size_t s = gen() % 4 == 0 ? 0 : 1 + gen() % 9;
    sizes.push_back(s);
    total += s;
  }
  const Allocation a = allocate(std::span<const std::size_t>(sizes));
  ASSERT_EQ(a.total, total);
  const auto in = testutil::random_vector<long>(total, 44, 2);
  expect_all_ops_match(std::span<const long>(in), FlagsView(a.segment_flags));
}

INSTANTIATE_TEST_SUITE_P(Shapes, DegenerateSegments,
                         ::testing::Values(std::size_t{2}, std::size_t{4096},
                                           std::size_t{4097},
                                           std::size_t{12289},
                                           std::size_t{40000}));

TEST(Segmented, InPlaceAliasingIsSupported) {
  auto v = testutil::random_vector<long>(30000, 33);
  const Flags f = testutil::random_flags(v.size(), 34, 11);
  const auto expect = testutil::ref_seg_exclusive_scan(std::span<const long>(v),
                                                       FlagsView(f), Plus<long>{});
  seg_exclusive_scan(std::span<const long>(v), FlagsView(f), std::span<long>(v),
                     Plus<long>{});
  EXPECT_EQ(v, expect);
}

// --- scatter-gather job scans (batch::seg_scan_jobs) -------------------------
// The serve batcher's entry point: a list of independent jobs, each a
// caller-owned buffer with its own operator/flavour/flags, scanned in place
// as one logical segmented mega-scan. The serial pass and the chained
// dispatch must agree with a direct per-job reference — including when tiles
// split jobs (one huge job) and when jobs split tiles (thousands of tiny
// jobs), with zero-length jobs interleaved.

struct OwnedJob {
  std::vector<batch::Value> data;
  std::vector<std::uint8_t> flags;  // empty = the job is one segment
  batch::Op op = batch::Op::kPlus;
  bool inclusive = false;
  bool backward = false;
};

std::vector<batch::Value> job_reference(const OwnedJob& j, bool backward) {
  backward = backward || j.backward;
  const std::size_t n = j.data.size();
  std::vector<batch::Value> out(n);
  batch::Value acc = batch::op_identity(j.op);
  if (!backward) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!j.flags.empty() && j.flags[i]) acc = batch::op_identity(j.op);
      if (j.inclusive) {
        acc = batch::op_apply(j.op, acc, j.data[i]);
        out[i] = acc;
      } else {
        out[i] = acc;
        acc = batch::op_apply(j.op, acc, j.data[i]);
      }
    }
  } else {
    for (std::size_t i = n; i-- > 0;) {
      if (j.inclusive) {
        acc = batch::op_apply(j.op, acc, j.data[i]);
        out[i] = acc;
      } else {
        out[i] = acc;
        acc = batch::op_apply(j.op, acc, j.data[i]);
      }
      if (!j.flags.empty() && j.flags[i]) acc = batch::op_identity(j.op);
    }
  }
  return out;
}

OwnedJob random_owned_job(std::mt19937_64& g, std::size_t n) {
  OwnedJob j;
  j.data.resize(n);
  for (auto& v : j.data) v = static_cast<batch::Value>(g() % 100);
  j.op = static_cast<batch::Op>(g() % batch::kOpCount);
  j.inclusive = (g() & 1) != 0;
  if ((g() & 1) != 0 && n > 0) {
    j.flags.assign(n, 0);
    for (auto& f : j.flags) f = g() % 6 == 0 ? 1 : 0;
  }
  return j;
}

std::vector<batch::JobSlice> slices_of(std::vector<OwnedJob>& jobs) {
  std::vector<batch::JobSlice> slices;
  for (OwnedJob& j : jobs) {
    batch::JobSlice s;
    s.data = j.data.data();
    s.flags = j.flags.empty() ? nullptr : j.flags.data();
    s.n = j.data.size();
    s.op = j.op;
    s.inclusive = j.inclusive;
    s.backward = j.backward;
    slices.push_back(s);
  }
  return slices;
}

std::size_t total_length(const std::vector<OwnedJob>& jobs) {
  std::size_t n = 0;
  for (const OwnedJob& j : jobs) n += j.data.size();
  return n;
}

void expect_jobs_match(const std::vector<OwnedJob>& jobs, bool backward,
                       batch::JobsMode mode) {
  std::vector<OwnedJob> work = jobs;
  const std::vector<batch::JobSlice> slices = slices_of(work);
  batch::seg_scan_jobs(slices, backward, nullptr, mode);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(work[i].data, job_reference(jobs[i], backward))
        << "job " << i << " backward=" << backward
        << " mode=" << static_cast<int>(mode);
  }
}

void expect_jobs_match_all_modes(const std::vector<OwnedJob>& jobs) {
  for (const bool backward : {false, true}) {
    for (const batch::JobsMode mode :
         {batch::JobsMode::kSerial, batch::JobsMode::kForceParallel,
          batch::JobsMode::kAuto}) {
      expect_jobs_match(jobs, backward, mode);
    }
  }
}

TEST(SegScanJobs, MixedSizesOpsAndFlavoursMatchPerJobReferences) {
  std::mt19937_64 g(51);
  std::vector<OwnedJob> jobs;
  // Tile-seam sizes, zero-length jobs, and a random tail of small ones.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{4095}, std::size_t{4096},
                              std::size_t{4097}, std::size_t{9000},
                              std::size_t{0}}) {
    jobs.push_back(random_owned_job(g, n));
  }
  for (int i = 0; i < 40; ++i) jobs.push_back(random_owned_job(g, g() % 200));
  expect_jobs_match_all_modes(jobs);
}

TEST(SegScanJobs, ThousandsOfTinyJobsSplitEveryTile) {
  // Far more jobs than tiles: each chained tile spans many whole jobs, so
  // the piece walk's job binary search and zero-length skipping get no rest.
  std::mt19937_64 g(52);
  std::vector<OwnedJob> jobs;
  for (int i = 0; i < 3000; ++i) {
    jobs.push_back(random_owned_job(g, g() % 4));  // sizes 0..3
  }
  expect_jobs_match_all_modes(jobs);
}

TEST(SegScanJobs, OneJobSpansManyTiles) {
  // The inverse shape: one 40000-element segmented job split across ~10
  // tiles (carries must flow through the lookback within the job), flanked
  // by small neighbours of different operators.
  std::mt19937_64 g(53);
  std::vector<OwnedJob> jobs;
  jobs.push_back(random_owned_job(g, 17));
  OwnedJob big;
  big.data.resize(40000);
  for (auto& v : big.data) v = static_cast<batch::Value>(g() % 100);
  big.op = batch::Op::kPlus;
  big.flags.assign(big.data.size(), 0);
  for (auto& f : big.flags) f = g() % 4096 == 0 ? 1 : 0;
  jobs.push_back(big);
  big.op = batch::Op::kMax;
  big.inclusive = true;
  big.flags.clear();  // one 40000-element segment: pure cross-tile carry
  jobs.push_back(big);
  jobs.push_back(random_owned_job(g, 5));
  expect_jobs_match_all_modes(jobs);
}

// --- full-range values, mixed directions, restore on throw -------------------

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

// Values anywhere in int64: the extremes, -1, 0, single cleared bits (so an
// and-scan does not collapse to 0 at once) and raw 64-bit draws.
batch::Value full_range_value(std::mt19937_64& g) {
  constexpr batch::Value kMin = std::numeric_limits<batch::Value>::min();
  constexpr batch::Value kMax = std::numeric_limits<batch::Value>::max();
  switch (g() % 8) {
    case 0:
      return kMin;
    case 1:
      return kMax;
    case 2:
      return -1;
    case 3:
      return 0;
    case 4:
    case 5:
      return static_cast<batch::Value>(~(std::uint64_t{1} << (g() % 64)));
    default:
      return static_cast<batch::Value>(g());
  }
}

TEST(SegScanJobs, FullRangeValuesMatchReferencesOnEveryTier) {
  // Small values (the other tests draw g() % 100) never meet the Max/Min
  // identities or the bitwise-and identity ~0 in a sign bit. Every operator
  // x flavour x direction, flagged and unflagged, at sizes that straddle
  // register chunks and tiles.
  std::mt19937_64 g(54);
  std::vector<OwnedJob> jobs;
  for (std::size_t op = 0; op < batch::kOpCount; ++op) {
    for (const bool flagged : {false, true}) {
      for (const bool inclusive : {false, true}) {
        for (const bool backward : {false, true}) {
          OwnedJob j;
          j.data.resize(1 + g() % 5000);
          for (auto& v : j.data) v = full_range_value(g);
          j.op = static_cast<batch::Op>(op);
          j.inclusive = inclusive;
          j.backward = backward;
          if (flagged) {
            j.flags.assign(j.data.size(), 0);
            for (auto& f : j.flags) f = g() % 7 == 0 ? 1 : 0;
          }
          jobs.push_back(std::move(j));
        }
      }
    }
  }
  for (const simd::Tier tier : available_tiers()) {
    TierGuard guard(tier);
    SCOPED_TRACE(simd::tier_name(tier));
    expect_jobs_match_all_modes(jobs);
  }
}

// Forward and backward jobs alternating, with sizes that put a forward and
// a backward neighbour in one tile on either side of it, and zero-length
// jobs between them.
std::vector<OwnedJob> mixed_direction_jobs(std::mt19937_64& g) {
  std::vector<OwnedJob> jobs;
  bool backward = false;
  for (const std::size_t n :
       {std::size_t{3000}, std::size_t{2000}, std::size_t{0},
        std::size_t{5000}, std::size_t{1}, std::size_t{0}, std::size_t{4095},
        std::size_t{4097}, std::size_t{9000}, std::size_t{17},
        std::size_t{0}, std::size_t{8192}, std::size_t{2}}) {
    OwnedJob j = random_owned_job(g, n);
    j.backward = backward;
    backward = !backward;
    jobs.push_back(std::move(j));
  }
  for (int i = 0; i < 24; ++i) {
    OwnedJob j = random_owned_job(g, g() % 600);
    j.backward = (g() & 1) != 0;
    jobs.push_back(std::move(j));
  }
  return jobs;
}

TEST(SegScanJobs, MixedDirectionsMatchReferencesInOneDispatch) {
  std::mt19937_64 g(55);
  const std::vector<OwnedJob> jobs = mixed_direction_jobs(g);
  ASSERT_GT(total_length(jobs), thread::kSerialCutoff);
  // Per-slice directions, and the call-wide `backward` overriding them all.
  expect_jobs_match_all_modes(jobs);

  // Both directions go through one chained run: exactly one pool dispatch
  // wherever the chained path is taken.
  if (thread::num_workers() == 1) return;
  std::vector<batch::JobsMode> parallel_modes{batch::JobsMode::kForceParallel};
  if (!thread::oversubscribed()) {
    parallel_modes.push_back(batch::JobsMode::kAuto);
  }
  for (const batch::JobsMode mode : parallel_modes) {
    std::vector<OwnedJob> work = jobs;
    const std::vector<batch::JobSlice> slices = slices_of(work);
    const std::uint64_t d0 = thread::pool().dispatch_count();
    batch::seg_scan_jobs(slices, false, nullptr, mode);
    EXPECT_EQ(thread::pool().dispatch_count() - d0, 1u)
        << "mode=" << static_cast<int>(mode);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_EQ(work[i].data, job_reference(jobs[i], false)) << "job " << i;
    }
  }
}

TEST(SegScanJobs, ThrowRestoresEveryInputFromTheSnapshot) {
  // A fault at any hit of any point inside the run must leave every buffer
  // as it was, and the same scratch must then run clean. The list spans
  // more than eight tiles, so faults land before, between and after tiles
  // that other workers have already rescanned.
  fault::disarm_all();
  std::mt19937_64 g(56);
  std::vector<OwnedJob> jobs = mixed_direction_jobs(g);
  for (int i = 0; i < 4; ++i) {
    OwnedJob j = random_owned_job(g, 3000);
    j.backward = i % 2 == 1;
    jobs.push_back(std::move(j));
  }
  const std::size_t total = total_length(jobs);
  ASSERT_GE(total, 8 * detail::kChainedTileElements);
  std::vector<batch::Value> snapshot(total);
  detail::ChainedScratch<batch::BatchCarry> scratch;

  struct Arming {
    const char* point;
    batch::JobsMode mode;
  };
  const Arming armings[] = {
      {"batch.piece", batch::JobsMode::kForceParallel},
      {"chained.summarize", batch::JobsMode::kForceParallel},
      {"chained.rescan", batch::JobsMode::kForceParallel},
      {"batch.serial_job", batch::JobsMode::kSerial}};
  for (const Arming& a : armings) {
    for (std::uint64_t nth = 1; nth <= 24; ++nth) {
      SCOPED_TRACE(std::string(a.point) + " nth=" + std::to_string(nth));
      std::vector<OwnedJob> work = jobs;
      const std::vector<batch::JobSlice> slices = slices_of(work);
      // A stale snapshot must never be copied back: only what this run
      // snapshotted counts.
      std::fill(snapshot.begin(), snapshot.end(), batch::Value{0x5a5a});
      fault::arm(a.point, nth);
      bool threw = false;
      try {
        batch::seg_scan_jobs(slices, false, &scratch, a.mode, snapshot);
      } catch (const fault::Injected&) {
        threw = true;
      }
      fault::disarm_all();
      const bool reachable = a.mode == batch::JobsMode::kSerial ||
                             thread::num_workers() > 1;
      if (reachable && nth <= 8) {
        EXPECT_TRUE(threw);
      }
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_EQ(work[i].data,
                  threw ? jobs[i].data : job_reference(jobs[i], false))
            << "job " << i << (threw ? " not restored" : " wrong");
      }
      if (!threw) continue;
      batch::seg_scan_jobs(slices, false, &scratch, a.mode, snapshot);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_EQ(work[i].data, job_reference(jobs[i], false))
            << "job " << i << " after the fault";
      }
    }
  }
}

}  // namespace
}  // namespace scanprim
