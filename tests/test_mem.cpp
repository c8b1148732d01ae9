// The process-wide memory subsystem (src/mem, docs/MEM.md): size-class
// round-up and free-list reuse, the bounded best-fit for large blocks, the
// trim / high-water policy, live/peak/freelist accounting, the mem.alloc
// fault point, the scanprim_mem_* obs series, spec parsing for the
// SCANPRIM_HUGEPAGES / SCANPRIM_NUMA environment knobs, hugetlb graceful
// fallback, cross-thread free, and the typed helpers (ArenaArray,
// ArenaAllocator) the migrated call sites are built on. Plus the
// allocation-failure serving contract: a std::bad_alloc injected into the
// batcher's snapshot / scratch growth resolves requests kError through the
// existing recovery machinery — it never kills the batcher or strands a
// future.
#include "src/mem/mem.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "src/core/chained_scan.hpp"
#include "src/fault/fault.hpp"
#include "src/obs/registry.hpp"
#include "src/serve/service.hpp"

namespace scanprim::mem {
namespace {

// Every test starts with an empty thread-local free list, no armed faults
// (the CI fault matrix may have armed library points via SCANPRIM_FAULT),
// and the default policies regardless of the ambient environment.
class Mem : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::disarm_all();
    set_huge_policy(HugePolicy::kThp);
    set_numa_policy(NumaPolicy::kFirstTouch);
    set_trim_high_water(std::size_t{256} << 20);
    trim_local(0);
  }
  void TearDown() override {
    fault::disarm_all();
    set_huge_policy(HugePolicy::kThp);
    set_trim_high_water(std::size_t{256} << 20);
    trim_local(0);
  }
};

// --- size classes and reuse --------------------------------------------------

TEST_F(Mem, RoundsUpToPowerOfTwoClasses) {
  struct Case {
    std::size_t ask, usable;
  };
  // 4 KiB floor, then the next power of two; above 64 MiB, 2 MiB multiples.
  const Case cases[] = {
      {1, 4096},
      {4096, 4096},
      {4097, 8192},
      {(1u << 16) - 1, 1u << 16},
      {1u << 20, 1u << 20},
      {(1u << 20) + 1, 1u << 21},
      {1u << 26, 1u << 26},
      {(1u << 26) + 1, 33 * (std::size_t{2} << 20)},  // 64 MiB + 1 -> 66 MiB
  };
  for (const Case& c : cases) {
    std::byte* p = allocate(c.ask);
    EXPECT_EQ(usable_bytes(p), c.usable) << "ask=" << c.ask;
    deallocate(p);
  }
}

TEST_F(Mem, FreeListReuseIsAHitAndReturnsTheSameBlock) {
  bool reused = true;
  std::byte* a = allocate(10'000, &reused);
  EXPECT_FALSE(reused);  // fresh list: must come from the OS
  deallocate(a);
  std::byte* b = allocate(9'000, &reused);  // same 16 KiB class
  EXPECT_TRUE(reused);
  EXPECT_EQ(a, b);
  deallocate(b);
}

TEST_F(Mem, ClassesDoNotCrossPollinate) {
  std::byte* small = allocate(4096);
  deallocate(small);
  bool reused = true;
  std::byte* big = allocate(1u << 20, &reused);
  EXPECT_FALSE(reused);  // a 4 KiB free block cannot serve a 1 MiB ask
  deallocate(big);
}

TEST_F(Mem, LargeBlocksRecycleUnderBoundedBestFit) {
  const std::size_t mib = std::size_t{1} << 20;
  // Park two oversized free blocks: 66 MiB and 128 MiB.
  std::byte* b66 = allocate(66 * mib);
  std::byte* b128 = allocate(128 * mib);
  const std::byte* id66 = b66;
  const std::byte* id128 = b128;
  deallocate(b66);
  deallocate(b128);

  // 66 MiB ask: best fit is the 66 MiB block (the 128 MiB one also fits but
  // is larger).
  bool reused = false;
  std::byte* p = allocate(66 * mib, &reused);
  EXPECT_TRUE(reused);
  EXPECT_EQ(p, id66);

  // 120 MiB ask: only the 128 MiB block fits, and 128 <= 2*120 — reused.
  std::byte* q = allocate(120 * mib, &reused);
  EXPECT_TRUE(reused);
  EXPECT_EQ(q, id128);
  deallocate(p);
  deallocate(q);

  // A 66 MiB ask must NOT pin a parked 256 MiB block (more than twice the
  // request): the bound forces a fresh allocation instead, and the giant
  // stays available for a caller its own size.
  trim_local(0);
  std::byte* giant = allocate(256 * mib);
  deallocate(giant);
  std::byte* r = allocate(66 * mib, &reused);
  EXPECT_FALSE(reused);
  deallocate(r);
  trim_local(0);
}

// --- trim / high water -------------------------------------------------------

TEST_F(Mem, TrimReleasesLargestFirstDownToKeepBytes) {
  Arena arena;  // standalone: free list observable without TLS interference
  std::byte* a = arena.allocate(4096);
  std::byte* b = arena.allocate(1u << 20);
  std::byte* c = arena.allocate(1u << 22);
  arena.deallocate(a);
  arena.deallocate(b);
  arena.deallocate(c);
  EXPECT_EQ(arena.free_bytes(), 4096u + (1u << 20) + (1u << 22));
  EXPECT_EQ(arena.free_blocks(), 3u);

  // Keep 2 MiB: the 4 MiB block (largest) goes; the 1 MiB + 4 KiB stay.
  const std::size_t released = arena.trim((std::size_t{2} << 20));
  EXPECT_EQ(released, std::size_t{1} << 22);
  EXPECT_EQ(arena.free_bytes(), 4096u + (1u << 20));
  EXPECT_EQ(arena.free_blocks(), 2u);

  EXPECT_EQ(arena.trim(0), 4096u + (1u << 20));
  EXPECT_EQ(arena.free_bytes(), 0u);
  EXPECT_EQ(arena.free_blocks(), 0u);
}

TEST_F(Mem, HighWaterCapsTheFreeListAutomatically) {
  set_trim_high_water(std::size_t{1} << 20);  // 1 MiB cap
  const Counters before = counters();
  // Free 4 MiB worth of 256 KiB blocks: each deallocate that pushes the
  // list past 1 MiB trims it back under.
  std::vector<std::byte*> blocks;
  for (int i = 0; i < 16; ++i) blocks.push_back(allocate(1u << 18));
  for (std::byte* p : blocks) deallocate(p);
  EXPECT_LE(local_arena().free_bytes(), std::size_t{1} << 20);
  const Counters after = counters();
  EXPECT_GT(after.trim_released, before.trim_released);
}

// --- counters ----------------------------------------------------------------

TEST_F(Mem, LiveBytesBalanceAndPeakIsSticky) {
  const Counters c0 = counters();
  std::byte* a = allocate(1u << 20);
  std::byte* b = allocate(1u << 20);
  const Counters c1 = counters();
  EXPECT_EQ(c1.live_bytes, c0.live_bytes + (2u << 20));
  EXPECT_GE(c1.peak_bytes, c1.live_bytes);
  deallocate(a);
  deallocate(b);
  trim_local(0);
  const Counters c2 = counters();
  // The mem-metrics smoke check: everything handed out came back.
  EXPECT_EQ(c2.live_bytes, c0.live_bytes);
  EXPECT_GE(c2.peak_bytes, c1.peak_bytes);
  EXPECT_EQ(c2.os_allocs - c0.os_allocs, c2.os_frees - c0.os_frees);
}

TEST_F(Mem, HitAndMissCountsMoveWithReuse) {
  const Counters c0 = counters();
  std::byte* p = allocate(8192);
  deallocate(p);
  p = allocate(8192);
  deallocate(p);
  const Counters c1 = counters();
  EXPECT_GE(c1.arena_misses - c0.arena_misses, 1u);
  EXPECT_GE(c1.arena_hits - c0.arena_hits, 1u);
}

TEST_F(Mem, NodeBytesAttributeSomewhere) {
  std::byte* p = allocate(1u << 20);
  const Counters c = counters();
  ASSERT_FALSE(c.node_bytes.empty());
  std::uint64_t total = 0;
  for (std::uint64_t v : c.node_bytes) total += v;
  EXPECT_GE(total, std::uint64_t{1} << 20);
  deallocate(p);
}

TEST_F(Mem, ObsRendersTheMemFamilies) {
  std::byte* p = allocate(4096);  // ensures the collector is registered
  deallocate(p);
  const std::string text = obs::render_text();
  for (const char* series :
       {"scanprim_mem_live_bytes", "scanprim_mem_peak_bytes",
        "scanprim_mem_freelist_bytes", "scanprim_mem_arena_hits_total",
        "scanprim_mem_arena_misses_total", "scanprim_mem_os_allocs_total",
        "scanprim_mem_huge_grants_total", "scanprim_mem_huge_denials_total",
        "scanprim_mem_trim_released_bytes_total",
        "scanprim_mem_node_bytes{node=\"0\"}"}) {
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
}

// --- huge pages --------------------------------------------------------------

TEST_F(Mem, HugeAdviceIsCountedForMmapSizedBlocks) {
  const Counters c0 = counters();
  std::byte* p = allocate(4u << 20);  // 4 MiB: mmap-backed, >= one huge page
  std::memset(p, 0xab, 4u << 20);     // fault the pages in
  const Counters c1 = counters();
  EXPECT_EQ((c1.huge_grants + c1.huge_denials) -
                (c0.huge_grants + c0.huge_denials),
            1u);  // exactly one verdict per eligible mapping
  deallocate(p);
  trim_local(0);
}

TEST_F(Mem, HugetlbFallsBackGracefully) {
  // Most CI containers have no hugetlb pool, so MAP_HUGETLB fails and the
  // policy's promise is the fallback: the allocation still succeeds (as a
  // THP-advised anonymous mapping) and the verdict is counted either way.
  set_huge_policy(HugePolicy::kHugetlb);
  const Counters c0 = counters();
  std::byte* p = allocate(4u << 20);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5a, 4u << 20);  // usable whichever way it was backed
  const Counters c1 = counters();
  EXPECT_GE((c1.huge_grants + c1.huge_denials) -
                (c0.huge_grants + c0.huge_denials),
            1u);
  deallocate(p);
  trim_local(0);
}

TEST_F(Mem, PolicyOffMapsPlainPages) {
  set_huge_policy(HugePolicy::kOff);
  const Counters c0 = counters();
  std::byte* p = allocate(4u << 20);
  const Counters c1 = counters();
  // kOff never consults the huge machinery: no verdicts.
  EXPECT_EQ(c1.huge_grants, c0.huge_grants);
  EXPECT_EQ(c1.huge_denials, c0.huge_denials);
  deallocate(p);
  trim_local(0);
}

TEST_F(Mem, NumaQueriesAreSane) {
  // With libnuma absent (or the kernel refusing) these are the stub values;
  // with it present the count must still be positive. Either way an
  // interleave request must not break allocation.
  EXPECT_GE(numa_node_count(), 1u);
  set_numa_policy(NumaPolicy::kInterleave);
  std::byte* p = allocate(4u << 20);
  ASSERT_NE(p, nullptr);
  std::memset(p, 1, 4u << 20);
  deallocate(p);
  trim_local(0);
}

TEST_F(Mem, PinThreadToCpuPinsModuloHardware) {
  // Index far beyond the core count must wrap, not fail.
  EXPECT_TRUE(pin_thread_to_cpu(1'000'003));
}

// --- cross-thread free -------------------------------------------------------

TEST_F(Mem, BlocksFreeSafelyOnAnotherThread) {
  // Allocate here, free there: the self-describing header lets the other
  // thread's arena adopt the block; its exit then releases it to the OS.
  const Counters c0 = counters();
  std::byte* p = allocate(1u << 20);
  std::memset(p, 7, 1u << 20);
  std::thread([p] { deallocate(p); }).join();
  const Counters c1 = counters();
  EXPECT_EQ(c1.live_bytes, c0.live_bytes);
}

TEST_F(Mem, ArenaOutlivesItsThreadsBlocks) {
  // A thread allocates and hands the block out; after the thread (and its
  // thread-local arena) is gone the block must still be usable and freeable.
  std::byte* p = nullptr;
  std::thread([&p] { p = allocate(1u << 20); }).join();
  ASSERT_NE(p, nullptr);
  std::memset(p, 9, 1u << 20);
  EXPECT_GE(usable_bytes(p), std::size_t{1} << 20);
  deallocate(p);
}

// --- fault injection ---------------------------------------------------------

TEST_F(Mem, AllocFaultPointThrowsInjected) {
  fault::arm("mem.alloc", 1);
  EXPECT_THROW(allocate(4096), fault::Injected);
  std::byte* p = allocate(4096);  // next hit is past the window
  deallocate(p);
  EXPECT_GE(fault::hits("mem.alloc"), 2u);
}

TEST_F(Mem, AllocFaultHandlerCanThrowBadAlloc) {
  fault::arm_handler("mem.alloc", [] { throw std::bad_alloc(); }, 2, 1);
  std::byte* p = allocate(4096);  // hit 1: clean
  EXPECT_THROW(allocate(4096), std::bad_alloc);
  deallocate(p);
}

// --- typed helpers -----------------------------------------------------------

TEST_F(Mem, ArenaArrayDefaultConstructsAndRecycles) {
  ArenaArray<std::uint64_t> a(1000);
  ASSERT_EQ(a.size(), 1000u);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], 0u);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = i;
  const std::uint64_t* old = a.data();
  a.reset(900);  // same 8 KiB class: the released block comes right back
  EXPECT_EQ(a.data(), old);
  EXPECT_EQ(a[0], 0u);  // reset re-default-constructs
  ArenaArray<std::uint64_t> b(std::move(a));
  EXPECT_EQ(b.size(), 900u);
  EXPECT_TRUE(a.empty());
}

TEST_F(Mem, ArenaArrayHoldsChainedTileStates) {
  using Tile = scanprim::detail::ChainedTileState<std::uint64_t>;
  ArenaArray<Tile> tiles(64);
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    EXPECT_EQ(tiles[i].status.load(), scanprim::detail::TileStatus::kInvalid);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&tiles[i]) % 64, 0u)
        << "descriptor " << i << " not cacheline-aligned";
  }
}

TEST_F(Mem, ArenaVectorBehavesLikeVector) {
  Vector<std::uint64_t> v;
  for (std::uint64_t i = 0; i < 10'000; ++i) v.push_back(i);
  for (std::uint64_t i = 0; i < 10'000; ++i) ASSERT_EQ(v[i], i);
  Vector<std::uint64_t> w = v;
  w.resize(20'000);
  EXPECT_EQ(w[9'999], 9'999u);
  EXPECT_EQ(w[19'999], 0u);
}

// --- the serving contract under allocation failure ---------------------------

// A std::bad_alloc thrown from the batcher thread's first arena allocation —
// snapshot storage, staging growth, or the chained scratch — must be
// absorbed by the batch execution boundary: the affected jobs resolve
// Status::kError (message included), every future resolves, and the service
// survives to run the NEXT batch cleanly. This is satellite #3's scenario:
// allocation failure is recoverable, never fatal.
TEST_F(Mem, BatchAllocationFailureResolvesErrorNotCrash) {
  serve::Service::Options o;
  o.window_us = 50'000;  // coalesce all submissions into one batch
  serve::Service svc(o);

  // Arm AFTER construction so the service's own setup allocations are clean,
  // with a wide window: every arena allocation the first batch attempts on
  // the batcher thread fails, whichever call site gets there first.
  fault::arm_handler("mem.alloc", [] { throw std::bad_alloc(); }, 1,
                     1'000'000);

  std::vector<std::future<serve::Result>> futs;
  for (int i = 0; i < 8; ++i) {
    serve::ScanJob j;
    j.data.assign(4096, 1);
    j.op = serve::Op::kPlus;
    j.inclusive = true;
    futs.push_back(svc.submit(std::move(j)));
  }
  for (auto& f : futs) {
    serve::Result r = f.get();  // resolves — the batcher survived
    EXPECT_EQ(r.status, serve::Status::kError);
    EXPECT_FALSE(r.error.empty());
  }

  // Disarm; the next batch must succeed end-to-end on the same service.
  fault::disarm_all();
  serve::ScanJob j;
  j.data.assign(1024, 1);
  j.op = serve::Op::kPlus;
    j.inclusive = true;
  serve::Result r = svc.submit(std::move(j)).get();
  ASSERT_EQ(r.status, serve::Status::kOk);
  ASSERT_EQ(r.values.size(), 1024u);
  EXPECT_EQ(r.values.back(), 1024);
  svc.shutdown();
}

// A transient allocation failure — exactly ONE arena allocation on the
// batcher thread fails, everything after it succeeds. Depending on which
// call site takes the hit (snapshot growth outside the dispatch boundary,
// or scratch/staging growth inside it) the batch either fails wholesale at
// the loop boundary or recovers by bisection — but in every interleaving
// each future resolves to a coherent terminal state, any kOk result is
// bit-correct, and the same service then serves the next batch cleanly.
TEST_F(Mem, TransientAllocationFailureLeavesTheServiceServing) {
  serve::Service::Options o;
  o.window_us = 50'000;
  serve::Service svc(o);
  fault::arm_handler("mem.alloc", [] { throw std::bad_alloc(); }, 1, 1);

  std::vector<std::future<serve::Result>> futs;
  for (int i = 0; i < 8; ++i) {
    serve::ScanJob j;
    j.data.assign(2048, 1);
    j.op = serve::Op::kPlus;
    j.inclusive = true;
    futs.push_back(svc.submit(std::move(j)));
  }
  int ok = 0, errors = 0;
  for (auto& f : futs) {
    serve::Result r = f.get();
    if (r.status == serve::Status::kOk) {
      EXPECT_EQ(r.values.back(), 2048);
      ++ok;
    } else {
      ASSERT_EQ(r.status, serve::Status::kError);
      EXPECT_FALSE(r.error.empty());
      ++errors;
    }
  }
  EXPECT_EQ(ok + errors, 8);
  EXPECT_GE(fault::hits("mem.alloc"), 1u);  // the failure really happened

  fault::disarm_all();
  serve::ScanJob j;
  j.data.assign(512, 2);
  j.op = serve::Op::kPlus;
    j.inclusive = true;
  serve::Result r = svc.submit(std::move(j)).get();
  ASSERT_EQ(r.status, serve::Status::kOk);
  EXPECT_EQ(r.values.back(), 1024);
  svc.shutdown();
}

}  // namespace
}  // namespace scanprim::mem
