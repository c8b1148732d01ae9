// Implementation notes (docs/MEM.md):
//
//   - Every block is [64-byte header][usable bytes]; the header records how
//     the block was obtained (aligned new / mmap / hugetlb mmap), its class,
//     its mapped length, and the NUMA node it was attributed to — so any
//     thread can free or unmap it without consulting the allocating arena.
//   - Classes 2^12..2^26 match exactly (pop the head, O(1)); bigger blocks
//     round to 2 MiB multiples and recycle under a bounded best-fit: the
//     smallest free block that fits, and only if it is at most twice the
//     request — a tiny request can never pin an arbitrarily large recycled
//     buffer (the first-fit bloat exec::BufferArena used to have).
//   - Blocks below 256 KiB come from aligned operator new (page policy is
//     irrelevant at that size and malloc's fast paths are fine); larger
//     blocks are mmap'd so huge-page advice and NUMA binding apply to whole
//     mappings.
//   - All counters are process-wide relaxed atomics; the obs collector
//     renders them under the registry mutex at scrape time.
#ifndef _GNU_SOURCE
#define _GNU_SOURCE 1  // sched_setaffinity / CPU_SET with -std=c++20
#endif

#include "src/mem/mem.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "src/core/env.hpp"
#include "src/core/runtime.hpp"
#include "src/fault/fault.hpp"
#include "src/obs/registry.hpp"

#if defined(__linux__)
#include <sched.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#if defined(SCANPRIM_HAVE_NUMA)
#include <numa.h>
#endif

namespace scanprim::mem {

namespace {

constexpr std::size_t kAlign = 64;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kMinClassLog = 12;           // 4 KiB
constexpr std::size_t kMaxClassLog = 26;           // 64 MiB
constexpr std::size_t kMmapThreshold = 1u << 18;   // >= 256 KiB blocks mmap
constexpr std::size_t kHugeChunk = 2u << 20;       // 2 MiB
constexpr std::uint32_t kLargeClass = 0xffffffffu;
constexpr std::uint64_t kMagicLive = 0x6d656d4c49564531ull;  // "memLIVE1"
constexpr std::uint64_t kMagicFree = 0x6d656d4652454531ull;  // "memFREE1"

enum BlockKind : std::uint32_t {
  kKindNew = 0,      // aligned operator new
  kKindMmap = 1,     // anonymous mmap (THP-advised or plain)
  kKindHugetlb = 2,  // MAP_HUGETLB mmap
};

constexpr std::size_t kMaxNodes = 64;

// Process-wide counters (exported by the obs collector below).
std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};
std::atomic<std::uint64_t> g_freelist{0};
std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_misses{0};
std::atomic<std::uint64_t> g_os_allocs{0};
std::atomic<std::uint64_t> g_os_frees{0};
std::atomic<std::uint64_t> g_huge_grants{0};
std::atomic<std::uint64_t> g_huge_denials{0};
std::atomic<std::uint64_t> g_trim_released{0};
std::atomic<std::uint64_t> g_node_bytes[kMaxNodes] = {};
std::atomic<std::size_t> g_top_node{0};  ///< highest node index observed

void add_live(std::size_t usable) {
  const std::uint64_t now =
      g_live.fetch_add(usable, std::memory_order_relaxed) + usable;
  std::uint64_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak &&
         !g_peak.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

/// NUMA node of the CPU this thread runs on right now; 0 when the kernel
/// cannot say. Used only to attribute per-node byte counters.
std::size_t current_node() noexcept {
#if defined(__linux__) && defined(SYS_getcpu)
  unsigned cpu = 0, node = 0;
  if (::syscall(SYS_getcpu, &cpu, &node, nullptr) == 0) {
    return node < kMaxNodes ? node : kMaxNodes - 1;
  }
#endif
  return 0;
}

void track_node_alloc(std::size_t node, std::size_t usable) {
  g_node_bytes[node].fetch_add(usable, std::memory_order_relaxed);
  std::size_t top = g_top_node.load(std::memory_order_relaxed);
  while (node > top && !g_top_node.compare_exchange_weak(
                           top, node, std::memory_order_relaxed)) {
  }
}

struct MemConfig {
  std::atomic<int> huge{static_cast<int>(HugePolicy::kThp)};
  std::atomic<int> numa{static_cast<int>(NumaPolicy::kFirstTouch)};
  std::atomic<std::size_t> trim{std::size_t{256} << 20};
  bool pin = false;
};

MemConfig& cfg() {
  static MemConfig c;
  static std::once_flag once;
  std::call_once(once, [] {
    c.huge.store(env::choice_or("SCANPRIM_HUGEPAGES",
                                {{"0", static_cast<int>(HugePolicy::kOff)},
                                 {"off", static_cast<int>(HugePolicy::kOff)},
                                 {"false", static_cast<int>(HugePolicy::kOff)},
                                 {"none", static_cast<int>(HugePolicy::kOff)},
                                 {"thp", static_cast<int>(HugePolicy::kThp)},
                                 {"hugetlb",
                                  static_cast<int>(HugePolicy::kHugetlb)}},
                                static_cast<int>(HugePolicy::kThp)),
                 std::memory_order_relaxed);
    c.numa.store(
        env::choice_or("SCANPRIM_NUMA",
                       {{"firsttouch", static_cast<int>(NumaPolicy::kFirstTouch)},
                        {"interleave", static_cast<int>(NumaPolicy::kInterleave)},
                        {"interleaved",
                         static_cast<int>(NumaPolicy::kInterleave)}},
                       static_cast<int>(NumaPolicy::kFirstTouch)),
        std::memory_order_relaxed);
    c.trim.store(env::size_or("SCANPRIM_MEM_TRIM", std::size_t{256} << 20,
                              std::size_t{1} << 16, std::size_t{1} << 40),
                 std::memory_order_relaxed);
    c.pin = env::flag_or("SCANPRIM_PIN", false);
  });
  return c;
}

/// Register the scanprim_mem_* collector once, lazily (first allocation or
/// first counters() call). Never unregistered: the counters are process
/// globals and the registry is intentionally leaked.
void ensure_collector() {
  static std::once_flag once;
  std::call_once(once, [] {
    obs::register_collector([](std::string& out) {
      const auto c = [&](std::string_view name, std::uint64_t v) {
        obs::append_counter(out, name, v);
      };
      c("scanprim_mem_live_bytes", g_live.load(std::memory_order_relaxed));
      c("scanprim_mem_peak_bytes", g_peak.load(std::memory_order_relaxed));
      c("scanprim_mem_freelist_bytes",
        g_freelist.load(std::memory_order_relaxed));
      c("scanprim_mem_arena_hits_total",
        g_hits.load(std::memory_order_relaxed));
      c("scanprim_mem_arena_misses_total",
        g_misses.load(std::memory_order_relaxed));
      c("scanprim_mem_os_allocs_total",
        g_os_allocs.load(std::memory_order_relaxed));
      c("scanprim_mem_os_frees_total",
        g_os_frees.load(std::memory_order_relaxed));
      c("scanprim_mem_huge_grants_total",
        g_huge_grants.load(std::memory_order_relaxed));
      c("scanprim_mem_huge_denials_total",
        g_huge_denials.load(std::memory_order_relaxed));
      c("scanprim_mem_trim_released_bytes_total",
        g_trim_released.load(std::memory_order_relaxed));
      const std::size_t top = g_top_node.load(std::memory_order_relaxed);
      for (std::size_t n = 0; n <= top; ++n) {
        obs::append_counter(
            out, "scanprim_mem_node_bytes{node=\"" + std::to_string(n) + "\"}",
            g_node_bytes[n].load(std::memory_order_relaxed));
      }
    });
  });
}

std::size_t round_up(std::size_t v, std::size_t to) {
  return (v + to - 1) / to * to;
}

/// Class index and usable size for a request. kLargeClass for blocks above
/// the largest class; their usable size rounds to 2 MiB multiples.
void classify(std::size_t bytes, std::uint32_t* cls, std::size_t* usable) {
  std::size_t log = kMinClassLog;
  while (log <= kMaxClassLog && (std::size_t{1} << log) < bytes) ++log;
  if (log <= kMaxClassLog) {
    *cls = static_cast<std::uint32_t>(log - kMinClassLog);
    *usable = std::size_t{1} << log;
    return;
  }
  *cls = kLargeClass;
  *usable = round_up(bytes, kHugeChunk);
}

}  // namespace

namespace detail {

struct alignas(64) BlockHeader {
  std::uint64_t magic = 0;
  std::uint64_t usable = 0;  ///< bytes the caller may use (class size)
  std::uint64_t mapped = 0;  ///< bytes reserved from the OS, header included
  std::uint32_t kind = kKindNew;
  std::uint32_t cls = 0;  ///< class index, or kLargeClass
  std::int32_t node = 0;  ///< NUMA node attributed at OS allocation
  std::uint32_t pad = 0;
  BlockHeader* next = nullptr;  ///< free-list link
};
static_assert(sizeof(BlockHeader) == kHeaderBytes);

}  // namespace detail

using detail::BlockHeader;

namespace {

std::byte* data_of(BlockHeader* h) {
  return reinterpret_cast<std::byte*>(h) + kHeaderBytes;
}

BlockHeader* header_of(const std::byte* p) {
  return reinterpret_cast<BlockHeader*>(
      const_cast<std::byte*>(p - kHeaderBytes));
}

void numa_apply(void* base, std::size_t len) {
  (void)base;
  (void)len;
#if defined(SCANPRIM_HAVE_NUMA)
  if (numa_policy() == NumaPolicy::kInterleave && numa_supported() &&
      numa_node_count() > 1) {
    ::numa_interleave_memory(base, len, ::numa_all_nodes_ptr);
  }
#endif
}

/// Map (or new) a fresh block of exactly `usable` bytes plus the header,
/// applying the huge-page and NUMA policies. Throws std::bad_alloc when the
/// OS refuses the final fallback.
BlockHeader* os_alloc(std::size_t usable, std::uint32_t cls) {
  std::size_t mapped = usable + kHeaderBytes;
  void* base = nullptr;
  std::uint32_t kind = kKindNew;
#if defined(__linux__)
  if (mapped >= kMmapThreshold) {
    bool counted_huge = false;
    const HugePolicy hp = huge_policy();
    if (hp == HugePolicy::kHugetlb && mapped >= kHugeChunk) {
      const std::size_t hlen = round_up(mapped, kHugeChunk);
      void* m = ::mmap(nullptr, hlen, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
      if (m != MAP_FAILED) {
        base = m;
        mapped = hlen;
        kind = kKindHugetlb;
        g_huge_grants.fetch_add(1, std::memory_order_relaxed);
      } else {
        // No hugetlb pool (or exhausted): fall through to THP-advised
        // anonymous memory — the graceful degradation the policy promises.
        g_huge_denials.fetch_add(1, std::memory_order_relaxed);
      }
      counted_huge = true;
    }
    if (base == nullptr) {
      void* m = ::mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (m == MAP_FAILED) throw std::bad_alloc();
      base = m;
      kind = kKindMmap;
      if (hp != HugePolicy::kOff && mapped >= kHugeChunk) {
        const bool granted = ::madvise(m, mapped, MADV_HUGEPAGE) == 0;
        if (!counted_huge) {
          (granted ? g_huge_grants : g_huge_denials)
              .fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    numa_apply(base, mapped);
  }
#endif
  if (base == nullptr) {
    base = ::operator new(mapped, std::align_val_t{kAlign}, std::nothrow);
    if (base == nullptr) throw std::bad_alloc();
    kind = kKindNew;
  }
  auto* h = ::new (base) BlockHeader;
  h->magic = kMagicLive;
  h->usable = usable;
  h->mapped = mapped;
  h->kind = kind;
  h->cls = cls;
  const std::size_t node = current_node();
  h->node = static_cast<std::int32_t>(node);
  g_os_allocs.fetch_add(1, std::memory_order_relaxed);
  track_node_alloc(node, usable);
  return h;
}

void os_free(BlockHeader* h) noexcept {
  g_os_frees.fetch_add(1, std::memory_order_relaxed);
  g_node_bytes[static_cast<std::size_t>(h->node)].fetch_sub(
      h->usable, std::memory_order_relaxed);
  const std::uint32_t kind = h->kind;
  const std::size_t mapped = h->mapped;
  h->magic = 0;
  switch (kind) {
    case kKindNew:
      ::operator delete(static_cast<void*>(h), std::align_val_t{kAlign});
      break;
#if defined(__linux__)
    case kKindMmap:
    case kKindHugetlb:
      ::munmap(static_cast<void*>(h), mapped);
      break;
#endif
    default:
      assert(false && "corrupt block kind");
  }
}

}  // namespace

// --- policy ------------------------------------------------------------------

HugePolicy huge_policy() {
  return static_cast<HugePolicy>(cfg().huge.load(std::memory_order_relaxed));
}
void set_huge_policy(HugePolicy p) {
  cfg().huge.store(static_cast<int>(p), std::memory_order_relaxed);
}
NumaPolicy numa_policy() {
  return static_cast<NumaPolicy>(cfg().numa.load(std::memory_order_relaxed));
}
void set_numa_policy(NumaPolicy p) {
  cfg().numa.store(static_cast<int>(p), std::memory_order_relaxed);
}
bool pin_workers() { return cfg().pin; }
std::size_t trim_high_water() {
  return cfg().trim.load(std::memory_order_relaxed);
}
void set_trim_high_water(std::size_t bytes) {
  cfg().trim.store(bytes, std::memory_order_relaxed);
}

bool numa_supported() {
#if defined(SCANPRIM_HAVE_NUMA)
  static const bool ok = ::numa_available() >= 0;
  return ok;
#else
  return false;
#endif
}

std::size_t numa_node_count() {
#if defined(SCANPRIM_HAVE_NUMA)
  if (numa_supported()) {
    const int n = ::numa_num_configured_nodes();
    return n > 0 ? static_cast<std::size_t>(n) : 1;
  }
#endif
  return 1;
}

bool pin_thread_to_cpu(std::size_t index) {
#if defined(__linux__)
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(index % hw), &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  (void)index;
  return false;
#endif
}

// --- arena -------------------------------------------------------------------

Arena::~Arena() { trim(0); }

std::size_t Arena::free_blocks() const noexcept {
  std::size_t n = large_.size();
  for (const BlockHeader* h : classes_) {
    for (; h != nullptr; h = h->next) ++n;
  }
  return n;
}

BlockHeader* Arena::pop_fit(std::size_t usable, std::size_t cls) noexcept {
  if (cls != kLargeClass) {
    BlockHeader* h = classes_[cls];
    if (h != nullptr) classes_[cls] = h->next;
    return h;
  }
  // Bounded best-fit over the large list: the smallest block that fits, and
  // only if it is at most twice the request — reuse must not pin a much
  // larger buffer on a small ask.
  std::size_t best = large_.size();
  for (std::size_t i = 0; i < large_.size(); ++i) {
    BlockHeader* h = large_[i];
    if (h->usable < usable || h->usable > 2 * usable) continue;
    if (best == large_.size() || h->usable < large_[best]->usable) best = i;
  }
  if (best == large_.size()) return nullptr;
  BlockHeader* h = large_[best];
  large_[best] = large_.back();
  large_.pop_back();
  return h;
}

BlockHeader* Arena::pop_largest() noexcept {
  std::size_t best = large_.size();
  for (std::size_t i = 0; i < large_.size(); ++i) {
    if (best == large_.size() || large_[i]->usable > large_[best]->usable) {
      best = i;
    }
  }
  if (best != large_.size()) {
    BlockHeader* h = large_[best];
    large_[best] = large_.back();
    large_.pop_back();
    return h;
  }
  for (std::size_t c = kClasses; c-- > 0;) {
    if (classes_[c] != nullptr) {
      BlockHeader* h = classes_[c];
      classes_[c] = h->next;
      return h;
    }
  }
  return nullptr;
}

std::byte* Arena::allocate(std::size_t bytes, bool* reused) {
  SCANPRIM_FAULT_POINT("mem.alloc");
  ensure_collector();
  if (bytes == 0) bytes = 1;
  std::uint32_t cls = 0;
  std::size_t usable = 0;
  classify(bytes, &cls, &usable);
  if (BlockHeader* h = pop_fit(usable, cls)) {
    assert(h->magic == kMagicFree);
    h->magic = kMagicLive;
    free_bytes_ -= h->usable;
    g_freelist.fetch_sub(h->usable, std::memory_order_relaxed);
    g_hits.fetch_add(1, std::memory_order_relaxed);
    add_live(h->usable);
    if (reused != nullptr) *reused = true;
    return data_of(h);
  }
  BlockHeader* h = os_alloc(usable, cls);
  g_misses.fetch_add(1, std::memory_order_relaxed);
  add_live(h->usable);
  if (reused != nullptr) *reused = false;
  return data_of(h);
}

void Arena::deallocate(std::byte* p) noexcept {
  if (p == nullptr) return;
  BlockHeader* h = header_of(p);
  assert(h->magic == kMagicLive && "free of a pointer mem does not own");
  h->magic = kMagicFree;
  g_live.fetch_sub(h->usable, std::memory_order_relaxed);
  if (h->cls != kLargeClass) {
    h->next = classes_[h->cls];
    classes_[h->cls] = h;
  } else {
    try {
      large_.push_back(h);
    } catch (...) {
      // Could not even grow the bookkeeping list: give the block straight
      // back to the OS instead of losing it.
      os_free(h);
      return;
    }
  }
  free_bytes_ += h->usable;
  g_freelist.fetch_add(h->usable, std::memory_order_relaxed);
  maybe_trim();
}

void Arena::maybe_trim() noexcept {
  const std::size_t hw = trim_high_water();
  if (free_bytes_ > hw) trim(hw);
}

std::size_t Arena::trim(std::size_t keep_bytes) noexcept {
  std::size_t released = 0;
  while (free_bytes_ > keep_bytes) {
    BlockHeader* h = pop_largest();
    if (h == nullptr) break;
    free_bytes_ -= h->usable;
    released += h->usable;
    g_freelist.fetch_sub(h->usable, std::memory_order_relaxed);
    os_free(h);
  }
  if (released > 0) {
    g_trim_released.fetch_add(released, std::memory_order_relaxed);
  }
  return released;
}

Arena& local_arena() {
  thread_local Arena arena;
  return arena;
}

std::byte* allocate(std::size_t bytes, bool* reused) {
  return local_arena().allocate(bytes, reused);
}

void deallocate(std::byte* p) noexcept { local_arena().deallocate(p); }

std::size_t trim_local(std::size_t keep_bytes) noexcept {
  return local_arena().trim(keep_bytes);
}

std::size_t usable_bytes(const std::byte* p) noexcept {
  const BlockHeader* h = header_of(p);
  assert(h->magic == kMagicLive);
  return h->usable;
}

Counters counters() {
  ensure_collector();
  Counters c;
  c.live_bytes = g_live.load(std::memory_order_relaxed);
  c.peak_bytes = g_peak.load(std::memory_order_relaxed);
  c.freelist_bytes = g_freelist.load(std::memory_order_relaxed);
  c.arena_hits = g_hits.load(std::memory_order_relaxed);
  c.arena_misses = g_misses.load(std::memory_order_relaxed);
  c.os_allocs = g_os_allocs.load(std::memory_order_relaxed);
  c.os_frees = g_os_frees.load(std::memory_order_relaxed);
  c.huge_grants = g_huge_grants.load(std::memory_order_relaxed);
  c.huge_denials = g_huge_denials.load(std::memory_order_relaxed);
  c.trim_released = g_trim_released.load(std::memory_order_relaxed);
  const std::size_t top = g_top_node.load(std::memory_order_relaxed);
  c.node_bytes.resize(top + 1);
  for (std::size_t n = 0; n <= top; ++n) {
    c.node_bytes[n] = g_node_bytes[n].load(std::memory_order_relaxed);
  }
  return c;
}

}  // namespace scanprim::mem
