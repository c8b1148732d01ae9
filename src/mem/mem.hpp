// src/mem — the process-wide memory subsystem (docs/MEM.md).
//
// Scan is memory-bandwidth-bound: once the kernel is single-pass decoupled
// lookback, the remaining wins come from where the bytes live. This layer
// gives every hot allocation site in the stack — executor temporaries,
// chained tile descriptors, serve batch snapshots — one answer:
//
//   - Size-classed, THREAD-LOCAL arenas. Requests round up to a power-of-two
//     class (4 KiB .. 64 MiB); bigger blocks round to 2 MiB multiples and
//     recycle under a bounded best-fit (a block is only reused for a request
//     of at least half its size, so a tiny request can never pin a huge
//     recycled buffer). Freed blocks go to the CALLING thread's free list —
//     no lock anywhere on the alloc/free path — and every block carries a
//     self-describing header, so a block may be allocated on one thread and
//     freed on another.
//   - Huge pages. Blocks big enough to be mmap-backed take the policy of
//     SCANPRIM_HUGEPAGES={0,thp,hugetlb}: `thp` (the default) advises
//     MADV_HUGEPAGE, `hugetlb` tries an explicit MAP_HUGETLB mapping and
//     falls back to thp-advised anonymous memory when the pool is empty.
//     Grants and denials are counted.
//   - NUMA placement. First-touch is the default policy (the page lands on
//     the node of the worker that first writes it; SCANPRIM_PIN=1 pins pool
//     workers round-robin so that touch is stable). SCANPRIM_NUMA=interleave
//     spreads pages across nodes via libnuma when the build found it
//     (SCANPRIM_HAVE_NUMA; clean no-op otherwise). Per-node live bytes are
//     counted when the node can be determined.
//   - A trim / high-water policy: a thread's free list is capped
//     (SCANPRIM_MEM_TRIM bytes, default 256 MiB); crossing the cap releases
//     the largest free blocks back to the OS, and trim() does so on demand.
//   - Counters for all of it — live/peak/free-list bytes, hits/misses,
//     huge grants/denials, per-node bytes — exported through the obs
//     registry as scanprim_mem_* Prometheus series (docs/OBS.md).
//
// Allocation failures (including the injectable `mem.alloc` fault point,
// docs/FAULTS.md) throw std::bad_alloc or fault::Injected; both derive from
// paths the serve batcher's bisection recovery already isolates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

namespace scanprim::mem {

// --- policy ------------------------------------------------------------------

/// Large-block page-size policy (SCANPRIM_HUGEPAGES).
enum class HugePolicy : int {
  kOff = 0,      ///< plain 4 KiB pages, no advice
  kThp = 1,      ///< madvise(MADV_HUGEPAGE) on mmap-backed blocks (default)
  kHugetlb = 2,  ///< try MAP_HUGETLB, fall back to kThp behaviour on denial
};

/// Large-block placement policy (SCANPRIM_NUMA).
enum class NumaPolicy : int {
  kFirstTouch = 0,  ///< pages land where first written (default)
  kInterleave = 1,  ///< round-robin pages across nodes (libnuma; else no-op)
};

/// The active policies. Initialised from the environment on first use;
/// the setters override (benches compare THP on/off in one process, tests
/// pin a policy regardless of the ambient environment).
HugePolicy huge_policy();
void set_huge_policy(HugePolicy p);
NumaPolicy numa_policy();
void set_numa_policy(NumaPolicy p);

/// Whether ThreadPool workers pin themselves round-robin across CPUs
/// (SCANPRIM_PIN=1; default off). Read once by the pool at worker start.
bool pin_workers();

/// Per-thread free-list high water in bytes (SCANPRIM_MEM_TRIM). Crossing
/// it on a free releases largest-first until back under.
std::size_t trim_high_water();
void set_trim_high_water(std::size_t bytes);

/// True when the build linked libnuma AND the running system supports it
/// (numa_available() >= 0). Interleave requests are silent no-ops otherwise.
bool numa_supported();

/// Configured NUMA nodes (always >= 1; 1 when libnuma is absent).
std::size_t numa_node_count();

/// Pin the calling thread to CPU `index % hardware_concurrency`. Returns
/// false (doing nothing) off-Linux or when the kernel refuses.
bool pin_thread_to_cpu(std::size_t index);

// --- arena -------------------------------------------------------------------

namespace detail {
struct BlockHeader;  // the 64-byte self-describing prefix of every block
}

/// One size-classed arena. NOT thread-safe: an instance belongs to one
/// thread (use local_arena() / the free functions for the calling thread's
/// instance; standalone instances are for tests). deallocate() accepts
/// blocks allocated by ANY arena — every block's header is self-describing —
/// and files them in this instance's free lists.
class Arena {
 public:
  Arena() = default;
  ~Arena();  ///< releases every free-listed block to the OS

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// A 64-byte-aligned block of at least `bytes` usable bytes. `*reused`
  /// (when non-null) reports whether a free-listed block was recycled (an
  /// arena hit) instead of mapped fresh. Throws std::bad_alloc when the OS
  /// refuses, fault::Injected when the `mem.alloc` point is armed.
  std::byte* allocate(std::size_t bytes, bool* reused = nullptr);

  /// Return `p` (a pointer allocate() returned, from this or any arena) to
  /// this arena's free list. Crossing the high water releases largest-first.
  void deallocate(std::byte* p) noexcept;

  /// Release free-listed blocks, largest first, until at most `keep_bytes`
  /// remain listed. Returns the bytes released to the OS.
  std::size_t trim(std::size_t keep_bytes = 0) noexcept;

  /// Bytes / blocks currently free-listed in this arena.
  std::size_t free_bytes() const noexcept { return free_bytes_; }
  std::size_t free_blocks() const noexcept;

 private:
  static constexpr std::size_t kClasses = 15;  // 2^12 .. 2^26

  detail::BlockHeader* pop_fit(std::size_t usable, std::size_t cls) noexcept;
  detail::BlockHeader* pop_largest() noexcept;
  void maybe_trim() noexcept;

  detail::BlockHeader* classes_[kClasses] = {};  ///< exact-class lists
  std::vector<detail::BlockHeader*> large_;      ///< > 64 MiB blocks, best-fit
  std::size_t free_bytes_ = 0;
};

/// The calling thread's arena (created on first use, free lists released at
/// thread exit). Blocks may outlive the thread: the header says how to
/// unmap, so another thread's deallocate() handles them.
Arena& local_arena();

/// allocate/deallocate/trim on the calling thread's arena.
std::byte* allocate(std::size_t bytes, bool* reused = nullptr);
void deallocate(std::byte* p) noexcept;
std::size_t trim_local(std::size_t keep_bytes = 0) noexcept;

/// Usable bytes of a live block returned by allocate() (its class size —
/// at least what was asked for). Asserts on a pointer the subsystem does
/// not own.
std::size_t usable_bytes(const std::byte* p) noexcept;

// --- counters ----------------------------------------------------------------

/// Process-wide snapshot of the subsystem's counters (the same numbers the
/// obs collector renders as scanprim_mem_* series).
struct Counters {
  std::uint64_t live_bytes = 0;      ///< usable bytes handed out, not yet freed
  std::uint64_t peak_bytes = 0;      ///< high-water of live_bytes
  std::uint64_t freelist_bytes = 0;  ///< usable bytes parked across all arenas
  std::uint64_t arena_hits = 0;      ///< allocations served from a free list
  std::uint64_t arena_misses = 0;    ///< allocations that went to the OS
  std::uint64_t os_allocs = 0;       ///< blocks mapped/newed from the OS
  std::uint64_t os_frees = 0;        ///< blocks released back to the OS
  std::uint64_t huge_grants = 0;     ///< MAP_HUGETLB or MADV_HUGEPAGE honoured
  std::uint64_t huge_denials = 0;    ///< ... refused (fell back gracefully)
  std::uint64_t trim_released = 0;   ///< bytes released by trim / high water
  /// Bytes currently held from the OS (live + free-listed) attributed to
  /// the NUMA node of the allocating CPU. One entry per node observed; all
  /// zero-attributed to node 0 when the node cannot be determined.
  std::vector<std::uint64_t> node_bytes;
};
Counters counters();

// --- typed helpers -----------------------------------------------------------

/// RAII typed array on the calling thread's arena. Elements are
/// default-constructed on reset() and destroyed (for non-trivial T) on
/// release; T may be at most 64-byte aligned. ChainedScratch keeps its
/// tile descriptors in one.
template <class T>
class ArenaArray {
  static_assert(alignof(T) <= 64, "arena blocks are 64-byte aligned");

 public:
  ArenaArray() = default;
  explicit ArenaArray(std::size_t n) { reset(n); }
  ~ArenaArray() { release(); }

  ArenaArray(ArenaArray&& o) noexcept : p_(o.p_), n_(o.n_) {
    o.p_ = nullptr;
    o.n_ = 0;
  }
  ArenaArray& operator=(ArenaArray&& o) noexcept {
    if (this != &o) {
      release();
      p_ = o.p_;
      n_ = o.n_;
      o.p_ = nullptr;
      o.n_ = 0;
    }
    return *this;
  }
  ArenaArray(const ArenaArray&) = delete;
  ArenaArray& operator=(const ArenaArray&) = delete;

  /// Replace the storage with `n` default-constructed elements. The old
  /// block goes back to the arena first, so growing re-uses it for the
  /// next caller of its class.
  void reset(std::size_t n) {
    release();
    if (n == 0) return;
    std::byte* raw = mem::allocate(n * sizeof(T));
    T* p = reinterpret_cast<T*>(raw);
    std::size_t built = 0;
    try {
      for (; built < n; ++built) ::new (static_cast<void*>(p + built)) T();
    } catch (...) {
      while (built > 0) p[--built].~T();
      mem::deallocate(raw);
      throw;
    }
    p_ = p;
    n_ = n;
  }

  void release() noexcept {
    if (p_ != nullptr) {
      if constexpr (!std::is_trivially_destructible_v<T>) {
        for (std::size_t i = n_; i > 0; --i) p_[i - 1].~T();
      }
      mem::deallocate(reinterpret_cast<std::byte*>(p_));
      p_ = nullptr;
      n_ = 0;
    }
  }

  T* data() noexcept { return p_; }
  const T* data() const noexcept { return p_; }
  std::size_t size() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  T& operator[](std::size_t i) noexcept { return p_[i]; }
  const T& operator[](std::size_t i) const noexcept { return p_[i]; }

 private:
  T* p_ = nullptr;
  std::size_t n_ = 0;
};

/// A std allocator over the calling thread's arena, for containers whose
/// backing store should recycle through the size classes (the serve
/// batcher's snapshot and staging vectors). All instances are
/// interchangeable: memory allocated through one may be deallocated through
/// another (it files into the then-calling thread's free list).
template <class T>
class ArenaAllocator {
  static_assert(alignof(T) <= 64, "arena blocks are 64-byte aligned");

 public:
  using value_type = T;
  using is_always_equal = std::true_type;

  ArenaAllocator() noexcept = default;
  template <class U>
  ArenaAllocator(const ArenaAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return reinterpret_cast<T*>(mem::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    mem::deallocate(reinterpret_cast<std::byte*>(p));
  }

  template <class U>
  bool operator==(const ArenaAllocator<U>&) const noexcept {
    return true;
  }
};

/// std::vector whose heap lives in the size-classed arenas.
template <class T>
using Vector = std::vector<T, ArenaAllocator<T>>;

}  // namespace scanprim::mem
