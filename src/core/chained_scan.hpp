// Single-pass chained scan engine (docs/SCAN_ENGINE.md): the one parallel
// engine behind every scan, segmented scan and fused executor group.
//
// A blocked reduce-then-scan decomposition costs two pool dispatches and
// reads the input twice (~3n memory traffic). This engine reaches the ~2n
// lower bound the way LightScan (Liu & Aluru) and Träff's exclusive-scan
// algorithms do: the input is cut into cache-sized tiles that workers claim
// in order through an atomic counter. A worker summarises its
// tile while the tile is cold (one read from DRAM), publishes the tile
// aggregate through an atomic status word, resolves its carry-in by looking
// back across predecessor tiles — accumulating published aggregates until it
// meets a resolved inclusive prefix — then re-scans the tile with the carry
// while the tile is still resident in cache. One dispatch, one DRAM read.
//
// Tile status protocol (the X/P states of decoupled lookback):
//   kInvalid   not yet summarised — lookback spins
//   kAggregate `aggregate` holds the tile's local ⊕-summary        (X)
//   kPrefix    `prefix` holds the inclusive prefix through the tile (P)
// Logical tile 0 publishes kPrefix immediately (its carry-in is the
// identity), so every lookback terminates. A segmented tile that contains a
// flag also publishes kPrefix immediately — nothing crosses a segment
// boundary, so its outflow is independent of its carry-in. That is exactly
// the segmented-carry rule of the paper's Figure 4, and it short-circuits
// the lookback chain at every segment boundary.
//
// Backward scans run the same protocol with the logical tile order reversed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>

#include "src/fault/fault.hpp"
#include "src/mem/mem.hpp"
#include "src/obs/obs.hpp"
#include "src/thread/thread_pool.hpp"

namespace scanprim::detail {

/// Bytes per chained tile. 32 KiB: small enough that the rescan's second
/// pass over the tile hits L1/L2 instead of DRAM, large enough that the
/// per-tile status-word traffic is noise. The tile sweep in
/// bench_scan_micro (SIMD kernels under the lookback protocol, p>1)
/// measures 32-64 KiB as a tie within run noise and 8 KiB as ~1.2x
/// slower; rerun the sweep before moving this on new hardware.
inline constexpr std::size_t kChainedTileBytes = 32 * 1024;

/// Elements per chained tile for 8-byte element types (the historical
/// constant; callers with a concrete element type should size by bytes via
/// chained_tile_elements so 1-byte flag scans don't run 4 KiB tiles).
inline constexpr std::size_t kChainedTileElements = kChainedTileBytes / 8;

/// Elements per chained tile for element type T: kChainedTileBytes scaled
/// by sizeof(T), floored so degenerate (huge) element types still make
/// progress.
template <class T>
constexpr std::size_t chained_tile_elements() {
  const std::size_t e = kChainedTileBytes / sizeof(T);
  return e < 256 ? 256 : e;
}

enum class TileStatus : std::uint32_t {
  kInvalid = 0,
  kAggregate = 1,
  kPrefix = 2,
};

/// Per-tile descriptor, cacheline-aligned so workers publishing adjacent
/// tiles do not false-share.
template <class C>
struct alignas(64) ChainedTileState {
  std::atomic<TileStatus> status{TileStatus::kInvalid};
  C aggregate{};  ///< valid once status is kAggregate
  C prefix{};     ///< valid once status is kPrefix (inclusive through tile)
};

/// One spin-wait beat: tells the core this is a busy-wait (on x86 `pause`
/// also backs off the speculative memory pipeline and yields the
/// hyperthread's issue slots) instead of burning full-speed iterations.
inline void chained_cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

inline void chained_spin_pause(unsigned& spins) {
  chained_cpu_relax();
  if (++spins >= 128) {
    std::this_thread::yield();
    spins = 0;
  }
}

/// Reusable tile-descriptor storage for repeated chained scans (the serve
/// batcher runs one mega-scan per batch, thousands per second — reallocating
/// and faulting in the descriptor array each time is pure overhead). The
/// descriptor array lives in the dispatching thread's size-classed arena
/// (src/mem), so growth recycles previously released tile-state blocks and
/// a grown array returns to the free lists, not a private cache. Not
/// thread-safe: one scratch belongs to one dispatching thread.
template <class C>
class ChainedScratch {
 public:
  /// Storage for `ntiles` descriptors, every status reset to kInvalid. The
  /// reset is relaxed: the pool dispatch that follows publishes it to the
  /// workers.
  ChainedTileState<C>* prepare(std::size_t ntiles) {
    if (ntiles > states_.size()) {
      // Fresh descriptors come default-constructed, i.e. already kInvalid.
      states_.reset(ntiles);
    } else {
      for (std::size_t i = 0; i < ntiles; ++i) {
        states_[i].status.store(TileStatus::kInvalid,
                                std::memory_order_relaxed);
      }
    }
    prepared_ = ntiles;
    return states_.data();
  }

  /// Re-invalidates every descriptor of the most recent run. An
  /// abort-poisoned run (a tile callback threw) leaves stale kPrefix /
  /// kAggregate statuses and a fabricated identity prefix behind;
  /// chained_scan_run calls this before rethrowing so a scratch handed back
  /// to the caller is always clean. prepare() also re-invalidates on the
  /// next run, so reuse is safe even for scratches poisoned through the
  /// run-local (scratch == nullptr) path — this method just makes the
  /// repair explicit and immediate.
  void reset() {
    for (std::size_t i = 0; i < prepared_; ++i) {
      states_[i].status.store(TileStatus::kInvalid, std::memory_order_relaxed);
    }
  }

 private:
  mem::ArenaArray<ChainedTileState<C>> states_;
  std::size_t prepared_ = 0;  ///< descriptor count of the most recent run
};

/// Runs one chained scan over `[0, n)` in a single pool dispatch.
///
/// `summarize(worker, begin, count, &agg)` computes the tile's local
/// ⊕-summary (one pass, starting from the identity) and returns true when
/// the tile contains a segment flag — i.e. when `agg` is already the tile's
/// outflow regardless of carry-in. `rescan(worker, begin, count, carry)`
/// writes the tile's final output given its resolved carry-in. The same
/// worker runs `rescan` right after `summarize` of the same tile, with no
/// other tile in between, so the tile is still cache-resident and anything
/// `summarize` left in per-worker scratch is still there. `combine` must be
/// associative with `identity` as a two-sided identity; lookback accumulates
/// strictly in logical order, so non-commutative operators (e.g. the
/// "latest valid value" operator behind seg_copy) are safe.
///
/// Callers gate on workers/size themselves: below the serial cutoff a plain
/// sequential kernel is cheaper than any protocol.
///
/// `scratch`, when given, supplies the tile-descriptor storage so repeated
/// runs (the serve batcher's per-batch mega-scans) skip the allocation; when
/// null a run-local array is used.
template <class C, class Combine, class Summarize, class Rescan>
void chained_scan_run(std::size_t n, std::size_t tile, bool backward,
                      C identity, Combine combine, Summarize summarize,
                      Rescan rescan, ChainedScratch<C>* scratch = nullptr) {
  if (n == 0) return;
  const std::size_t ntiles = (n + tile - 1) / tile;
  mem::ArenaArray<ChainedTileState<C>> local_states;
  ChainedTileState<C>* states;
  if (scratch != nullptr) {
    states = scratch->prepare(ntiles);
  } else {
    // Run-local descriptors still come from (and return to) the calling
    // thread's arena, so repeated scratch-less scans recycle the same block.
    local_states.reset(ntiles);
    states = local_states.data();
  }
  std::atomic<std::size_t> next{0};
  // If a tile callback throws, its descriptor would stay kInvalid and every
  // successor would spin forever. The thrower poisons the run instead: it
  // publishes an identity prefix to unblock in-flight lookbacks, flips
  // `aborted` so idle workers stop claiming tiles, and rethrows through the
  // pool (which propagates the first error to the caller).
  std::atomic<bool> aborted{false};

  const auto body = [&](std::size_t w) {
    for (;;) {
      if (aborted.load(std::memory_order_relaxed)) return;
      const std::size_t lt = next.fetch_add(1, std::memory_order_relaxed);
      if (lt >= ntiles) return;
      ChainedTileState<C>& st = states[lt];
      // One span per tile: summarise + lookback + rescan. Lookback stalls
      // (waiting on a slow predecessor) show up as long tile spans in the
      // trace, which is exactly the where-does-the-dispatch-go question
      // the obs subsystem exists to answer (docs/OBS.md).
      obs::Span tile_span("chained.tile");
      try {
        const std::size_t p = backward ? ntiles - 1 - lt : lt;
        const std::size_t begin = p * tile;
        const std::size_t count = n - begin < tile ? n - begin : tile;
        C agg = identity;
        SCANPRIM_FAULT_POINT("chained.summarize");
        const bool cut = summarize(w, begin, count, &agg);
        if (lt == 0 || cut) {
          // Carry-in identity (tile 0) or irrelevant (flagged tile): the
          // summary already is the inclusive prefix through this tile.
          st.prefix = agg;
          st.status.store(TileStatus::kPrefix, std::memory_order_release);
        } else {
          st.aggregate = agg;
          st.status.store(TileStatus::kAggregate, std::memory_order_release);
        }

        C carry = identity;
        if (lt > 0) {
          // Lookback: walk predecessors until a resolved prefix, combining
          // aggregates in logical order. Tile 0 (and any flagged tile) is
          // always kPrefix, so `i` cannot underflow.
          C acc{};
          bool have_acc = false;
          std::size_t i = lt - 1;
          unsigned spins = 0;
          for (;;) {
            const TileStatus s = states[i].status.load(std::memory_order_acquire);
            if (s == TileStatus::kPrefix) {
              carry = have_acc ? combine(states[i].prefix, acc)
                               : states[i].prefix;
              break;
            }
            if (s == TileStatus::kAggregate) {
              acc = have_acc ? combine(states[i].aggregate, acc)
                             : states[i].aggregate;
              have_acc = true;
              --i;
              spins = 0;
              continue;
            }
            if (aborted.load(std::memory_order_relaxed)) return;
            chained_spin_pause(spins);
          }
          if (!cut) {
            st.prefix = combine(carry, agg);
            st.status.store(TileStatus::kPrefix, std::memory_order_release);
          }
        }

        SCANPRIM_FAULT_POINT("chained.rescan");
        rescan(w, begin, count, carry);
      } catch (...) {
        aborted.store(true, std::memory_order_relaxed);
        // Unblock in-flight lookbacks with a fabricated identity prefix —
        // but only if this tile has not already published kPrefix. Once
        // kPrefix is out (e.g. the *rescan* threw, after publication), a
        // successor may be reading st.prefix right now; rewriting it here
        // would be a data race, and the successor could combine with the
        // bogus identity. The prefix a published tile carries is correct
        // regardless of the abort, so leave it alone.
        if (st.status.load(std::memory_order_relaxed) != TileStatus::kPrefix) {
          st.prefix = identity;
          st.status.store(TileStatus::kPrefix, std::memory_order_release);
        }
        throw;
      }
    }
  };
  // Handed over by reference: the closure is far larger than std::function's
  // inline buffer, so passing it by value would heap-allocate a copy per run.
  if (scratch == nullptr) {
    thread::pool().run(std::ref(body));
    return;
  }
  // With a caller-owned scratch, repair it before letting the error out of
  // an abort-poisoned run: the pool has joined every worker by the time run()
  // rethrows, so nothing references the descriptors any more, and the caller
  // gets its scratch back clean (reusable immediately, not only after the
  // next prepare()).
  try {
    thread::pool().run(std::ref(body));
  } catch (...) {
    scratch->reset();
    throw;
  }
}

}  // namespace scanprim::detail
