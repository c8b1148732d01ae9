// The pipeline executor: runs a fused plan (fuser.hpp) over the existing
// ThreadPool, one kernel per fused group.
//
// A group with a scan runs on the chained engine of core/chained_scan.hpp,
// like core/scan.hpp: one dispatch, in which tiles resolve their carries
// through the lookback protocol with the group's map/zip lambdas carried
// into the summarise and rescan loops. A chain like `map | +-scan | map |
// map` therefore reads its input from memory once. A pack group carries the
// kept count beside the scan carry, so the packed output offset of each
// tile is resolved by the same lookback. Below the serial cutoff (or with
// one worker) every group is one sequential pass.
//
// Intermediate buffers between groups come from a BufferArena that reuses
// previous temporaries instead of allocating per stage.
#pragma once

#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/core/chained_scan.hpp"
#include "src/exec/fuser.hpp"
#include "src/fault/fault.hpp"
#include "src/exec/graph.hpp"
#include "src/exec/stats.hpp"
#include "src/obs/obs.hpp"
#include "src/thread/thread_pool.hpp"

namespace scanprim::exec {

namespace detail {

/// Inter-group temporaries, served by the size-classed thread-local arenas
/// of src/mem (docs/MEM.md): acquire takes from the calling thread's free
/// lists (so an executor shares recycled buffers with everything else on
/// its thread — the serve batcher's snapshots, chained scratch), release
/// files the buffer back, and the arena's high-water trim policy bounds
/// retained memory instead of the old grow-forever buffer list. Blocks are
/// 64-byte aligned, which covers every trivially copyable element type the
/// executor accepts.
class BufferArena {
 public:
  /// A buffer of at least `bytes`; `*reused` reports whether a free-listed
  /// block was recycled (an arena hit).
  std::byte* acquire(std::size_t bytes, bool* reused);
  void release(std::byte* p);
};

// Visit the tiles of [lo, hi) in scan order (forward, or back-to-front for
// backward scans), calling fn(begin, count). Tiles are aligned from `lo` so
// both directions visit identical tile boundaries.
template <class Fn>
void for_tiles(std::size_t lo, std::size_t hi, std::size_t tile, bool backward,
               Fn&& fn) {
  if (lo >= hi) return;
  if (!backward) {
    for (std::size_t b = lo; b < hi; b += tile) {
      fn(b, hi - b < tile ? hi - b : tile);
    }
  } else {
    std::size_t count = (hi - lo + tile - 1) / tile;
    while (count-- > 0) {
      const std::size_t b = lo + count * tile;
      fn(b, hi - b < tile ? hi - b : tile);
    }
  }
}

/// The carry of a chained pack group: the scan carry, the number of kept
/// elements so far, and whether a segment flag reset the scan carry.
template <class T>
struct PackCarry {
  T v{};
  std::size_t kept = 0;
  bool reset = false;
};

/// Runs one group over input of length n, writing to `out` (length n, or the
/// pack count when the group packs — returned). `prev` is the previous
/// group's buffer, or null when the group reads through the source node.
template <class T>
std::size_t execute_group(const std::vector<Node<T>>& nodes, const Group& g,
                          const T* prev, std::size_t n, T* out,
                          std::size_t tile, Stats& s) {
  const Node<T>& src = nodes[0];
  const T* direct_in = prev ? prev : src.direct;
  const auto load = [&](std::size_t begin, std::size_t c, T* dst) {
    if (direct_in) {
      std::memcpy(dst, direct_in + begin, c * sizeof(T));
    } else {
      src.load(begin, c, dst);
    }
  };

  const std::size_t workers = thread::num_workers();
  const bool serial = workers == 1 || n < thread::kSerialCutoff;

  // --- permute: always a singleton group, one scatter pass -------------------
  if (g.is_permute) {
    const Node<T>& pm = nodes[g.first];
    assert(pm.index.size() == n);
    const std::size_t* idx = pm.index.data();
    thread::parallel_blocks(n, [&](thread::Block blk, std::size_t) {
      if (direct_in) {
        for (std::size_t i = blk.begin; i < blk.end; ++i) {
          out[idx[i]] = direct_in[i];
        }
        return;
      }
      std::vector<T> scratch(tile);
      for_tiles(blk.begin, blk.end, tile, false, [&](std::size_t b,
                                                     std::size_t c) {
        src.load(b, c, scratch.data());
        for (std::size_t j = 0; j < c; ++j) out[idx[b + j]] = scratch[j];
      });
    });
    s.pool_dispatches += 1;
    s.bytes_read += n * (sizeof(T) + sizeof(std::size_t));
    s.bytes_written += n * sizeof(T);
    return n;
  }

  // Elementwise stage range: pre-scan stages [g.first, pre_end), post-scan
  // stages [post_begin, ew_end). For scan-less groups pre covers everything.
  const std::size_t ew_end = g.has_pack ? g.last : g.last + 1;
  const std::size_t pre_end = g.has_scan ? g.scan_at : ew_end;
  const std::size_t post_begin = g.has_scan ? g.scan_at + 1 : ew_end;
  const auto apply_range = [&](std::size_t from, std::size_t to, T* d,
                               std::size_t begin, std::size_t c) {
    for (std::size_t i = from; i < to; ++i) nodes[i].apply(d, begin, c);
  };

  const Node<T>* sc = g.has_scan ? &nodes[g.scan_at] : nullptr;
  const std::uint8_t* segf = nullptr;
  if (sc && sc->segmented) {
    assert(sc->segments.size() == n);
    segf = sc->segments.data();
  }
  const bool backward = sc && sc->dir == ScanDir::Backward;
  const std::uint8_t* pf = nullptr;
  if (g.has_pack) {
    assert(nodes[g.last].flags.size() == n);
    pf = nodes[g.last].flags.data();
  }
  const auto seg_at = [&](std::size_t b) -> const std::uint8_t* {
    return segf ? segf + b : nullptr;
  };

  // --- elementwise-only group: one pass, in place in `out` -------------------
  if (!g.has_scan && !g.has_pack) {
    thread::parallel_blocks(n, [&](thread::Block blk, std::size_t) {
      for_tiles(blk.begin, blk.end, tile, false,
                [&](std::size_t b, std::size_t c) {
                  load(b, c, out + b);
                  apply_range(g.first, ew_end, out + b, b, c);
                });
    });
    s.pool_dispatches += 1;
    s.bytes_read += n * sizeof(T);
    s.bytes_written += n * sizeof(T);
    return n;
  }

  // --- serial: one sequential pass, no lookback protocol ---------------------
  if (serial) {
    if (!g.has_pack) {
      // Scan group, full length: scan in place in `out`.
      T carry = sc->identity;
      for_tiles(0, n, tile, backward, [&](std::size_t b, std::size_t c) {
        load(b, c, out + b);
        apply_range(g.first, pre_end, out + b, b, c);
        carry = sc->scan_tile(out + b, seg_at(b), c, carry);
        apply_range(post_begin, ew_end, out + b, b, c);
      });
      s.pool_dispatches += 1;
      s.bytes_read += n * sizeof(T) + (segf ? n : 0);
      s.bytes_written += n * sizeof(T);
      return n;
    }
    std::vector<T> scratch(tile);
    T carry = sc ? sc->identity : T{};
    std::size_t total = 0;
    if (!backward) {
      // Forward (or scan-less) pack: append as flags pass by. One pass.
      std::size_t pos = 0;
      for_tiles(0, n, tile, false, [&](std::size_t b, std::size_t c) {
        load(b, c, scratch.data());
        apply_range(g.first, pre_end, scratch.data(), b, c);
        if (sc) carry = sc->scan_tile(scratch.data(), seg_at(b), c, carry);
        apply_range(post_begin, ew_end, scratch.data(), b, c);
        for (std::size_t j = 0; j < c; ++j) {
          if (pf[b + j]) out[pos++] = scratch[j];
        }
      });
      total = pos;
      s.pool_dispatches += 1;
    } else {
      // Backward scan + pack: the output offset of the *last* kept element
      // is the total count, so count first, then fill top-down.
      for (std::size_t i = 0; i < n; ++i) total += pf[i] ? 1 : 0;
      std::size_t pos = total;
      for_tiles(0, n, tile, true, [&](std::size_t b, std::size_t c) {
        load(b, c, scratch.data());
        apply_range(g.first, pre_end, scratch.data(), b, c);
        carry = sc->scan_tile(scratch.data(), seg_at(b), c, carry);
        apply_range(post_begin, ew_end, scratch.data(), b, c);
        for (std::size_t j = c; j-- > 0;) {
          if (pf[b + j]) out[--pos] = scratch[j];
        }
      });
      s.pool_dispatches += 2;
    }
    s.bytes_read += n * sizeof(T) + (segf ? n : 0) + n;
    s.bytes_written += total * sizeof(T);
    return total;
  }

  // --- chained single-pass kernels (core/chained_scan.hpp) -------------------
  // A fused scan group resolves tile carries through the lookback protocol in
  // ONE dispatch: summarise the tile (pre-scan lambdas applied on the way),
  // publish the aggregate, look back for the carry, then rescan the
  // still-cached tile with the post-scan lambdas into `out`.
  std::vector<std::vector<T>> scratch(workers);
  const auto scratch_of = [&](std::size_t w) {
    if (scratch[w].size() < tile) scratch[w].resize(tile);
    return scratch[w].data();
  };
  if (!pf) {
    const bool no_pre = pre_end == g.first;
    scanprim::detail::chained_scan_run<T>(
        n, tile, backward, sc->identity,
        [&](T a, T b) { return sc->combine(a, b); },
        [&](std::size_t w, std::size_t b, std::size_t c, T* agg) {
          bool saw = false;
          const T* d;
          if (no_pre && direct_in) {
            d = direct_in + b;
          } else {
            T* buf = scratch_of(w);
            load(b, c, buf);
            apply_range(g.first, pre_end, buf, b, c);
            d = buf;
          }
          *agg = sc->reduce_tile(d, seg_at(b), c, sc->identity, &saw);
          return saw;
        },
        [&](std::size_t, std::size_t b, std::size_t c, T carry) {
          load(b, c, out + b);
          apply_range(g.first, pre_end, out + b, b, c);
          carry = sc->scan_tile(out + b, seg_at(b), c, carry);
          apply_range(post_begin, ew_end, out + b, b, c);
        });
    s.pool_dispatches += 1;
    // The rescan's reload of the tile hits cache, not DRAM: account one read.
    s.bytes_read += n * sizeof(T) + (segf ? n : 0);
    s.bytes_written += n * sizeof(T);
    return n;
  }

  // A pack group carries (scan carry, kept count) through the lookback: the
  // kept count of the tiles before a tile is its packed output offset. The
  // summarise step leaves the pre-scan tile in the worker's scratch, where
  // the rescan finishes it. Kept counts cross segment boundaries, so a tile
  // never publishes early on a segment flag; a flagged tile's scan-carry
  // reset travels inside the carry instead (like batch::BatchCarry). A
  // backward pack counts its kept flags first, and each tile fills its
  // output top-down from total - (kept to its right).
  std::size_t total = 0;
  if (backward) {
    std::vector<std::size_t> cnt(workers, 0);
    thread::parallel_blocks(n, [&](thread::Block blk, std::size_t w) {
      std::size_t c = 0;
      for (std::size_t i = blk.begin; i < blk.end; ++i) c += pf[i] ? 1 : 0;
      cnt[w] = c;
    });
    for (const std::size_t c : cnt) total += c;
  }
  const PackCarry<T> identity{sc ? sc->identity : T{}, 0, false};
  scanprim::detail::chained_scan_run<PackCarry<T>>(
      n, tile, backward, identity,
      [&](const PackCarry<T>& a, const PackCarry<T>& b) {
        return PackCarry<T>{(!sc || b.reset) ? b.v : sc->combine(a.v, b.v),
                            a.kept + b.kept, a.reset || b.reset};
      },
      [&](std::size_t w, std::size_t b, std::size_t c, PackCarry<T>* agg) {
        T* d = scratch_of(w);
        load(b, c, d);
        apply_range(g.first, pre_end, d, b, c);
        bool saw = false;
        if (sc) agg->v = sc->reduce_tile(d, seg_at(b), c, sc->identity, &saw);
        agg->reset = saw;
        std::size_t kept = 0;
        for (std::size_t j = 0; j < c; ++j) kept += pf[b + j] ? 1 : 0;
        agg->kept = kept;
        return false;
      },
      [&](std::size_t w, std::size_t b, std::size_t c, PackCarry<T> carry) {
        T* d = scratch[w].data();
        if (sc) sc->scan_tile(d, seg_at(b), c, carry.v);
        apply_range(post_begin, ew_end, d, b, c);
        if (!backward) {
          std::size_t pos = carry.kept;
          for (std::size_t j = 0; j < c; ++j) {
            if (pf[b + j]) out[pos++] = d[j];
          }
          if (b + c == n) total = pos;  // the last tile knows the total
        } else {
          std::size_t pos = total - carry.kept;
          for (std::size_t j = c; j-- > 0;) {
            if (pf[b + j]) out[--pos] = d[j];
          }
        }
      });
  s.pool_dispatches += backward ? 2 : 1;
  s.bytes_read += n * sizeof(T) + (segf ? n : 0) + (backward ? 2 * n : n);
  s.bytes_written += total * sizeof(T);
  return total;
}

}  // namespace detail

/// The fuser's output for one pipeline *shape*, computed once and replayed
/// across runs. Groups depend only on the stage-kind sequence — never on the
/// vector length — so one prepared shape serves any n (this is what makes
/// src/plan's cached plans shape-polymorphic).
struct PreparedGroups {
  std::vector<Group> groups;
  std::size_t tile = 0;    ///< elements per fused tile
  std::size_t stages = 0;  ///< stage count the shape was prepared for
};

/// Runs recorded pipelines over the global ThreadPool, reusing intermediate
/// buffers across groups and across runs.
class Executor {
 public:
  struct Options {
    bool fuse = true;      ///< false: eager op-by-op plan (bench baseline)
    std::size_t tile = 0;  ///< elements per fused tile; 0 sizes by bytes
                           ///< (kChainedTileBytes / sizeof(T)), so 1-byte
                           ///< flag pipelines don't run 4 KiB tiles
  };

  Executor() = default;
  explicit Executor(Options opts) : opts_(opts) {}

  template <class T>
  std::vector<T> run(const Pipeline<T>& p) {
    const auto kinds = p.kinds();
    FuseOptions fo;
    fo.enabled = opts_.fuse;
    fo.tile = opts_.tile != 0 ? opts_.tile
                              : scanprim::detail::chained_tile_elements<T>();
    const auto groups = fuse(std::span<const StageKind>(kinds), fo);
    return run_grouped(p, groups, fo.tile, /*prepared=*/false);
  }

  /// Fuse a pipeline's shape once; the result can be replayed by the
  /// two-argument run() below on any pipeline with the same stage kinds
  /// (and any length). src/plan stores these inside cached compiled plans.
  template <class T>
  PreparedGroups prepare(const Pipeline<T>& p) const {
    const auto kinds = p.kinds();
    FuseOptions fo;
    fo.enabled = opts_.fuse;
    fo.tile = opts_.tile != 0 ? opts_.tile
                              : scanprim::detail::chained_tile_elements<T>();
    PreparedGroups pg;
    pg.groups = fuse(std::span<const StageKind>(kinds), fo);
    pg.tile = fo.tile;
    pg.stages = p.nodes.size();
    return pg;
  }

  /// Run with pre-fused groups: no fuser invocation, no shape analysis.
  /// The pipeline must have the same stage-kind sequence the groups were
  /// prepared from (checked by stage count in debug builds).
  template <class T>
  std::vector<T> run(const Pipeline<T>& p, const PreparedGroups& pg) {
    assert(pg.stages == p.nodes.size());
    return run_grouped(p, pg.groups, pg.tile, /*prepared=*/true);
  }

 private:
  template <class T>
  std::vector<T> run_grouped(const Pipeline<T>& p,
                             const std::vector<Group>& groups,
                             std::size_t tile, bool prepared) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "pipeline elements flow through raw arena buffers");
    assert(!p.nodes.empty() && p.nodes.front().kind == StageKind::Source);
    obs::Span run_span("exec.run");
    const auto t0 = std::chrono::steady_clock::now();
    Stats s;
    s.stages_recorded = p.nodes.size();
    (prepared ? s.plan_reuses : s.fuse_runs) += 1;
    s.groups = groups.size();
    for (const Group& g : groups) {
      if (g.stages() >= 2) ++s.fused_groups;
    }

    std::size_t cur_len = p.nodes.front().length;
    const T* prev = nullptr;
    std::byte* prev_raw = nullptr;
    std::byte* out_raw = nullptr;
    std::vector<T> result;
    // Release held arena buffers even when a group throws: the executor is
    // long-lived (the serve batcher reuses one across batches), and a buffer
    // stranded in-use by an unwind would be unreusable for the rest of the
    // executor's life.
    try {
      for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        obs::Span group_span("exec.group");
        SCANPRIM_FAULT_POINT("exec.group");
        const Group& g = groups[gi];
        const bool last = gi + 1 == groups.size();
        T* out_ptr = nullptr;
        if (last) {
          result.resize(cur_len);
          out_ptr = result.data();
        } else {
          bool reused = false;
          out_raw = arena_.acquire(cur_len * sizeof(T), &reused);
          (reused ? s.arena_hits : s.arena_misses) += 1;
          out_ptr = reinterpret_cast<T*>(out_raw);
        }
        cur_len = detail::execute_group<T>(p.nodes, g, prev, cur_len, out_ptr,
                                           tile, s);
        if (prev_raw) arena_.release(prev_raw);
        prev_raw = out_raw;
        out_raw = nullptr;
        prev = out_ptr;
      }
    } catch (...) {
      if (out_raw) arena_.release(out_raw);
      if (prev_raw) arena_.release(prev_raw);
      throw;
    }
    if (prev_raw) arena_.release(prev_raw);
    result.resize(cur_len);  // a pack in the final group shrinks the result
    s.elapsed_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    last_ = s;
    total_ += s;
    return result;
  }

 public:
  /// Stats of the most recent run.
  const Stats& stats() const { return last_; }
  /// Stats accumulated over the executor's lifetime.
  const Stats& total_stats() const { return total_; }
  void reset_stats() {
    last_ = Stats{};
    total_ = Stats{};
  }

 private:
  Options opts_{};
  detail::BufferArena arena_;
  Stats last_{};
  Stats total_{};
};

/// One-shot convenience: run `p` on a fresh executor.
template <class T>
std::vector<T> run(const Pipeline<T>& p, Stats* stats = nullptr) {
  Executor ex;
  auto out = ex.run(p);
  if (stats) *stats = ex.stats();
  return out;
}

// --- fused formulations of the paper's compound operations -------------------
// Golden-tested against the eager primitives in tests/test_exec_pipeline.cpp.
namespace fused {

/// pack (Fig. 11) through the pipeline path.
template <class T>
std::vector<T> pack(Executor& ex, std::span<const T> in, FlagsView flags) {
  assert(in.size() == flags.size());
  return ex.run(exec::source(in) | exec::pack(flags));
}

}  // namespace fused

}  // namespace scanprim::exec
