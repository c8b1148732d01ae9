// The vector operations the paper layers on the scan primitives:
//   permute (§2.1), enumerate / copy / ⊕-distribute (§2.2, Fig. 1),
//   split (§2.2.1, Fig. 3), pack (§2.5, Fig. 11), allocate (§2.4, Fig. 8),
// plus their segmented versions (used by quicksort §2.3.1 and star-merge
// §2.3.3). Every operation costs O(1) program steps in the scan model.
// split runs on one blocked kernel, detail::split_run: Fig. 3's enumerates
// computed over Fig. 10's long-vector blocks.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/ops.hpp"
#include "src/core/runtime.hpp"
#include "src/core/scan.hpp"
#include "src/core/segmented.hpp"
#include "src/thread/thread_pool.hpp"

namespace scanprim {

// ---------------------------------------------------------------------------
// Elementwise helpers (one program step each; §2.1's vector operations).
// ---------------------------------------------------------------------------

/// out[i] = fn(in[i]).
template <class T, class U, class Fn>
void map(std::span<const T> in, std::span<U> out, Fn fn) {
  assert(in.size() == out.size());
  thread::parallel_for(in.size(), [&](std::size_t i) { out[i] = fn(in[i]); });
}

template <class U, class T, class Fn>
std::vector<U> mapped(std::span<const T> in, Fn fn) {
  std::vector<U> out(in.size());
  map(in, std::span<U>(out), fn);
  return out;
}

/// out[i] = fn(a[i], b[i]).
template <class T, class U, class V, class Fn>
void zip(std::span<const T> a, std::span<const U> b, std::span<V> out,
         Fn fn) {
  assert(a.size() == b.size() && a.size() == out.size());
  thread::parallel_for(a.size(),
                       [&](std::size_t i) { out[i] = fn(a[i], b[i]); });
}

template <class V, class T, class U, class Fn>
std::vector<V> zipped(std::span<const T> a, std::span<const U> b, Fn fn) {
  std::vector<V> out(a.size());
  zip(a, b, std::span<V>(out), fn);
  return out;
}

// ---------------------------------------------------------------------------
// permute / gather (§2.1)
// ---------------------------------------------------------------------------

/// out[index[i]] = in[i]. All indices must be unique (EREW write); the
/// destination may be longer than the source.
///
/// Out-of-range indices throw std::out_of_range before anything is written
/// at the bad position — an assert alone vanishes under NDEBUG and would let
/// a bad index vector silently corrupt memory. Callers who have proven their
/// indices can opt out of the check via SCANPRIM_CHECK_BOUNDS=0 (or
/// set_bounds_checking(false)).
template <class T>
void permute(std::span<const T> in, std::span<const std::size_t> index,
             std::span<T> out) {
  assert(in.size() == index.size());
  const bool check = bounds_checking();
  thread::parallel_for(in.size(), [&, check](std::size_t i) {
    if (check && index[i] >= out.size()) {
      throw std::out_of_range("scanprim::permute: index out of range");
    }
    assert(index[i] < out.size());
    out[index[i]] = in[i];
  });
}

template <class T>
std::vector<T> permuted(std::span<const T> in,
                        std::span<const std::size_t> index) {
  std::vector<T> out(in.size());
  permute(in, index, std::span<T>(out));
  return out;
}

/// out[i] = in[index[i]] (an exclusive read as long as indices are unique;
/// with duplicate indices it is the CREW "concurrent read").
template <class T>
void gather(std::span<const T> in, std::span<const std::size_t> index,
            std::span<T> out) {
  assert(index.size() == out.size());
  const bool check = bounds_checking();
  thread::parallel_for(index.size(), [&, check](std::size_t i) {
    if (check && index[i] >= in.size()) {
      throw std::out_of_range("scanprim::gather: index out of range");
    }
    assert(index[i] < in.size());
    out[i] = in[index[i]];
  });
}

template <class T>
std::vector<T> gathered(std::span<const T> in,
                        std::span<const std::size_t> index) {
  std::vector<T> out(index.size());
  gather(in, index, std::span<T>(out));
  return out;
}

// ---------------------------------------------------------------------------
// enumerate (§2.2, Fig. 1)
// ---------------------------------------------------------------------------

/// enumerate: the i-th true flag receives integer i (exclusive +-scan of the
/// flags converted to 0/1).
inline std::vector<std::size_t> enumerate(FlagsView flags) {
  std::vector<std::size_t> ints(flags.size());
  map(flags, std::span<std::size_t>(ints),
      [](std::uint8_t f) -> std::size_t { return f ? 1 : 0; });
  exclusive_scan(std::span<const std::size_t>(ints), std::span<std::size_t>(ints),
                 Plus<std::size_t>{});
  return ints;
}

/// back-enumerate: counts flagged elements *above* each position (backward
/// exclusive +-scan); used to compute I-up in split (Fig. 3).
inline std::vector<std::size_t> back_enumerate(FlagsView flags) {
  std::vector<std::size_t> ints(flags.size());
  map(flags, std::span<std::size_t>(ints),
      [](std::uint8_t f) -> std::size_t { return f ? 1 : 0; });
  backward_exclusive_scan(std::span<const std::size_t>(ints),
                          std::span<std::size_t>(ints), Plus<std::size_t>{});
  return ints;
}

/// Number of set flags: one pass over the flags, no n-element temporary.
inline std::size_t count_flags(FlagsView flags) {
  std::vector<std::size_t> partial(thread::num_workers(), 0);
  thread::parallel_blocks(flags.size(), [&](thread::Block blk, std::size_t w) {
    std::size_t c = 0;
    for (std::size_t i = blk.begin; i < blk.end; ++i) c += flags[i] ? 1 : 0;
    partial[w] = c;
  });
  std::size_t total = 0;
  for (std::size_t c : partial) total += c;
  return total;
}

// ---------------------------------------------------------------------------
// copy / distribute (§2.2, Fig. 1)
// ---------------------------------------------------------------------------

/// copy: the first element across the whole vector.
template <class T>
std::vector<T> copy(std::span<const T> in) {
  assert(!in.empty());
  std::vector<T> out(in.size(), in.front());
  return out;
}

/// Segmented copy: each position receives the first value of its segment.
/// Position 0 is treated as a segment start whether or not it is flagged.
/// Implemented with a single unsegmented inclusive scan of the associative
/// "most recent valid value" operator (identity = invalid), which is how a
/// copy can be a scan even though `first` alone has no identity (§2.2 fn. 3).
template <class T>
std::vector<T> seg_copy(std::span<const T> in, FlagsView segments) {
  using Item = std::pair<T, std::uint8_t>;
  struct Op {
    static Item identity() { return {T{}, 0}; }
    Item operator()(const Item& a, const Item& b) const {
      return b.second ? b : a;
    }
  };
  std::vector<Item> items(in.size());
  thread::parallel_for(in.size(), [&](std::size_t i) {
    items[i] = {in[i], static_cast<std::uint8_t>(segments[i] || i == 0)};
  });
  inclusive_scan(std::span<const Item>(items), std::span<Item>(items), Op{});
  std::vector<T> out(in.size());
  map(std::span<const Item>(items), std::span<T>(out),
      [](const Item& it) { return it.first; });
  return out;
}

/// ⊕-distribute: every position receives the ⊕-reduction of the vector
/// (+-distribute, max-distribute, ... of §2.2).
template <class T, ScanOperator<T> Op>
std::vector<T> distribute(std::span<const T> in, Op op) {
  return std::vector<T>(in.size(), reduce(in, op));
}

/// Segmented ⊕-distribute: every position receives the ⊕-reduction of its
/// segment (a backward inclusive scan leaves each segment's total at its
/// head; a segmented copy spreads it).
template <class T, ScanOperator<T> Op>
std::vector<T> seg_distribute(std::span<const T> in, FlagsView segments,
                              Op op) {
  std::vector<T> totals(in.size());
  seg_backward_inclusive_scan(in, segments, std::span<T>(totals), op);
  return seg_copy(std::span<const T>(totals), segments);
}

// ---------------------------------------------------------------------------
// split / pack (§2.2.1 Fig. 3, §2.5 Fig. 11)
// ---------------------------------------------------------------------------

namespace detail {

/// The stable two-way partition every split runs on, with Fig. 3's
/// enumerates computed blockwise (Fig. 10): each block counts its set flags,
/// a serial scan of the counts gives each block the ones before it, and the
/// block sends a zero at i to i - ones_seen and a one to zeros + ones_seen,
/// writing two contiguous runs. `flag_of(i)` is 0 or 1; `emit(i, dest)`
/// moves element i. No n-sized temporaries; small n runs as one block.
template <class FlagOf, class Emit>
void split_run(std::size_t n, FlagOf flag_of, Emit emit) {
  std::vector<std::size_t> ones_before(thread::num_workers(), 0);
  thread::parallel_blocks(n, [&](thread::Block blk, std::size_t w) {
    std::size_t ones = 0;
    for (std::size_t i = blk.begin; i < blk.end; ++i) ones += flag_of(i);
    ones_before[w] = ones;
  });
  std::size_t ones = 0;
  for (std::size_t& c : ones_before) ones += std::exchange(c, ones);
  const std::size_t zeros = n - ones;
  thread::parallel_blocks(n, [&](thread::Block blk, std::size_t w) {
    // A local, not a capture: a size_t stored through emit could alias it.
    const std::size_t top = zeros;
    std::size_t ones_seen = ones_before[w];
    for (std::size_t i = blk.begin; i < blk.end; ++i) {
      const std::size_t f = flag_of(i);
      const std::size_t one = 0 - f;  // a mask: `f ? :` would branch
      emit(i, ((i - ones_seen) & ~one) | ((top + ones_seen) & one));
      ones_seen += f;
    }
  });
}

/// The number of set flags, read off the enumerate scan's final carry (the
/// last exclusive prefix plus the last flag) instead of a second full pass.
inline std::size_t kept_from_enumerate(const std::vector<std::size_t>& dest,
                                       FlagsView flags) {
  const std::size_t n = flags.size();
  return n == 0 ? 0 : dest[n - 1] + (flags[n - 1] ? 1 : 0);
}

/// split_run's flag_of over a flag vector: any nonzero byte is a 1.
inline auto flag_at(FlagsView f) {
  return [p = f.data()](std::size_t i) -> std::size_t { return p[i] != 0; };
}

}  // namespace detail

/// split (Fig. 3) into a caller's buffer: F elements to the bottom, T
/// elements to the top, order preserved within both groups.
template <class T>
void split_into(std::span<const T> in, FlagsView flags, std::span<T> out) {
  assert(in.size() == flags.size() && in.size() == out.size());
  detail::split_run(
      in.size(), detail::flag_at(flags),
      [src = in.data(), dst = out.data()](std::size_t i, std::size_t d) {
        dst[d] = src[i];
      });
}

/// split into a new vector.
template <class T>
std::vector<T> split(std::span<const T> in, FlagsView flags) {
  std::vector<T> out(in.size());
  split_into(in, flags, std::span<T>(out));
  return out;
}

/// Destination index for each element under split.
inline std::vector<std::size_t> split_index(FlagsView flags) {
  std::vector<std::size_t> index(flags.size());
  detail::split_run(
      flags.size(), detail::flag_at(flags),
      [dst = index.data()](std::size_t i, std::size_t d) { dst[i] = d; });
  return index;
}

/// pack: drops unflagged elements, compacting the flagged ones into a new,
/// shorter vector (the load-balancing step of Fig. 11).
template <class T>
std::vector<T> pack(std::span<const T> in, FlagsView flags) {
  assert(in.size() == flags.size());
  const std::vector<std::size_t> index = enumerate(flags);
  std::vector<T> out(detail::kept_from_enumerate(index, flags));
  thread::parallel_for(in.size(), [&](std::size_t i) {
    if (flags[i]) out[index[i]] = in[i];
  });
  return out;
}

/// pack_index: the original indices of the flagged elements, in order.
inline std::vector<std::size_t> pack_index(FlagsView flags) {
  const std::vector<std::size_t> dest = enumerate(flags);
  std::vector<std::size_t> out(detail::kept_from_enumerate(dest, flags));
  thread::parallel_for(flags.size(), [&](std::size_t i) {
    if (flags[i]) out[dest[i]] = i;
  });
  return out;
}

// ---------------------------------------------------------------------------
// allocate (§2.4, Fig. 8)
// ---------------------------------------------------------------------------

/// Result of allocating `sizes[i]` contiguous elements to each position i.
struct Allocation {
  std::vector<std::size_t> offsets;  ///< +-scan of sizes: segment starts
  std::size_t total = 0;             ///< length of the allocated vector
  Flags segment_flags;               ///< flag at the start of each segment
};

/// Allocate a contiguous segment of `sizes[i]` elements per position
/// (Fig. 8). Zero-sized requests get an empty segment (no flag is written
/// for them, so they simply vanish from the allocated vector).
inline Allocation allocate(std::span<const std::size_t> sizes) {
  Allocation a;
  a.offsets.resize(sizes.size());
  exclusive_scan(sizes, std::span<std::size_t>(a.offsets),
                 Plus<std::size_t>{});
  // The +-scan already did the work: the total is the last exclusive prefix
  // plus the last size. A second full reduce over `sizes` is redundant.
  a.total = sizes.empty() ? 0 : a.offsets.back() + sizes.back();
  a.segment_flags.assign(a.total, 0);
  thread::parallel_for(sizes.size(), [&](std::size_t i) {
    if (sizes[i] > 0) a.segment_flags[a.offsets[i]] = 1;
  });
  return a;
}

/// Distribute `values[i]` across the i-th allocated segment (permute to the
/// segment heads, then segmented copy — exactly Fig. 8's recipe).
template <class T>
std::vector<T> distribute_to_segments(std::span<const T> values,
                                      const Allocation& a) {
  assert(values.size() == a.offsets.size());
  std::vector<T> heads(a.total, T{});
  thread::parallel_for(values.size(), [&](std::size_t i) {
    const bool nonempty =
        (i + 1 < a.offsets.size() ? a.offsets[i + 1] : a.total) > a.offsets[i];
    if (nonempty) heads[a.offsets[i]] = values[i];
  });
  return seg_copy(std::span<const T>(heads), FlagsView(a.segment_flags));
}

}  // namespace scanprim
