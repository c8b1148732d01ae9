// Unsegmented scans: the primitives of the scan model (§1, §2.1).
//
// The paper's scan is *exclusive*: for input [a0, a1, ..., a(n-1)] and
// operator ⊕ with identity i, the result is
//     [i, a0, a0⊕a1, ..., a0⊕a1⊕...⊕a(n-2)].
// Backward scans run over the reversed processor order (§2.1, §3.4).
//
// Every scan has a sequential kernel, run whole below thread::kSerialCutoff
// or with one worker, and one parallel engine: the single-pass chained scan
// of core/chained_scan.hpp (one pool dispatch, one read of the input). The
// paper's Figure 10 blocking of long vectors is modelled in src/machine, not
// run here.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "src/core/chained_scan.hpp"
#include "src/core/ops.hpp"
#include "src/core/simd/simd.hpp"
#include "src/thread/thread_pool.hpp"

namespace scanprim {

namespace detail {

// The sequential kernels below are the tile bodies of the chained engine
// (and the whole scan when workers == 1 or n is below the serial cutoff).
// Each one dispatches to the SIMD tier of core/simd/ when the operator ×
// element type has a vector kernel, and otherwise runs the plain element
// loop; the two paths are bit-identical (see simd_kernels.hpp), so results
// never depend on the tier.

template <class T, class Op>
T sequential_reduce(std::span<const T> in, Op op) {
  if constexpr (simd::vectorizable_v<Op, T>) {
    return simd::reduce_fwd<T, Op>(in.data(), nullptr, in.size(),
                                   Op::identity());
  } else {
    T acc = Op::identity();
    for (const T& v : in) acc = op(acc, v);
    return acc;
  }
}

// out may alias in: out[i] is written only after in[i] has been read.
template <class T, class Op>
void sequential_exclusive_scan(std::span<const T> in, std::span<T> out,
                               Op op, T carry_in) {
  if constexpr (simd::vectorizable_v<Op, T>) {
    simd::scan_fwd<T, Op, /*Inclusive=*/false>(in.data(), nullptr, out.data(),
                                               in.size(), carry_in);
  } else {
    T carry = carry_in;
    for (std::size_t i = 0; i < in.size(); ++i) {
      const T next = op(carry, in[i]);
      out[i] = carry;
      carry = next;
    }
  }
}

template <class T, class Op>
void sequential_inclusive_scan(std::span<const T> in, std::span<T> out,
                               Op op, T carry_in) {
  if constexpr (simd::vectorizable_v<Op, T>) {
    simd::scan_fwd<T, Op, /*Inclusive=*/true>(in.data(), nullptr, out.data(),
                                              in.size(), carry_in);
  } else {
    T carry = carry_in;
    for (std::size_t i = 0; i < in.size(); ++i) {
      carry = op(carry, in[i]);
      out[i] = carry;
    }
  }
}

// Chained driver shared by the forward and backward flavours: tiles resolve
// their carries through the lookback protocol of core/chained_scan.hpp and
// `scan_block` finishes each tile in place. Safe when out aliases in: a tile
// is only ever written by its owner, after its own summary read.
template <class T, class Op, class BlockScan>
void chained_scan_dispatch(std::span<const T> in, std::span<T> out, Op op,
                           bool backward, BlockScan scan_block) {
  chained_scan_run<T>(
      in.size(), chained_tile_elements<T>(), backward, Op::identity(), op,
      [&](std::size_t, std::size_t b, std::size_t c, T* agg) {
        *agg = sequential_reduce(in.subspan(b, c), op);
        return false;
      },
      [&](std::size_t, std::size_t b, std::size_t c, T carry) {
        scan_block(in.subspan(b, c), out.subspan(b, c), carry);
      });
}

// Shared parallel driver: `scan_block(in_block, out_block, carry)` must run
// the sequential kernel of the desired flavour.
template <class T, class Op, class BlockScan>
void parallel_scan_impl(std::span<const T> in, std::span<T> out, Op op,
                        BlockScan scan_block) {
  if (thread::num_workers() == 1 || in.size() < thread::kSerialCutoff) {
    scan_block(in, out, Op::identity());
    return;
  }
  chained_scan_dispatch(in, out, op, /*backward=*/false, scan_block);
}

}  // namespace detail

/// ⊕-reduction of a vector (the value a +-distribute broadcasts, §2.2).
template <class T, ScanOperator<T> Op>
T reduce(std::span<const T> in, Op op) {
  const std::size_t workers = thread::num_workers();
  const std::size_t n = in.size();
  if (workers == 1 || n < thread::kSerialCutoff) {
    return detail::sequential_reduce(in, op);
  }
  std::vector<T> sums(workers, Op::identity());
  thread::pool().run([&](std::size_t w) {
    const thread::Block blk = thread::block_of(n, workers, w);
    sums[w] = detail::sequential_reduce(in.subspan(blk.begin, blk.size()), op);
  });
  return detail::sequential_reduce(std::span<const T>(sums), op);
}

/// The paper's scan: exclusive, forward. `out` may alias `in`.
template <class T, ScanOperator<T> Op>
void exclusive_scan(std::span<const T> in, std::span<T> out, Op op) {
  assert(in.size() == out.size());
  detail::parallel_scan_impl(in, out, op,
                             [op](std::span<const T> i, std::span<T> o, T c) {
                               detail::sequential_exclusive_scan(i, o, op, c);
                             });
}

/// Inclusive variant (used by x-near-merge in §2.5.1 and by or/and tests).
template <class T, ScanOperator<T> Op>
void inclusive_scan(std::span<const T> in, std::span<T> out, Op op) {
  assert(in.size() == out.size());
  detail::parallel_scan_impl(in, out, op,
                             [op](std::span<const T> i, std::span<T> o, T c) {
                               detail::sequential_inclusive_scan(i, o, op, c);
                             });
}

namespace detail {

// Backward kernels: scan from the last element to the first (§3.4 implements
// these by "reading the vector into the processors in reverse order"; doing
// the index arithmetic directly avoids materialising the reversed copy).
template <class T, class Op>
void sequential_backward_exclusive_scan(std::span<const T> in,
                                        std::span<T> out, Op op, T carry_in) {
  if constexpr (simd::vectorizable_v<Op, T>) {
    simd::scan_bwd<T, Op, /*Inclusive=*/false>(in.data(), nullptr, out.data(),
                                               in.size(), carry_in);
  } else {
    T carry = carry_in;
    for (std::size_t i = in.size(); i-- > 0;) {
      const T next = op(carry, in[i]);
      out[i] = carry;
      carry = next;
    }
  }
}

template <class T, class Op>
void sequential_backward_inclusive_scan(std::span<const T> in,
                                        std::span<T> out, Op op, T carry_in) {
  if constexpr (simd::vectorizable_v<Op, T>) {
    simd::scan_bwd<T, Op, /*Inclusive=*/true>(in.data(), nullptr, out.data(),
                                              in.size(), carry_in);
  } else {
    T carry = carry_in;
    for (std::size_t i = in.size(); i-- > 0;) {
      carry = op(carry, in[i]);
      out[i] = carry;
    }
  }
}

template <class T, class Op, class BlockScan>
void parallel_backward_scan_impl(std::span<const T> in, std::span<T> out,
                                 Op op, BlockScan scan_block) {
  if (thread::num_workers() == 1 || in.size() < thread::kSerialCutoff) {
    scan_block(in, out, Op::identity());
    return;
  }
  chained_scan_dispatch(in, out, op, /*backward=*/true, scan_block);
}

}  // namespace detail

/// Backward exclusive scan: out[i] = in[i+1] ⊕ ... ⊕ in[n-1].
template <class T, ScanOperator<T> Op>
void backward_exclusive_scan(std::span<const T> in, std::span<T> out, Op op) {
  assert(in.size() == out.size());
  detail::parallel_backward_scan_impl(
      in, out, op, [op](std::span<const T> i, std::span<T> o, T c) {
        detail::sequential_backward_exclusive_scan(i, o, op, c);
      });
}

/// Backward inclusive scan: out[i] = in[i] ⊕ ... ⊕ in[n-1] (the paper's
/// min-backscan in x-near-merge is this flavour).
template <class T, ScanOperator<T> Op>
void backward_inclusive_scan(std::span<const T> in, std::span<T> out, Op op) {
  assert(in.size() == out.size());
  detail::parallel_backward_scan_impl(
      in, out, op, [op](std::span<const T> i, std::span<T> o, T c) {
        detail::sequential_backward_inclusive_scan(i, o, op, c);
      });
}

// ---------------------------------------------------------------------------
// Vector-returning conveniences named after the paper's operations.
// ---------------------------------------------------------------------------

template <class T>
std::vector<T> plus_scan(std::span<const T> in) {
  std::vector<T> out(in.size());
  exclusive_scan(in, std::span<T>(out), Plus<T>{});
  return out;
}

template <class T>
std::vector<T> max_scan(std::span<const T> in) {
  std::vector<T> out(in.size());
  exclusive_scan(in, std::span<T>(out), Max<T>{});
  return out;
}

template <class T>
std::vector<T> min_scan(std::span<const T> in) {
  std::vector<T> out(in.size());
  exclusive_scan(in, std::span<T>(out), Min<T>{});
  return out;
}

template <class T>
std::vector<T> or_scan(std::span<const T> in) {
  std::vector<T> out(in.size());
  exclusive_scan(in, std::span<T>(out), Or<T>{});
  return out;
}

template <class T>
std::vector<T> and_scan(std::span<const T> in) {
  std::vector<T> out(in.size());
  exclusive_scan(in, std::span<T>(out), And<T>{});
  return out;
}

template <class T>
std::vector<T> plus_backscan(std::span<const T> in) {
  std::vector<T> out(in.size());
  backward_exclusive_scan(in, std::span<T>(out), Plus<T>{});
  return out;
}

template <class T>
std::vector<T> max_backscan(std::span<const T> in) {
  std::vector<T> out(in.size());
  backward_exclusive_scan(in, std::span<T>(out), Max<T>{});
  return out;
}

template <class T>
std::vector<T> min_backscan(std::span<const T> in) {
  std::vector<T> out(in.size());
  backward_exclusive_scan(in, std::span<T>(out), Min<T>{});
  return out;
}

}  // namespace scanprim
