// Segmented scans (§2.3, Figure 4): the linear order of processors is broken
// into segments by a flag vector (a set flag marks the *start* of a segment)
// and each scan restarts, with the operator identity, at every segment start.
//
// These are implemented directly with a carry that resets at flags — the
// Schwartz-style direct implementation the paper mentions — and, separately,
// in core/simulate.hpp, by reduction to the two unsegmented primitives
// exactly as §3.4 prescribes. Tests check the two agree. Above
// thread::kSerialCutoff every segmented scan runs through the single-pass
// chained engine of core/chained_scan.hpp.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "src/core/ops.hpp"
#include "src/core/scan.hpp"
#include "src/core/simd/simd.hpp"
#include "src/fault/fault.hpp"
#include "src/obs/obs.hpp"
#include "src/thread/thread_pool.hpp"

namespace scanprim {

/// Segment-start flags. Stored as bytes (0 / non-zero) so vectors of flags
/// have addressable elements and can themselves be scanned.
using Flags = std::vector<std::uint8_t>;
using FlagsView = std::span<const std::uint8_t>;

namespace detail {

// --- sequential kernels -----------------------------------------------------
// Each kernel takes and returns the running carry, so the chained driver can
// run it on each tile with the carry its lookback resolved.

// All eight kernels dispatch through core/simd/ when the operator × element
// type vectorizes (flag-free register chunks run the unsegmented vector
// kernel; chunks containing a flag fall back to the scalar loop, preserving
// the reset placement: *before* the combine going forward, *after* it going
// backward). The scalar `else` branches are the reference loops.

template <class T, class Op>
T seg_exclusive_kernel(std::span<const T> in, FlagsView f, std::span<T> out,
                       Op op, T carry) {
  if constexpr (simd::vectorizable_v<Op, T>) {
    return simd::scan_fwd<T, Op, /*Inclusive=*/false>(
        in.data(), f.data(), out.data(), in.size(), carry);
  } else {
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (f[i]) carry = Op::identity();
      const T next = op(carry, in[i]);
      out[i] = carry;
      carry = next;
    }
    return carry;
  }
}

template <class T, class Op>
T seg_inclusive_kernel(std::span<const T> in, FlagsView f, std::span<T> out,
                       Op op, T carry) {
  if constexpr (simd::vectorizable_v<Op, T>) {
    return simd::scan_fwd<T, Op, /*Inclusive=*/true>(
        in.data(), f.data(), out.data(), in.size(), carry);
  } else {
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (f[i]) carry = Op::identity();
      carry = op(carry, in[i]);
      out[i] = carry;
    }
    return carry;
  }
}

template <class T, class Op>
T seg_backward_exclusive_kernel(std::span<const T> in, FlagsView f,
                                std::span<T> out, Op op, T carry) {
  if constexpr (simd::vectorizable_v<Op, T>) {
    return simd::scan_bwd<T, Op, /*Inclusive=*/false>(
        in.data(), f.data(), out.data(), in.size(), carry);
  } else {
    for (std::size_t i = in.size(); i-- > 0;) {
      const T next = op(carry, in[i]);
      out[i] = carry;
      carry = next;
      if (f[i]) carry = Op::identity();  // i starts a segment: nothing crosses
    }
    return carry;
  }
}

template <class T, class Op>
T seg_backward_inclusive_kernel(std::span<const T> in, FlagsView f,
                                std::span<T> out, Op op, T carry) {
  if constexpr (simd::vectorizable_v<Op, T>) {
    return simd::scan_bwd<T, Op, /*Inclusive=*/true>(
        in.data(), f.data(), out.data(), in.size(), carry);
  } else {
    for (std::size_t i = in.size(); i-- > 0;) {
      carry = op(carry, in[i]);
      out[i] = carry;
      if (f[i]) carry = Op::identity();
    }
    return carry;
  }
}

// Summary-only versions (the chained summarise step): the kernel's carry
// without its output.
template <class T, class Op>
T seg_forward_summary(std::span<const T> in, FlagsView f, Op op) {
  if constexpr (simd::vectorizable_v<Op, T>) {
    return simd::reduce_fwd<T, Op>(in.data(), f.data(), in.size(),
                                   Op::identity());
  } else {
    T carry = Op::identity();
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (f[i]) carry = Op::identity();
      carry = op(carry, in[i]);
    }
    return carry;
  }
}

inline bool block_has_flag(FlagsView f) {
  return simd::any_flag(f.data(), f.size());
}

template <class T, class Op>
T seg_backward_summary(std::span<const T> in, FlagsView f, Op op) {
  if constexpr (simd::vectorizable_v<Op, T>) {
    return simd::reduce_bwd<T, Op>(in.data(), f.data(), in.size(),
                                   Op::identity());
  } else {
    T carry = Op::identity();
    for (std::size_t i = in.size(); i-- > 0;) {
      carry = op(carry, in[i]);
      if (f[i]) carry = Op::identity();
    }
    return carry;
  }
}

// --- parallel drivers --------------------------------------------------------

// Chained driver (core/chained_scan.hpp): a tile containing a flag publishes
// its summary as a resolved prefix immediately — its outflow is independent
// of the carry-in — which short-circuits the lookback at segment boundaries
// (the segmented-carry rule of Figure 4).
template <class T, class Op, class Summary, class Kernel>
void chained_seg_dispatch(std::span<const T> in, FlagsView f, std::span<T> out,
                          Op op, bool backward, Summary summary,
                          Kernel kernel) {
  chained_scan_run<T>(
      in.size(), chained_tile_elements<T>(), backward, Op::identity(), op,
      [&](std::size_t, std::size_t b, std::size_t c, T* agg) {
        auto bf = f.subspan(b, c);
        *agg = summary(in.subspan(b, c), bf, op);
        return block_has_flag(bf);
      },
      [&](std::size_t, std::size_t b, std::size_t c, T carry) {
        kernel(in.subspan(b, c), f.subspan(b, c), out.subspan(b, c), op,
               carry);
      });
}

// Forward driver shared by the exclusive and inclusive flavours.
template <class T, class Op, class Kernel>
void parallel_seg_scan(std::span<const T> in, FlagsView f, std::span<T> out,
                       Op op, Kernel kernel) {
  if (thread::num_workers() == 1 || in.size() < thread::kSerialCutoff) {
    kernel(in, f, out, op, Op::identity());
    return;
  }
  chained_seg_dispatch(
      in, f, out, op, /*backward=*/false,
      [](std::span<const T> bi, FlagsView bf, Op o) {
        return seg_forward_summary(bi, bf, o);
      },
      kernel);
}

template <class T, class Op, class Kernel>
void parallel_seg_backscan(std::span<const T> in, FlagsView f,
                           std::span<T> out, Op op, Kernel kernel) {
  if (thread::num_workers() == 1 || in.size() < thread::kSerialCutoff) {
    kernel(in, f, out, op, Op::identity());
    return;
  }
  chained_seg_dispatch(
      in, f, out, op, /*backward=*/true,
      [](std::span<const T> bi, FlagsView bf, Op o) {
        return seg_backward_summary(bi, bf, o);
      },
      kernel);
}

}  // namespace detail

/// Segmented exclusive scan. `out` may alias `in`.
template <class T, ScanOperator<T> Op>
void seg_exclusive_scan(std::span<const T> in, FlagsView flags,
                        std::span<T> out, Op op) {
  assert(in.size() == out.size() && in.size() == flags.size());
  detail::parallel_seg_scan(in, flags, out, op,
                            [](std::span<const T> i, FlagsView f,
                               std::span<T> o, Op p, T c) {
                              return detail::seg_exclusive_kernel(i, f, o, p, c);
                            });
}

/// Segmented inclusive scan.
template <class T, ScanOperator<T> Op>
void seg_inclusive_scan(std::span<const T> in, FlagsView flags,
                        std::span<T> out, Op op) {
  assert(in.size() == out.size() && in.size() == flags.size());
  detail::parallel_seg_scan(in, flags, out, op,
                            [](std::span<const T> i, FlagsView f,
                               std::span<T> o, Op p, T c) {
                              return detail::seg_inclusive_kernel(i, f, o, p, c);
                            });
}

/// Segmented backward exclusive scan (scans each segment from its last
/// element toward its first).
template <class T, ScanOperator<T> Op>
void seg_backward_exclusive_scan(std::span<const T> in, FlagsView flags,
                                 std::span<T> out, Op op) {
  assert(in.size() == out.size() && in.size() == flags.size());
  detail::parallel_seg_backscan(
      in, flags, out, op,
      [](std::span<const T> i, FlagsView f, std::span<T> o, Op p, T c) {
        return detail::seg_backward_exclusive_kernel(i, f, o, p, c);
      });
}

/// Segmented backward inclusive scan.
template <class T, ScanOperator<T> Op>
void seg_backward_inclusive_scan(std::span<const T> in, FlagsView flags,
                                 std::span<T> out, Op op) {
  assert(in.size() == out.size() && in.size() == flags.size());
  detail::parallel_seg_backscan(
      in, flags, out, op,
      [](std::span<const T> i, FlagsView f, std::span<T> o, Op p, T c) {
        return detail::seg_backward_inclusive_kernel(i, f, o, p, c);
      });
}

// --- conveniences named after the paper --------------------------------------

template <class T>
std::vector<T> seg_plus_scan(std::span<const T> in, FlagsView flags) {
  std::vector<T> out(in.size());
  seg_exclusive_scan(in, flags, std::span<T>(out), Plus<T>{});
  return out;
}

template <class T>
std::vector<T> seg_max_scan(std::span<const T> in, FlagsView flags) {
  std::vector<T> out(in.size());
  seg_exclusive_scan(in, flags, std::span<T>(out), Max<T>{});
  return out;
}

template <class T>
std::vector<T> seg_min_scan(std::span<const T> in, FlagsView flags) {
  std::vector<T> out(in.size());
  seg_exclusive_scan(in, flags, std::span<T>(out), Min<T>{});
  return out;
}

// --- batched multi-operator segmented scan (src/serve's mega-vector) ---------
// Many independent small scan requests are one segmented scan (§2.3), run as
// ONE chained-engine dispatch: seg_scan_batch over requests concatenated into
// one vector, and seg_scan_jobs (the serve batcher's path, docs/SERVE.md)
// over the requests' own buffers, both directions in one run, with an
// optional recovery snapshot taken tile by tile. Requests may differ in
// operator and in inclusive/exclusive flavour, so the per-element segment
// metadata of seg_scan_batch carries all three: a meta byte per element
// holds the segment-start flag, the operator tag, and the inclusive bit.
// Within a segment the operator is uniform (a segment never spans requests),
// so the lookback combine is always applied between carries of the same
// operator — associativity holds exactly where the protocol needs it.

namespace batch {

/// Element type of the batched scan path. The five paper operators over one
/// fixed word type keep the mega-vector contiguous and the kernels branchy
/// only on the meta byte.
using Value = std::int64_t;

/// The five operators of the paper (§1, §3.4). kOr/kAnd are bitwise over
/// Value (identities 0 and ~0), which restricted to 0/1 inputs is the
/// boolean or-/and-scan.
enum class Op : std::uint8_t { kPlus = 0, kMax, kMin, kOr, kAnd };
inline constexpr std::size_t kOpCount = 5;

/// Operator tag meaning "no live carry": the initial state, and the state
/// after a backward pass crosses a segment start. The next element
/// materialises its own operator's identity lazily.
inline constexpr std::uint8_t kNoCarryOp = 0xff;

// Meta byte layout: bit 0 = segment-start flag, bits 1-3 = Op, bit 4 =
// inclusive (exclusive otherwise).
constexpr std::uint8_t make_meta(bool flag, Op op, bool inclusive) {
  return static_cast<std::uint8_t>((flag ? 1u : 0u) |
                                   (static_cast<unsigned>(op) << 1) |
                                   (inclusive ? 16u : 0u));
}
constexpr bool meta_flag(std::uint8_t m) { return (m & 1u) != 0; }
constexpr Op meta_op(std::uint8_t m) { return static_cast<Op>((m >> 1) & 7u); }
constexpr bool meta_inclusive(std::uint8_t m) { return (m & 16u) != 0; }

constexpr Value op_identity(Op op) {
  switch (op) {
    case Op::kPlus:
      return 0;
    case Op::kMax:
      return std::numeric_limits<Value>::lowest();
    case Op::kMin:
      return std::numeric_limits<Value>::max();
    case Op::kOr:
      return 0;
    case Op::kAnd:
      return static_cast<Value>(-1);
  }
  return 0;
}

constexpr Value op_apply(Op op, Value a, Value b) {
  switch (op) {
    case Op::kPlus:
      return wrapping_add(a, b);
    case Op::kMax:
      return a > b ? a : b;
    case Op::kMin:
      return a < b ? a : b;
    case Op::kOr:
      return a | b;
    case Op::kAnd:
      return a & b;
  }
  return b;
}

/// The carry flowing between elements, tiles, and (via lookback) workers:
/// the running value plus the operator it was accumulated under. `op ==
/// kNoCarryOp` marks a fresh/reset carry with no value yet.
struct BatchCarry {
  Value v = 0;
  std::uint8_t op = kNoCarryOp;
};

/// Lookback combine, logical order `a` then `b`. A reset on either side
/// short-circuits: a carry that ends in a reset contributes nothing to what
/// follows, and a fresh summary already starts from its own identity.
inline BatchCarry batch_combine(BatchCarry a, BatchCarry b) {
  if (b.op == kNoCarryOp || a.op == kNoCarryOp) return b;
  return {op_apply(static_cast<Op>(b.op), a.v, b.v), b.op};
}

// Sequential kernels, in place over d[0, n) under meta m[0, n). The reset
// placement mirrors the single-operator kernels above exactly: forward
// resets *before* combining at a flag, backward resets *after* (nothing
// crosses a segment start from above). The carry is always the inclusive
// running value; the inclusive bit only changes what is written out.

inline BatchCarry batch_forward_kernel(Value* d, const std::uint8_t* m,
                                       std::size_t n, BatchCarry c) {
  for (std::size_t i = 0; i < n; ++i) {
    const Op op = meta_op(m[i]);
    if (meta_flag(m[i]) || c.op == kNoCarryOp) c.v = op_identity(op);
    c.op = static_cast<std::uint8_t>(op);
    if (meta_inclusive(m[i])) {
      c.v = op_apply(op, c.v, d[i]);
      d[i] = c.v;
    } else {
      const Value next = op_apply(op, c.v, d[i]);
      d[i] = c.v;
      c.v = next;
    }
  }
  return c;
}

inline BatchCarry batch_backward_kernel(Value* d, const std::uint8_t* m,
                                        std::size_t n, BatchCarry c) {
  for (std::size_t i = n; i-- > 0;) {
    const Op op = meta_op(m[i]);
    if (c.op == kNoCarryOp) c.v = op_identity(op);
    c.op = static_cast<std::uint8_t>(op);
    if (meta_inclusive(m[i])) {
      c.v = op_apply(op, c.v, d[i]);
      d[i] = c.v;
    } else {
      const Value next = op_apply(op, c.v, d[i]);
      d[i] = c.v;
      c.v = next;
    }
    if (meta_flag(m[i])) c.op = kNoCarryOp;  // i starts a segment
  }
  return c;
}

// Summary-only versions (the chained engine's summarise step): accumulate the
// inclusive carry without writing, reporting whether a flag was seen (a
// flagged tile's outflow is carry-independent, so it publishes kPrefix).

inline BatchCarry batch_forward_summary(const Value* d, const std::uint8_t* m,
                                        std::size_t n, bool* saw_flag) {
  BatchCarry c;
  for (std::size_t i = 0; i < n; ++i) {
    const Op op = meta_op(m[i]);
    if (meta_flag(m[i])) {
      c.v = op_identity(op);
      *saw_flag = true;
    } else if (c.op == kNoCarryOp) {
      c.v = op_identity(op);
    }
    c.op = static_cast<std::uint8_t>(op);
    c.v = op_apply(op, c.v, d[i]);
  }
  return c;
}

inline BatchCarry batch_backward_summary(const Value* d, const std::uint8_t* m,
                                         std::size_t n, bool* saw_flag) {
  BatchCarry c;
  for (std::size_t i = n; i-- > 0;) {
    const Op op = meta_op(m[i]);
    if (c.op == kNoCarryOp) c.v = op_identity(op);
    c.op = static_cast<std::uint8_t>(op);
    c.v = op_apply(op, c.v, d[i]);
    if (meta_flag(m[i])) {
      *saw_flag = true;
      c.op = kNoCarryOp;
    }
  }
  return c;
}

/// Scan a whole batch of concatenated independent requests in place, in a
/// single chained-engine dispatch (or one sequential pass below the cutoff).
/// `meta[i]` supplies each element's segment flag, operator, and flavour;
/// every request's first element must be flagged so no carry crosses request
/// boundaries. All requests in one call share a direction — mixed-direction
/// batches dispatch once per direction present.
inline void seg_scan_batch(std::span<Value> data,
                           std::span<const std::uint8_t> meta, bool backward,
                           detail::ChainedScratch<BatchCarry>* scratch =
                               nullptr) {
  assert(data.size() == meta.size());
  const std::size_t n = data.size();
  if (n == 0) return;
  if (thread::num_workers() == 1 || n < thread::kSerialCutoff) {
    if (backward) {
      batch_backward_kernel(data.data(), meta.data(), n, BatchCarry{});
    } else {
      batch_forward_kernel(data.data(), meta.data(), n, BatchCarry{});
    }
    return;
  }
  Value* d = data.data();
  const std::uint8_t* m = meta.data();
  detail::chained_scan_run<BatchCarry>(
      n, detail::kChainedTileElements, backward, BatchCarry{}, batch_combine,
      [d, m, backward](std::size_t, std::size_t b, std::size_t c,
                       BatchCarry* agg) {
        bool saw = false;
        *agg = backward ? batch_backward_summary(d + b, m + b, c, &saw)
                        : batch_forward_summary(d + b, m + b, c, &saw);
        return saw;
      },
      [d, m, backward](std::size_t, std::size_t b, std::size_t c,
                       BatchCarry carry) {
        if (backward) {
          batch_backward_kernel(d + b, m + b, c, carry);
        } else {
          batch_forward_kernel(d + b, m + b, c, carry);
        }
      },
      scratch);
}

// --- scatter-gather job scans ------------------------------------------------
//
// The copy-in/copy-out cost of seg_scan_batch is pure overhead when the
// requests already live in caller-owned buffers: the serve batcher would pay
// one pass to build the mega-vector, one to scan it, and one to scatter the
// slices back. seg_scan_jobs instead runs the same protocol over the LOGICAL
// concatenation of per-job buffers — an iovec-style segmented scan. Because
// operator and flavour are uniform within a job, the per-element meta byte
// disappears and each piece runs the SIMD tile kernels of core/simd/ under
// the job's own operator.
//
// The logical order is always forward, in list order. A backward job is laid
// into it reversed: its logical element k is element n-1-k of its buffer. A
// job is an independent segment, so where it sits in the logical sequence
// does not matter, and one chained run serves any mix of directions.

/// One request in a job-list scan: `n` values scanned in place under `op`,
/// with optional per-element segment flags (`flags == nullptr` means the job
/// is a single segment). Every job implicitly starts a segment, so no carry
/// ever crosses a job boundary. A backward job scans from element n-1 toward
/// element 0; a flag then marks where a segment starts going forward, exactly
/// as in the seg_backward_* scans.
struct JobSlice {
  Value* data = nullptr;
  const std::uint8_t* flags = nullptr;
  std::size_t n = 0;
  Op op = Op::kPlus;
  bool inclusive = false;
  bool backward = false;
};

/// Calls `fn` with the core operator (core/ops.hpp) for `op`, so each piece
/// runs the vector kernels specialised for it. kAnd is bitwise with identity
/// ~0, hence BitAnd rather than the boolean And.
template <class Fn>
inline decltype(auto) with_op(Op op, Fn&& fn) {
  switch (op) {
    case Op::kPlus:
      return fn(Plus<Value>{});
    case Op::kMax:
      return fn(Max<Value>{});
    case Op::kMin:
      return fn(Min<Value>{});
    case Op::kOr:
      return fn(Or<Value>{});
    case Op::kAnd:
      return fn(BitAnd<Value>{});
  }
  return fn(Plus<Value>{});
}

// Piece kernels over the job-local buffer range [a, b), carry in and out,
// with the semantics of the meta-byte kernels above. A forward job's element
// 0 starts a segment; a backward job's segment starts at element n-1 (its
// first in scan order), and nothing crosses past its element 0, so both
// reset the carry whatever flows in from the job before it.

template <class OpT>
inline BatchCarry job_scan(const JobSlice& j, bool backward, std::size_t a,
                           std::size_t b, BatchCarry c) {
  Value* const d = j.data + a;
  const std::uint8_t* const f = j.flags == nullptr ? nullptr : j.flags + a;
  const std::size_t n = b - a;
  const auto op = static_cast<std::uint8_t>(j.op);
  const bool starts = backward ? b == j.n : a == 0;
  Value v = starts || c.op == kNoCarryOp ? OpT::identity() : c.v;
  if (!backward) {
    v = j.inclusive ? simd::scan_fwd<Value, OpT, true>(d, f, d, n, v)
                    : simd::scan_fwd<Value, OpT, false>(d, f, d, n, v);
    return {v, op};
  }
  v = j.inclusive ? simd::scan_bwd<Value, OpT, true>(d, f, d, n, v)
                  : simd::scan_bwd<Value, OpT, false>(d, f, d, n, v);
  if (a == 0) return BatchCarry{};
  return {v, op};
}

/// The summarise step's half of job_scan: the carry out without writing,
/// setting `*saw` when the piece resets the carry (its outflow is then
/// independent of its carry-in).
template <class OpT>
inline BatchCarry job_summary(const JobSlice& j, bool backward, std::size_t a,
                              std::size_t b, BatchCarry c, bool* saw) {
  const Value* const d = j.data + a;
  const std::uint8_t* const f = j.flags == nullptr ? nullptr : j.flags + a;
  const std::size_t n = b - a;
  const auto op = static_cast<std::uint8_t>(j.op);
  const bool starts = backward ? b == j.n : a == 0;
  if (starts) *saw = true;
  Value v = starts || c.op == kNoCarryOp ? OpT::identity() : c.v;
  if (!backward) return {simd::reduce_fwd<Value, OpT>(d, f, n, v, saw), op};
  v = simd::reduce_bwd<Value, OpT>(d, f, n, v, saw);
  if (a == 0) {
    *saw = true;
    return BatchCarry{};
  }
  return {v, op};
}

/// Execution policy for seg_scan_jobs. kAuto picks the chained dispatch when
/// the pool is real parallel hardware and a sequential pass when it is not
/// (single worker, small batch, or an oversubscribed pool whose lookback
/// spinning would time-share one core). The forced modes exist for tests and
/// measurement.
enum class JobsMode : std::uint8_t { kAuto, kForceParallel, kSerial };

namespace jobs_detail {

/// Per-thread storage for the chained path, reused call after call so a
/// steady caller (the serve batcher) allocates nothing per batch: the
/// exclusive prefix of job lengths, and one snapshot mark per tile.
struct Work {
  std::vector<std::size_t> offs;
  std::vector<std::uint8_t> marks;
};

inline Work& work() {
  thread_local Work w;
  return w;
}

/// Walk the pieces of `jobs` overlapping logical range [gb, ge) in list
/// order, calling `piece(job, backward, a, b, base)` with the piece's
/// job-local buffer range [a, b) and the job's logical start `base`. `offs`
/// holds the exclusive prefix of job lengths plus the total.
template <class Piece>
inline void for_pieces(std::span<const JobSlice> jobs,
                       std::span<const std::size_t> offs, std::size_t gb,
                       std::size_t ge, bool backward, Piece&& piece) {
  auto it = std::upper_bound(offs.begin(), offs.end(), gb);
  std::size_t ji = static_cast<std::size_t>(it - offs.begin()) - 1;
  std::size_t g = gb;
  while (g < ge) {
    while (offs[ji + 1] <= g) ++ji;  // skips zero-length jobs
    const JobSlice& j = jobs[ji];
    const std::size_t la = g - offs[ji];
    const std::size_t lb = std::min(j.n, ge - offs[ji]);
    if (backward || j.backward) {
      piece(j, true, j.n - lb, j.n - la, offs[ji]);
    } else {
      piece(j, false, la, lb, offs[ji]);
    }
    g = offs[ji] + lb;
  }
}

}  // namespace jobs_detail

/// Scan a batch of independent jobs in place, each in its own buffer, as one
/// logical segmented mega-scan: one chained-engine dispatch over the
/// concatenation, or one sequential pass per job under kSerial/kAuto
/// fallback. A job runs backward when `backward || job.backward`.
///
/// `snapshot`, when non-empty, holds at least the total job length and is
/// laid out like the logical concatenation (job i at its prefix offset, in
/// buffer order). The run then either succeeds or throws with every job's
/// input restored: the summarise step copies each tile's pieces into the
/// snapshot before reducing them and marks the tile once the copy is whole,
/// and a tile is only rescanned (written) after its summarise, so on a throw
/// exactly the marked tiles are copied back. The serial pass snapshots each
/// job just before scanning it and restores the jobs it reached.
inline void seg_scan_jobs(std::span<const JobSlice> jobs, bool backward,
                          detail::ChainedScratch<BatchCarry>* scratch = nullptr,
                          JobsMode mode = JobsMode::kAuto,
                          std::span<Value> snapshot = {}) {
  std::size_t total = 0;
  for (const JobSlice& j : jobs) total += j.n;
  if (total == 0) return;
  assert(snapshot.empty() || snapshot.size() >= total);
  obs::Span jobs_span("batch.jobs");
  Value* const snap = snapshot.empty() ? nullptr : snapshot.data();

  bool serial = thread::num_workers() == 1 || total < thread::kSerialCutoff;
  if (mode == JobsMode::kSerial) serial = true;
  if (mode == JobsMode::kAuto && thread::oversubscribed()) serial = true;
  if (mode == JobsMode::kForceParallel && thread::num_workers() > 1) {
    serial = false;
  }
  if (serial) {
    std::size_t copied = 0;  // logical prefix whose snapshot is complete
    try {
      for (const JobSlice& j : jobs) {
        obs::Span job_span("batch.serial_job");
        SCANPRIM_FAULT_POINT("batch.serial_job");
        if (j.n == 0) continue;
        if (snap != nullptr) {
          std::memcpy(snap + copied, j.data, j.n * sizeof(Value));
        }
        copied += j.n;
        with_op(j.op, [&](auto op) {
          job_scan<decltype(op)>(j, backward || j.backward, 0, j.n,
                                 BatchCarry{});
        });
      }
    } catch (...) {
      if (snap != nullptr) {
        std::size_t at = 0;
        for (const JobSlice& j : jobs) {
          if (at >= copied) break;
          if (j.n != 0) std::memcpy(j.data, snap + at, j.n * sizeof(Value));
          at += j.n;
        }
      }
      throw;
    }
    return;
  }

  constexpr std::size_t tile = detail::kChainedTileElements;
  jobs_detail::Work& w = jobs_detail::work();
  w.offs.resize(jobs.size() + 1);
  w.offs[0] = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    w.offs[i + 1] = w.offs[i] + jobs[i].n;
  }
  const std::span<const std::size_t> ov(w.offs);
  if (snap != nullptr) w.marks.assign((total + tile - 1) / tile, 0);
  std::uint8_t* const marks = w.marks.data();

  try {
    detail::chained_scan_run<BatchCarry>(
        total, tile, /*backward=*/false, BatchCarry{}, batch_combine,
        [jobs, ov, backward, snap, marks](std::size_t, std::size_t b,
                                          std::size_t c, BatchCarry* agg) {
          BatchCarry acc;
          bool saw = false;
          jobs_detail::for_pieces(
              jobs, ov, b, b + c, backward,
              [&](const JobSlice& j, bool bwd, std::size_t pa, std::size_t pb,
                  std::size_t base) {
                SCANPRIM_FAULT_POINT("batch.piece");
                if (snap != nullptr) {
                  std::memcpy(snap + base + pa, j.data + pa,
                              (pb - pa) * sizeof(Value));
                }
                with_op(j.op, [&](auto op) {
                  acc = job_summary<decltype(op)>(j, bwd, pa, pb, acc, &saw);
                });
              });
          if (snap != nullptr) marks[b / tile] = 1;
          *agg = acc;
          return saw;
        },
        [jobs, ov, backward](std::size_t, std::size_t b, std::size_t c,
                             BatchCarry carry) {
          jobs_detail::for_pieces(
              jobs, ov, b, b + c, backward,
              [&](const JobSlice& j, bool bwd, std::size_t pa, std::size_t pb,
                  std::size_t) {
                SCANPRIM_FAULT_POINT("batch.piece");
                with_op(j.op, [&](auto op) {
                  carry = job_scan<decltype(op)>(j, bwd, pa, pb, carry);
                });
              });
        },
        scratch);
  } catch (...) {
    if (snap != nullptr) {
      for (std::size_t t = 0; t < w.marks.size(); ++t) {
        if (marks[t] == 0) continue;
        jobs_detail::for_pieces(
            jobs, ov, t * tile, std::min(total, (t + 1) * tile), backward,
            [&](const JobSlice& j, bool, std::size_t pa, std::size_t pb,
                std::size_t base) {
              std::memcpy(j.data + pa, snap + base + pa,
                          (pb - pa) * sizeof(Value));
            });
      }
    }
    throw;
  }
}

}  // namespace batch

}  // namespace scanprim
