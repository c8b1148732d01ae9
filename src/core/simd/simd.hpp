// Runtime-dispatched SIMD tiers for the scan tile kernels.
//
// The engines (core/scan.hpp, core/segmented.hpp, exec/node.hpp) call the
// five entry points below — scan_fwd / scan_bwd / reduce_fwd / reduce_bwd /
// any_flag — instead of open-coding their element loops. Each entry checks
// `vectorizable_v<Op, T>` at compile time and the active tier at runtime:
//
//   kAvx512   64-byte registers, `target("avx512f,avx512bw,avx512dq,avx512vl")`
//   kAvx2     32-byte registers, `target("avx2")`
//   kScalar   the original element loops (also the tail/flagged-chunk path
//             inside the vector tiers, so every tier is bit-identical)
//
// The tier is probed once from cpuid and may be capped with
// SCANPRIM_SIMD=auto|avx512|avx2|scalar (or set_simd_tier()). Requests above
// what the CPU supports clamp down; unrecognised specs mean auto. On non-x86
// targets only kScalar exists and the width-agnostic kernel templates in
// simd_kernels.hpp simply go uninstantiated — the build stays portable and
// the plain loops are simple enough for the autovectorizer.
//
// Float element types always take the scalar path: vector kernels
// re-associate the fold, which is bit-exact only for the integral wrapping /
// comparison / bitwise operators (see simd_kernels.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/core/simd/simd_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define SCANPRIM_SIMD_X86 1
#else
#define SCANPRIM_SIMD_X86 0
#endif

namespace scanprim::simd {

/// Dispatch tiers, ordered so numeric comparison means "at least as wide".
enum class Tier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Widest tier this CPU supports (probed once; kScalar off x86).
Tier best_supported_tier();

/// The tier the kernels dispatch on. Initialised on first use from
/// SCANPRIM_SIMD, clamped to best_supported_tier().
Tier active_tier();

/// Override the active tier (tests/benches). Clamps to what the CPU
/// supports, so requesting kAvx512 on an AVX2 machine yields kAvx2.
void set_simd_tier(Tier tier);

/// Lower-case name of a tier ("scalar" / "avx2" / "avx512").
const char* tier_name(Tier tier);

#if SCANPRIM_SIMD_X86
namespace detail {

// Per-tier wrappers: each instantiates the generic kernel body at the
// tier's register width inside a `target`-attributed function, so the whole
// always-inlined kernel is compiled with that ISA regardless of -march.
#define SCANPRIM_SIMD_TIER(SUFFIX, TARGET, VB)                                 \
  template <class T, class Op, bool Inclusive>                                 \
  __attribute__((target(TARGET), noinline)) T scan_fwd_##SUFFIX(              \
      const T* in, const std::uint8_t* f, T* out, std::size_t n, T carry) {    \
    return kernels::Kern<T, Op, VB>::template scan_fwd<Inclusive>(in, f, out, \
                                                                  n, carry);   \
  }                                                                            \
  template <class T, class Op, bool Inclusive>                                 \
  __attribute__((target(TARGET), noinline)) T scan_bwd_##SUFFIX(              \
      const T* in, const std::uint8_t* f, T* out, std::size_t n, T carry) {    \
    return kernels::Kern<T, Op, VB>::template scan_bwd<Inclusive>(in, f, out, \
                                                                  n, carry);   \
  }                                                                            \
  template <class T, class Op>                                                 \
  __attribute__((target(TARGET), noinline)) T reduce_fwd_##SUFFIX(            \
      const T* in, const std::uint8_t* f, std::size_t n, T carry,              \
      bool* saw_flag) {                                                        \
    return kernels::Kern<T, Op, VB>::reduce_fwd(in, f, n, carry, saw_flag);    \
  }                                                                            \
  template <class T, class Op>                                                 \
  __attribute__((target(TARGET), noinline)) T reduce_bwd_##SUFFIX(            \
      const T* in, const std::uint8_t* f, std::size_t n, T carry,              \
      bool* saw_flag) {                                                        \
    return kernels::Kern<T, Op, VB>::reduce_bwd(in, f, n, carry, saw_flag);    \
  }

SCANPRIM_SIMD_TIER(avx2, "avx2", 32)
SCANPRIM_SIMD_TIER(avx512, "avx512f,avx512bw,avx512dq,avx512vl", 64)

#undef SCANPRIM_SIMD_TIER

}  // namespace detail
#endif  // SCANPRIM_SIMD_X86

/// Forward scan of in[0, n) into out[0, n) threading `carry` (inclusive or
/// exclusive); `f` non-null adds segment-flag resets (reset *before* the
/// element combines). Returns the carry out. in == out is allowed.
template <class T, class Op, bool Inclusive>
T scan_fwd(const T* in, const std::uint8_t* f, T* out, std::size_t n,
           T carry) {
  if constexpr (vectorizable_v<Op, T>) {
#if SCANPRIM_SIMD_X86
    switch (active_tier()) {
      case Tier::kAvx512:
        return detail::scan_fwd_avx512<T, Op, Inclusive>(in, f, out, n, carry);
      case Tier::kAvx2:
        return detail::scan_fwd_avx2<T, Op, Inclusive>(in, f, out, n, carry);
      case Tier::kScalar:
        break;
    }
#endif
  }
  return scalar_scan_fwd<T, Op, Inclusive>(in, f, out, 0, n, carry);
}

/// Backward scan (element n-1 down to 0); `f` non-null resets the carry
/// *after* a flagged element combines, matching core/segmented.hpp.
template <class T, class Op, bool Inclusive>
T scan_bwd(const T* in, const std::uint8_t* f, T* out, std::size_t n,
           T carry) {
  if constexpr (vectorizable_v<Op, T>) {
#if SCANPRIM_SIMD_X86
    switch (active_tier()) {
      case Tier::kAvx512:
        return detail::scan_bwd_avx512<T, Op, Inclusive>(in, f, out, n, carry);
      case Tier::kAvx2:
        return detail::scan_bwd_avx2<T, Op, Inclusive>(in, f, out, n, carry);
      case Tier::kScalar:
        break;
    }
#endif
  }
  return scalar_scan_bwd<T, Op, Inclusive>(in, f, out, 0, n, carry);
}

/// Forward reduction of in[0, n) folded onto `carry`. With flags, a flagged
/// element restarts the fold at identity first; `saw_flag` (may be null) is
/// set when any flag was seen.
template <class T, class Op>
T reduce_fwd(const T* in, const std::uint8_t* f, std::size_t n, T carry,
             bool* saw_flag = nullptr) {
  if constexpr (vectorizable_v<Op, T>) {
#if SCANPRIM_SIMD_X86
    switch (active_tier()) {
      case Tier::kAvx512:
        return detail::reduce_fwd_avx512<T, Op>(in, f, n, carry, saw_flag);
      case Tier::kAvx2:
        return detail::reduce_fwd_avx2<T, Op>(in, f, n, carry, saw_flag);
      case Tier::kScalar:
        break;
    }
#endif
  }
  return scalar_reduce_fwd<T, Op>(in, f, 0, n, carry, saw_flag);
}

/// Backward reduction (element n-1 down to 0); a flagged element resets the
/// fold *after* combining, matching the backward scan.
template <class T, class Op>
T reduce_bwd(const T* in, const std::uint8_t* f, std::size_t n, T carry,
             bool* saw_flag = nullptr) {
  if constexpr (vectorizable_v<Op, T>) {
#if SCANPRIM_SIMD_X86
    switch (active_tier()) {
      case Tier::kAvx512:
        return detail::reduce_bwd_avx512<T, Op>(in, f, n, carry, saw_flag);
      case Tier::kAvx2:
        return detail::reduce_bwd_avx2<T, Op>(in, f, n, carry, saw_flag);
      case Tier::kScalar:
        break;
    }
#endif
  }
  return scalar_reduce_bwd<T, Op>(in, f, 0, n, carry, saw_flag);
}

/// Any nonzero byte in f[0, n)? Word-at-a-time on every tier (the OR fold
/// needs no ISA beyond 64-bit loads, and this is already memory-bound).
inline bool any_flag(const std::uint8_t* f, std::size_t n) {
  std::size_t i = 0;
  std::uint64_t acc = 0;
  for (; i + 32 <= n; i += 32) {
    std::uint64_t w0, w1, w2, w3;
    std::memcpy(&w0, f + i, 8);
    std::memcpy(&w1, f + i + 8, 8);
    std::memcpy(&w2, f + i + 16, 8);
    std::memcpy(&w3, f + i + 24, 8);
    acc |= (w0 | w1) | (w2 | w3);
    if (acc != 0) return true;
  }
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, f + i, 8);
    acc |= w;
  }
  for (; i < n; ++i) acc |= f[i];
  return acc != 0;
}

}  // namespace scanprim::simd
