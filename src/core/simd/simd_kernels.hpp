// Width-agnostic SIMD tile kernels for the five scan operators (docs/
// SCAN_ENGINE.md, "Tile kernels").
//
// One generic kernel body — written against GNU vector extensions, so the
// same source compiles to AVX-512, AVX2, SSE2, or NEON depending on the
// flags of the function it is inlined into — implements the summarize
// (reduce) and rescan (scan) loops the engines run per tile. simd.hpp
// instantiates these bodies inside `__attribute__((target(...)))` wrappers
// to get the runtime-dispatched AVX2/AVX-512 tiers; every helper here is
// always_inline so no vector-typed call boundary survives into a function
// compiled with a different ISA (that would be an ABI mismatch at -O0).
//
// The vector algorithm is LightScan's intra-core half (Liu & Aluru,
// PAPERS.md): a Hillis–Steele prefix inside each W-lane register, a
// broadcast carry folded over the register, and a 1-op-per-register scalar
// carry chain between registers — the loop-carried dependence drops from
// one ⊕ per *element* to one ⊕ per *W elements*. Only operators that are
// associative AND commutative over an integral type are vectorized
// (Plus/Max/Min/Or/And on ints wrap or compare exactly, so any re-
// association is bit-identical to the scalar fold; float ⊕ would not be).
// Everything else — and every tail, misaligned remainder, or flagged
// chunk — runs the scalar reference loops below, which are the same loops
// the library always ran.
//
// Segmented variants: flags are checked a register-chunk at a time. A chunk
// with no flag (the common case — segment starts are sparse) runs the
// unsegmented vector kernel with the running carry; a chunk containing a
// flag falls back to the scalar kernel for those W elements, preserving the
// exact reset placement of core/segmented.hpp (reset *before* combining
// going forward, *after* going backward).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "src/core/ops.hpp"

// The vector-typed helpers below pass GNU vector values through always-
// inlined call boundaries; GCC notes the pre-4.6 ABI change for 32/64-byte
// alignment every time. The calls never survive to an out-of-line boundary
// (see SCANPRIM_SIMD_INLINE), so the note is noise.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

#if defined(__GNUC__) || defined(__clang__)
#define SCANPRIM_SIMD_INLINE inline __attribute__((always_inline))
#else
#define SCANPRIM_SIMD_INLINE inline
#endif

namespace scanprim::simd {

// --- which operators vectorize ----------------------------------------------

/// Vector-apply for the supported operators. The primary template marks an
/// operator non-vectorizable; specializations provide the lane-wise
/// combine. `apply` operates on GNU vector types (lane-wise `+`, `|`, `&`,
/// and the lane-wise ternary for max/min).
template <class Op>
struct OpTraits {
  static constexpr bool vectorizable = false;
};

template <class T>
struct OpTraits<Plus<T>> {
  static constexpr bool vectorizable = std::is_integral_v<T> && sizeof(T) <= 8;
  // Added in the unsigned lane type: signed lanes wrap exactly like the
  // scalar wrapping_add of core/ops.hpp, without signed overflow.
  template <class V>
  static SCANPRIM_SIMD_INLINE V apply(V a, V b) {
    typedef std::make_unsigned_t<T> U __attribute__((vector_size(sizeof(V))));
    return (V)((U)a + (U)b);
  }
};

template <class T>
struct OpTraits<Max<T>> {
  static constexpr bool vectorizable = std::is_integral_v<T> && sizeof(T) <= 8;
  template <class V>
  static SCANPRIM_SIMD_INLINE V apply(V a, V b) {
    return a > b ? a : b;
  }
};

template <class T>
struct OpTraits<Min<T>> {
  static constexpr bool vectorizable = std::is_integral_v<T> && sizeof(T) <= 8;
  template <class V>
  static SCANPRIM_SIMD_INLINE V apply(V a, V b) {
    return a < b ? a : b;
  }
};

template <class T>
struct OpTraits<Or<T>> {
  static constexpr bool vectorizable = std::is_integral_v<T> && sizeof(T) <= 8;
  template <class V>
  static SCANPRIM_SIMD_INLINE V apply(V a, V b) {
    return a | b;
  }
};

template <class T>
struct OpTraits<And<T>> {
  static constexpr bool vectorizable = std::is_integral_v<T> && sizeof(T) <= 8;
  template <class V>
  static SCANPRIM_SIMD_INLINE V apply(V a, V b) {
    return a & b;
  }
};

template <class T>
struct OpTraits<BitAnd<T>> : OpTraits<And<T>> {};

namespace kernels {
// SFINAE-guarded so arbitrary callables (lambda combiners, seg_copy's
// "latest valid value" functor) without a `value_type` are simply
// non-vectorizable rather than a hard error.
template <class Op, class T, class = void>
struct Vectorizable : std::false_type {};
template <class Op, class T>
struct Vectorizable<Op, T, std::void_t<typename Op::value_type>>
    : std::bool_constant<OpTraits<Op>::vectorizable &&
                         std::is_same_v<typename Op::value_type, T>> {};
}  // namespace kernels

/// True when scans of `Op` over element type `T` have a vector kernel.
template <class Op, class T>
inline constexpr bool vectorizable_v = kernels::Vectorizable<Op, T>::value;

// --- scalar reference kernels ------------------------------------------------
// These are the library's original sequential loops, hoisted here so the
// scalar dispatch tier, the sub-register tails, and the flagged-chunk
// fallbacks all share one definition — the property suite in
// tests/test_simd_kernels.cpp holds every vector tier bit-identical to
// these. `f` may be null (unsegmented). All thread the running carry.

template <class T, class Op, bool Inclusive>
SCANPRIM_SIMD_INLINE T scalar_scan_fwd(const T* in, const std::uint8_t* f,
                                       T* out, std::size_t b, std::size_t e,
                                       T carry) {
  Op op;
  for (std::size_t i = b; i < e; ++i) {
    if (f != nullptr && f[i]) carry = Op::identity();
    if constexpr (Inclusive) {
      carry = op(carry, in[i]);
      out[i] = carry;
    } else {
      const T next = op(carry, in[i]);
      out[i] = carry;
      carry = next;
    }
  }
  return carry;
}

template <class T, class Op, bool Inclusive>
SCANPRIM_SIMD_INLINE T scalar_scan_bwd(const T* in, const std::uint8_t* f,
                                       T* out, std::size_t b, std::size_t e,
                                       T carry) {
  Op op;
  for (std::size_t i = e; i-- > b;) {
    if constexpr (Inclusive) {
      carry = op(carry, in[i]);
      out[i] = carry;
    } else {
      const T next = op(carry, in[i]);
      out[i] = carry;
      carry = next;
    }
    if (f != nullptr && f[i]) carry = Op::identity();
  }
  return carry;
}

template <class T, class Op>
SCANPRIM_SIMD_INLINE T scalar_reduce_fwd(const T* in, const std::uint8_t* f,
                                         std::size_t b, std::size_t e, T carry,
                                         bool* saw_flag) {
  Op op;
  for (std::size_t i = b; i < e; ++i) {
    if (f != nullptr && f[i]) {
      carry = Op::identity();
      if (saw_flag != nullptr) *saw_flag = true;
    }
    carry = op(carry, in[i]);
  }
  return carry;
}

template <class T, class Op>
SCANPRIM_SIMD_INLINE T scalar_reduce_bwd(const T* in, const std::uint8_t* f,
                                         std::size_t b, std::size_t e, T carry,
                                         bool* saw_flag) {
  Op op;
  for (std::size_t i = e; i-- > b;) {
    carry = op(carry, in[i]);
    if (f != nullptr && f[i]) {
      carry = Op::identity();
      if (saw_flag != nullptr) *saw_flag = true;
    }
  }
  return carry;
}

// --- vector kernel bodies ----------------------------------------------------

namespace kernels {

template <class T, std::size_t Bytes>
struct VecOf {
  typedef T type __attribute__((vector_size(Bytes)));
};

/// The kernel set for element type T under operator Op at a vector width of
/// `VB` bytes. Instantiated by simd.hpp once per dispatch tier, inside a
/// wrapper carrying that tier's `target` attribute; everything here inlines
/// into that wrapper and is compiled with its ISA.
template <class T, class Op, std::size_t VB>
struct Kern {
  static constexpr std::size_t W = VB / sizeof(T);  ///< lanes per register
  using V = typename VecOf<T, VB>::type;
  static_assert(W >= 2 && (W & (W - 1)) == 0, "lane count must be a power of two");

  static SCANPRIM_SIMD_INLINE V load(const T* p) {
    V v;
    std::memcpy(&v, p, sizeof(V));  // unaligned-safe
    return v;
  }
  static SCANPRIM_SIMD_INLINE void store(T* p, V v) {
    std::memcpy(p, &v, sizeof(V));
  }
  static SCANPRIM_SIMD_INLINE V splat(T x) { return V{} + x; }
  static SCANPRIM_SIMD_INLINE V apply(V a, V b) {
    return OpTraits<Op>::template apply<V>(a, b);
  }

  template <std::size_t K, std::size_t... Is>
  static SCANPRIM_SIMD_INLINE V shift_up_impl(V fill, V v,
                                              std::index_sequence<Is...>) {
    // result[i] = i < K ? fill[i] : v[i - K]
    return __builtin_shufflevector(fill, v,
                                   (Is < K ? int(Is) : int(W + Is - K))...);
  }
  /// Shift lanes toward higher indices by K, filling vacated low lanes from
  /// `fill` (the identity, or the incoming carry).
  template <std::size_t K>
  static SCANPRIM_SIMD_INLINE V shift_up(V fill, V v) {
    return shift_up_impl<K>(fill, v, std::make_index_sequence<W>{});
  }

  template <std::size_t... Is>
  static SCANPRIM_SIMD_INLINE V reverse_impl(V v, std::index_sequence<Is...>) {
    return __builtin_shufflevector(v, v, int(W - 1 - Is)...);
  }
  static SCANPRIM_SIMD_INLINE V reverse(V v) {
    return reverse_impl(v, std::make_index_sequence<W>{});
  }

  template <std::size_t K, std::size_t... Is>
  static SCANPRIM_SIMD_INLINE V rotate_impl(V v, std::index_sequence<Is...>) {
    return __builtin_shufflevector(v, v, int((Is + K) % W)...);
  }
  template <std::size_t K>
  static SCANPRIM_SIMD_INLINE V rotate(V v) {
    return rotate_impl<K>(v, std::make_index_sequence<W>{});
  }

  /// Hillis–Steele inclusive prefix within one register: lg W shift-and-
  /// combine steps, identity shifted into the vacated lanes.
  static SCANPRIM_SIMD_INLINE V prefix(V v, V idv) {
    if constexpr (W >= 2) v = apply(v, shift_up<1>(idv, v));
    if constexpr (W >= 4) v = apply(v, shift_up<2>(idv, v));
    if constexpr (W >= 8) v = apply(v, shift_up<4>(idv, v));
    if constexpr (W >= 16) v = apply(v, shift_up<8>(idv, v));
    if constexpr (W >= 32) v = apply(v, shift_up<16>(idv, v));
    if constexpr (W >= 64) v = apply(v, shift_up<32>(idv, v));
    static_assert(W <= 64, "widen the prefix ladder");
    return v;
  }

  /// Lane fold to a scalar (tree order — exact for the commutative integral
  /// operators this file vectorizes).
  static SCANPRIM_SIMD_INLINE T hfold(V v) {
    if constexpr (W >= 64) v = apply(v, rotate<32>(v));
    if constexpr (W >= 32) v = apply(v, rotate<16>(v));
    if constexpr (W >= 16) v = apply(v, rotate<8>(v));
    if constexpr (W >= 8) v = apply(v, rotate<4>(v));
    if constexpr (W >= 4) v = apply(v, rotate<2>(v));
    if constexpr (W >= 2) v = apply(v, rotate<1>(v));
    return v[0];
  }

  /// Any set flag among f[0, W)?
  static SCANPRIM_SIMD_INLINE bool chunk_has_flag(const std::uint8_t* f) {
    std::uint64_t acc = 0;
    std::size_t i = 0;
    for (; i + 8 <= W; i += 8) {
      std::uint64_t word;
      std::memcpy(&word, f + i, 8);
      acc |= word;
    }
    for (; i < W; ++i) acc |= f[i];
    return acc != 0;
  }

  template <bool Inclusive>
  static SCANPRIM_SIMD_INLINE T scan_fwd(const T* in, const std::uint8_t* f,
                                         T* out, std::size_t n, T carry) {
    Op op;
    const V idv = splat(Op::identity());
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      if (f != nullptr && chunk_has_flag(f + i)) {
        carry = scalar_scan_fwd<T, Op, Inclusive>(in, f, out, i, i + W, carry);
        continue;
      }
      V v = prefix(load(in + i), idv);
      const T hi = v[W - 1];  // local inclusive total, off the carry chain
      const V cv = splat(carry);
      V res = apply(cv, v);
      if constexpr (!Inclusive) res = shift_up<1>(cv, res);
      store(out + i, res);
      carry = op(carry, hi);
    }
    return scalar_scan_fwd<T, Op, Inclusive>(in, f, out, i, n, carry);
  }

  /// Prefetch distance (elements) for the backward kernels: descending
  /// streams defeat the hardware prefetcher, so hint ~1 KiB ahead of the
  /// walk. (Forward streams need no help.)
  static constexpr std::size_t kPfDist = 1024 / sizeof(T);

  template <bool Inclusive>
  static SCANPRIM_SIMD_INLINE T scan_bwd(const T* in, const std::uint8_t* f,
                                         T* out, std::size_t n, T carry) {
    Op op;
    const V idv = splat(Op::identity());
    std::size_t i = n;
    while (i >= W) {
      i -= W;
      if (i >= kPfDist) {
        __builtin_prefetch(in + (i - kPfDist));
        __builtin_prefetch(out + (i - kPfDist), 1);
      }
      if (f != nullptr && chunk_has_flag(f + i)) {
        carry = scalar_scan_bwd<T, Op, Inclusive>(in, f, out, i, i + W, carry);
        continue;
      }
      // Reverse the chunk, run the forward kernel, reverse the result: a
      // backward scan is the forward scan of the reversed order.
      V v = prefix(reverse(load(in + i)), idv);
      const T hi = v[W - 1];
      const V cv = splat(carry);
      V res = apply(cv, v);
      if constexpr (!Inclusive) res = shift_up<1>(cv, res);
      store(out + i, reverse(res));
      carry = op(carry, hi);
    }
    return scalar_scan_bwd<T, Op, Inclusive>(in, f, out, 0, i, carry);
  }

  static SCANPRIM_SIMD_INLINE T reduce_fwd(const T* in, const std::uint8_t* f,
                                           std::size_t n, T carry,
                                           bool* saw_flag) {
    Op op;
    std::size_t i = 0;
    if (f == nullptr) {
      if (n >= W) {
        V acc = load(in);
        for (i = W; i + W <= n; i += W) acc = apply(acc, load(in + i));
        carry = op(carry, hfold(acc));
      }
      for (; i < n; ++i) carry = op(carry, in[i]);
      return carry;
    }
    // Segmented: accumulate runs of flag-free chunks vertically, flushing
    // the accumulator into the scalar carry whenever a flagged chunk (or
    // the end) interrupts the run.
    V acc{};
    bool have_acc = false;
    for (; i + W <= n; i += W) {
      if (chunk_has_flag(f + i)) {
        if (have_acc) {
          carry = op(carry, hfold(acc));
          have_acc = false;
        }
        carry = scalar_reduce_fwd<T, Op>(in, f, i, i + W, carry, saw_flag);
      } else {
        acc = have_acc ? apply(acc, load(in + i)) : load(in + i);
        have_acc = true;
      }
    }
    if (have_acc) carry = op(carry, hfold(acc));
    return scalar_reduce_fwd<T, Op>(in, f, i, n, carry, saw_flag);
  }

  static SCANPRIM_SIMD_INLINE T reduce_bwd(const T* in, const std::uint8_t* f,
                                           std::size_t n, T carry,
                                           bool* saw_flag) {
    Op op;
    std::size_t i = n;
    if (f == nullptr) {
      if (n >= W) {
        i -= W;
        V acc = load(in + i);
        while (i >= W) {
          i -= W;
          if (i >= kPfDist) __builtin_prefetch(in + (i - kPfDist));
          acc = apply(acc, load(in + i));
        }
        carry = op(carry, hfold(acc));
      }
      while (i-- > 0) carry = op(carry, in[i]);
      return carry;
    }
    V acc{};
    bool have_acc = false;
    while (i >= W) {
      i -= W;
      if (i >= kPfDist) __builtin_prefetch(in + (i - kPfDist));
      if (chunk_has_flag(f + i)) {
        if (have_acc) {
          carry = op(carry, hfold(acc));
          have_acc = false;
        }
        carry = scalar_reduce_bwd<T, Op>(in, f, i, i + W, carry, saw_flag);
      } else {
        acc = have_acc ? apply(acc, load(in + i)) : load(in + i);
        have_acc = true;
      }
    }
    if (have_acc) carry = op(carry, hfold(acc));
    return scalar_reduce_bwd<T, Op>(in, f, 0, i, carry, saw_flag);
  }
};

}  // namespace kernels

}  // namespace scanprim::simd
