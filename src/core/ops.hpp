// Binary operators usable as scan operators. The paper (§1) restricts the
// primitive scans to integer `+` and `max`, and shows (§3.4) that the other
// scans used in its algorithms reduce to those two; this header defines all
// the operators the algorithm layer scans with, and core/simulate.hpp
// carries out the §3.4 reductions.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace scanprim {

/// A scan operator is an associative binary function with an identity
/// element. (The paper, §2.2 footnote 3, requires an identity: that is why
/// `first` is not a legal scan operator and `copy` needs a max-scan.)
template <class Op, class T>
concept ScanOperator = requires(const Op op, T a, T b) {
  { op(a, b) } -> std::convertible_to<T>;
  { Op::identity() } -> std::convertible_to<T>;
};

/// Integer `+`, `-` and `×` wrap mod 2^bits, like the paper's m-bit bit-serial
/// adder (src/circuit): the operands go through the unsigned type of their
/// promoted width, so signed overflow (and the int overflow of promoted
/// short products) is defined, and every SIMD tier, whose vector adds wrap,
/// agrees with the scalar loop bit for bit. Other types use the plain
/// operator.
template <class T>
constexpr T wrapping_add(T a, T b) {
  if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    using U = std::make_unsigned_t<std::common_type_t<T, int>>;
    return static_cast<T>(static_cast<U>(a) + static_cast<U>(b));
  } else {
    return a + b;
  }
}

template <class T>
constexpr T wrapping_sub(T a, T b) {
  if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    using U = std::make_unsigned_t<std::common_type_t<T, int>>;
    return static_cast<T>(static_cast<U>(a) - static_cast<U>(b));
  } else {
    return a - b;
  }
}

template <class T>
constexpr T wrapping_mul(T a, T b) {
  if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    using U = std::make_unsigned_t<std::common_type_t<T, int>>;
    return static_cast<T>(static_cast<U>(a) * static_cast<U>(b));
  } else {
    return a * b;
  }
}

template <class T>
struct Plus {
  using value_type = T;
  static constexpr T identity() { return T{}; }
  constexpr T operator()(T a, T b) const { return wrapping_add(a, b); }
};

template <class T>
struct Max {
  using value_type = T;
  // For float types the identity must be -inf, not lowest():
  // max(lowest(), -inf) == lowest() != -inf, so a scan over data containing
  // -inf would be wrong wherever the identity seeds a segment or tile.
  static constexpr T identity() {
    if constexpr (std::numeric_limits<T>::has_infinity) {
      return -std::numeric_limits<T>::infinity();
    } else {
      return std::numeric_limits<T>::lowest();
    }
  }
  constexpr T operator()(T a, T b) const { return a > b ? a : b; }
};

template <class T>
struct Min {
  using value_type = T;
  static constexpr T identity() {
    if constexpr (std::numeric_limits<T>::has_infinity) {
      return std::numeric_limits<T>::infinity();
    } else {
      return std::numeric_limits<T>::max();
    }
  }
  constexpr T operator()(T a, T b) const { return a < b ? a : b; }
};

/// Boolean operators over 0/1 flags stored in integer types.
template <class T = std::uint8_t>
struct Or {
  using value_type = T;
  static constexpr T identity() { return T{0}; }
  constexpr T operator()(T a, T b) const { return static_cast<T>(a | b); }
};

template <class T = std::uint8_t>
struct And {
  using value_type = T;
  static constexpr T identity() { return T{1}; }
  constexpr T operator()(T a, T b) const { return static_cast<T>(a & b); }
};

/// Bitwise and over whole words, identity all ones. And<T> above is the
/// boolean and over 0/1 flags, whose identity 1 would clear every other bit.
template <class T>
struct BitAnd {
  using value_type = T;
  static constexpr T identity() { return static_cast<T>(~T{0}); }
  constexpr T operator()(T a, T b) const { return static_cast<T>(a & b); }
};

/// Multiplication — not primitive in the paper, but used by the appendix's
/// polynomial-evaluation example (Stone's `×-scan`).
template <class T>
struct Times {
  using value_type = T;
  static constexpr T identity() { return T{1}; }
  constexpr T operator()(T a, T b) const { return wrapping_mul(a, b); }
};

}  // namespace scanprim
