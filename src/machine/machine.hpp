// The executable cost semantics of the paper.
//
// A `Machine` evaluates vector programs (the notation of §2.1) while charging
// *program steps* under one of three models:
//
//   Model::EREW — the exclusive-read exclusive-write P-RAM. A scan is not a
//     primitive: it costs the ⌈lg p⌉ steps of the standard two-sweep tree
//     simulation. Broadcasts and combining writes likewise cost ⌈lg p⌉.
//   Model::CRCW — the *extended* CRCW P-RAM of §2.3.3 (concurrent writes
//     combine with minimum / lowest-processor). Broadcasts and combining
//     writes cost one step; scans still cost ⌈lg p⌉.
//   Model::Scan — the paper's scan model: EREW plus unit-time scans.
//
// With p processors and n-element vectors every operation additionally pays
// the ⌈n/p⌉ long-vector factor of §2.5 / Figure 10.
//
// The machine also accumulates *bit cycles* under the bit-serial circuit
// cost model of §3 so that Table 4 (split radix sort vs bitonic sort on a
// 64K-processor bit-serial machine) can be regenerated; see `BitCostModel`.
//
// The actual element values are computed by the core library (src/core), so
// a Machine is also simply a convenient, instrumented front end to the
// parallel vector operations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/ops.hpp"
#include "src/core/primitives.hpp"
#include "src/core/scan.hpp"
#include "src/core/segmented.hpp"

namespace scanprim::machine {

enum class Model { EREW, CRCW, Scan };

std::string to_string(Model m);

/// ⌈lg n⌉ (0 for n <= 1).
constexpr std::uint64_t ceil_lg(std::uint64_t n) {
  std::uint64_t bits = 0;
  while ((std::uint64_t{1} << bits) < n) ++bits;
  return bits;
}

constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0 : (a + b - 1) / b;
}

/// Charges for the bit-serial accounting of Table 4. Cycle counts for a
/// d-bit field on p processors:
///   scan              : d + 2·⌈lg p⌉     (the §3.2 pipelined tree circuit)
///   permute           : router_factor · d·⌈lg p⌉ (routing on a lg-stage net)
///   neighbor exchange : element_factor · d (a dedicated hypercube wire —
///                       what the CM-1's bitonic sort uses per merge stage)
///   element           : element_factor · d (local bit-serial ALU pass)
/// plus `op_overhead` cycles of per-vector-operation dispatch on every
/// charge. `router_factor` = 3 puts a 32-bit permute on 64K processors near
/// the CM's ~600-cycle route (Table 2); `op_overhead` = 60 reproduces the
/// microcode dispatch cost that dominates short operations and lands the
/// Table 4 sorts at the paper's near-parity (~20,000 vs ~19,000 cycles).
struct BitCostModel {
  unsigned field_bits = 32;
  double router_factor = 3.0;
  double element_factor = 1.0;
  double op_overhead = 60.0;
};

struct StepStats {
  std::uint64_t steps = 0;        ///< charged program steps
  std::uint64_t elementwise = 0;  ///< vector-op invocations by kind
  std::uint64_t permutes = 0;
  std::uint64_t scans = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t combines = 0;
  double bit_cycles = 0.0;  ///< bit-serial cycles (Table 4 accounting)
};

class Machine {
 public:
  /// `processors == 0` means "as many processors as vector elements", the
  /// default assumption of §2.1. A fixed count activates the long-vector
  /// charges of §2.5.
  explicit Machine(Model model = Model::Scan, std::size_t processors = 0)
      : model_(model), processors_(processors) {}

  Model model() const { return model_; }
  std::size_t processors() const { return processors_; }
  const StepStats& stats() const { return stats_; }
  void reset_stats() { stats_ = StepStats{}; }
  /// Restore a previously captured snapshot. The compiled-plan engine
  /// (src/plan) uses this to make a region attempt transactional: charges
  /// accumulated by an abandoned compiled region are rolled back before the
  /// region re-runs through the interpreter.
  void set_stats(const StepStats& s) { stats_ = s; }

  BitCostModel& bit_cost() { return bits_; }
  const BitCostModel& bit_cost() const { return bits_; }

  // --- charging (public so algorithm code can charge steps the vector API
  // --- does not capture, e.g. a serial base case) ---------------------------

  /// Processors available to an n-element operation.
  std::uint64_t procs_for(std::size_t n) const {
    return processors_ == 0 ? static_cast<std::uint64_t>(n)
                            : static_cast<std::uint64_t>(processors_);
  }

  /// The long-vector factor ⌈n/p⌉.
  std::uint64_t virt(std::size_t n) const {
    if (n == 0) return 0;
    return ceil_div(n, procs_for(n));
  }

  void charge_elementwise(std::size_t n) {
    if (n == 0) return;
    ++stats_.elementwise;
    stats_.steps += virt(n);
    stats_.bit_cycles += bits_.op_overhead + bits_.element_factor *
                                               bits_.field_bits *
                                               static_cast<double>(virt(n));
  }

  void charge_permute(std::size_t n) {
    if (n == 0) return;
    ++stats_.permutes;
    stats_.steps += virt(n);
    const std::uint64_t p = procs_for(n);
    stats_.bit_cycles += bits_.op_overhead + bits_.router_factor *
                                               bits_.field_bits *
                                               static_cast<double>(ceil_lg(p)) *
                                               static_cast<double>(virt(n));
  }

  /// A fixed-pattern exchange with a direct wire to the partner (the
  /// hypercube links Batcher's bitonic sort rides): one step, d bit cycles,
  /// no routing charge.
  void charge_neighbor_exchange(std::size_t n) {
    if (n == 0) return;
    ++stats_.permutes;
    stats_.steps += virt(n);
    stats_.bit_cycles += bits_.op_overhead + bits_.element_factor *
                                               bits_.field_bits *
                                               static_cast<double>(virt(n));
  }

  void charge_scan(std::size_t n) {
    if (n == 0) return;
    ++stats_.scans;
    const std::uint64_t p = procs_for(n);
    const std::uint64_t local = virt(n) > 0 ? virt(n) - 1 : 0;
    if (model_ == Model::Scan) {
      stats_.steps += local + 1;  // unit-time primitive (+ local pre/post pass)
    } else {
      stats_.steps += local + ceil_lg(p);  // two-sweep tree simulation
    }
    stats_.bit_cycles += bits_.op_overhead +
                         static_cast<double>(local) * bits_.field_bits +
                         bits_.field_bits + 2.0 * static_cast<double>(ceil_lg(p));
  }

  /// Copying one value to all processors (concurrent read in CRCW).
  void charge_broadcast(std::size_t n) {
    if (n == 0) return;
    ++stats_.broadcasts;
    const std::uint64_t p = procs_for(n);
    const std::uint64_t local = virt(n) > 0 ? virt(n) - 1 : 0;
    switch (model_) {
      case Model::CRCW: stats_.steps += local + 1; break;
      case Model::Scan: stats_.steps += local + 1; break;  // copy is a scan
      case Model::EREW: stats_.steps += local + ceil_lg(p); break;
    }
    stats_.bit_cycles += bits_.op_overhead +
                         static_cast<double>(local + 1) * bits_.field_bits +
                         2.0 * static_cast<double>(ceil_lg(p));
  }

  /// Combining many values into one (sum / min / max): a combining
  /// concurrent write in the extended CRCW, a reduction elsewhere.
  void charge_combine(std::size_t n) {
    if (n == 0) return;
    ++stats_.combines;
    const std::uint64_t p = procs_for(n);
    const std::uint64_t local = virt(n) > 0 ? virt(n) - 1 : 0;
    switch (model_) {
      case Model::CRCW: stats_.steps += local + 1; break;
      case Model::Scan: stats_.steps += local + 1; break;  // reduce is a scan
      case Model::EREW: stats_.steps += local + ceil_lg(p); break;
    }
    stats_.bit_cycles += bits_.op_overhead +
                         static_cast<double>(local + 1) * bits_.field_bits +
                         2.0 * static_cast<double>(ceil_lg(p));
  }

  // --- elementwise -----------------------------------------------------------

  template <class U, class T, class Fn>
  std::vector<U> map(std::span<const T> in, Fn fn) {
    charge_elementwise(in.size());
    return mapped<U>(in, fn);
  }

  template <class V, class T, class U, class Fn>
  std::vector<V> zip(std::span<const T> a, std::span<const U> b, Fn fn) {
    charge_elementwise(a.size());
    return zipped<V>(a, b, fn);
  }

  /// [0, 1, ..., n-1]; free of charge the way loading a processor's own
  /// address is on a real machine.
  std::vector<std::size_t> iota(std::size_t n) {
    std::vector<std::size_t> v(n);
    thread::parallel_for(n, [&](std::size_t i) { v[i] = i; });
    return v;
  }

  template <class T>
  std::vector<T> constant(std::size_t n, T value) {
    charge_elementwise(n);
    return std::vector<T>(n, value);
  }

  /// Neighbor access `out[i] = in[i - 1]` (out[0] = boundary): one EREW
  /// permute; used by sortedness checks and segment-boundary detection.
  template <class T>
  std::vector<T> shift_right(std::span<const T> in, T boundary) {
    charge_permute(in.size());
    std::vector<T> out(in.size());
    thread::parallel_for(in.size(), [&](std::size_t i) {
      out[i] = i == 0 ? boundary : in[i - 1];
    });
    return out;
  }

  // --- permute / gather -------------------------------------------------------

  template <class T>
  std::vector<T> permute(std::span<const T> in,
                         std::span<const std::size_t> index) {
    charge_permute(in.size());
    return permuted(in, index);
  }

  /// Permute into a destination of a different length.
  template <class T>
  std::vector<T> permute_into(std::span<const T> in,
                              std::span<const std::size_t> index,
                              std::size_t out_size, T fill = T{}) {
    charge_permute(in.size());
    std::vector<T> out(out_size, fill);
    scanprim::permute(in, index, std::span<T>(out));
    return out;
  }

  template <class T>
  std::vector<T> gather(std::span<const T> in,
                        std::span<const std::size_t> index) {
    charge_permute(index.size());
    return gathered(in, index);
  }

  /// In-place permute: writes `in[i]` to `out[index[i]]`, leaving the other
  /// positions of `out` untouched (an EREW permute whose source vector is
  /// shorter than its destination).
  template <class T>
  void scatter(std::span<const T> in, std::span<const std::size_t> index,
               std::span<T> out) {
    charge_permute(in.size());
    scanprim::permute(in, index, out);
  }

  // --- scans ------------------------------------------------------------------

  template <class T, ScanOperator<T> Op>
  std::vector<T> scan(std::span<const T> in, Op op) {
    charge_scan(in.size());
    std::vector<T> out(in.size());
    exclusive_scan(in, std::span<T>(out), op);
    return out;
  }

  template <class T, ScanOperator<T> Op>
  std::vector<T> backscan(std::span<const T> in, Op op) {
    charge_scan(in.size());
    std::vector<T> out(in.size());
    backward_exclusive_scan(in, std::span<T>(out), op);
    return out;
  }

  template <class T, ScanOperator<T> Op>
  std::vector<T> inclusive(std::span<const T> in, Op op) {
    charge_scan(in.size());
    std::vector<T> out(in.size());
    inclusive_scan(in, std::span<T>(out), op);
    return out;
  }

  template <class T, ScanOperator<T> Op>
  std::vector<T> back_inclusive(std::span<const T> in, Op op) {
    charge_scan(in.size());
    std::vector<T> out(in.size());
    backward_inclusive_scan(in, std::span<T>(out), op);
    return out;
  }

  template <class T>
  std::vector<T> plus_scan(std::span<const T> in) { return scan(in, Plus<T>{}); }
  template <class T>
  std::vector<T> max_scan(std::span<const T> in) { return scan(in, Max<T>{}); }
  template <class T>
  std::vector<T> min_scan(std::span<const T> in) { return scan(in, Min<T>{}); }

  template <class T, ScanOperator<T> Op>
  T reduce(std::span<const T> in, Op op) {
    charge_combine(in.size());
    return scanprim::reduce(in, op);
  }

  // --- segmented scans ---------------------------------------------------------

  template <class T, ScanOperator<T> Op>
  std::vector<T> seg_scan(std::span<const T> in, FlagsView flags, Op op) {
    charge_scan(in.size());
    std::vector<T> out(in.size());
    seg_exclusive_scan(in, flags, std::span<T>(out), op);
    return out;
  }

  template <class T, ScanOperator<T> Op>
  std::vector<T> seg_backscan(std::span<const T> in, FlagsView flags, Op op) {
    charge_scan(in.size());
    std::vector<T> out(in.size());
    seg_backward_exclusive_scan(in, flags, std::span<T>(out), op);
    return out;
  }

  template <class T, ScanOperator<T> Op>
  std::vector<T> seg_inclusive(std::span<const T> in, FlagsView flags, Op op) {
    charge_scan(in.size());
    std::vector<T> out(in.size());
    seg_inclusive_scan(in, flags, std::span<T>(out), op);
    return out;
  }

  template <class T, ScanOperator<T> Op>
  std::vector<T> seg_back_inclusive(std::span<const T> in, FlagsView flags,
                                    Op op) {
    charge_scan(in.size());
    std::vector<T> out(in.size());
    seg_backward_inclusive_scan(in, flags, std::span<T>(out), op);
    return out;
  }

  // --- enumerate / copy / distribute (§2.2) -------------------------------------

  std::vector<std::size_t> enumerate(FlagsView flags) {
    charge_elementwise(flags.size());
    charge_scan(flags.size());
    return scanprim::enumerate(flags);
  }

  std::vector<std::size_t> back_enumerate(FlagsView flags) {
    charge_elementwise(flags.size());
    charge_scan(flags.size());
    return scanprim::back_enumerate(flags);
  }

  std::size_t count_flags(FlagsView flags) {
    charge_combine(flags.size());
    return scanprim::count_flags(flags);
  }

  template <class T>
  std::vector<T> copy(std::span<const T> in) {
    charge_broadcast(in.size());
    return scanprim::copy(in);
  }

  template <class T>
  std::vector<T> seg_copy(std::span<const T> in, FlagsView flags) {
    charge_broadcast(in.size());
    return scanprim::seg_copy(in, flags);
  }

  template <class T, ScanOperator<T> Op>
  std::vector<T> distribute(std::span<const T> in, Op op) {
    charge_combine(in.size());
    charge_broadcast(in.size());
    return scanprim::distribute(in, op);
  }

  template <class T, ScanOperator<T> Op>
  std::vector<T> seg_distribute(std::span<const T> in, FlagsView flags,
                                Op op) {
    charge_combine(in.size());
    charge_broadcast(in.size());
    return scanprim::seg_distribute(in, flags, op);
  }

  // --- split / pack / allocate ---------------------------------------------------

  /// Fig. 3's split_index: flag inversion, enumerate, back-enumerate, select.
  void charge_split_index(std::size_t n) {
    charge_elementwise(n);
    charge_scan(n);
    charge_scan(n);
    charge_elementwise(n);
  }

  std::vector<std::size_t> split_index(FlagsView flags) {
    charge_split_index(flags.size());
    return scanprim::split_index(flags);
  }

  template <class T>
  std::vector<T> split(std::span<const T> in, FlagsView flags) {
    charge_split_index(in.size());
    charge_permute(in.size());
    return scanprim::split(in, flags);
  }

  template <class T>
  std::vector<T> pack(std::span<const T> in, FlagsView flags) {
    charge_scan(in.size());
    charge_combine(in.size());
    charge_permute(in.size());
    return scanprim::pack(in, flags);
  }

  std::vector<std::size_t> pack_index(FlagsView flags) {
    charge_scan(flags.size());
    charge_combine(flags.size());
    charge_permute(flags.size());
    return scanprim::pack_index(flags);
  }

  Allocation allocate(std::span<const std::size_t> sizes) {
    charge_scan(sizes.size());
    charge_combine(sizes.size());
    charge_permute(sizes.size());  // flag placement
    return scanprim::allocate(sizes);
  }

  template <class T>
  std::vector<T> distribute_to_segments(std::span<const T> values,
                                        const Allocation& a) {
    charge_permute(values.size());
    charge_broadcast(a.total);
    return scanprim::distribute_to_segments(values, a);
  }

 private:
  Model model_;
  std::size_t processors_;
  BitCostModel bits_;
  StepStats stats_;
};

}  // namespace scanprim::machine
