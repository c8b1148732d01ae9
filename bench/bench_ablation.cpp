// Ablations of the design choices DESIGN.md calls out:
//   1. segmented scans: direct carry-resetting kernels vs the §3.4
//      two-primitive simulation (the paper claims both are viable; the
//      direct form is the fast path, the simulation the portability story);
//   2. quicksort pivots: first-element vs random (the paper suggests both);
//   3. list ranking: Wyllie vs the work-efficient contraction, wall clock
//      (the serial host feels the Θ(n lg n) vs Θ(n) work directly);
//   4. scan backends: the library scan vs the two-sweep tree (§3.1).
#include <algorithm>
#include <chrono>
#include <numeric>
#include <random>

#include "bench_util.hpp"
#include "src/algo/list_rank.hpp"
#include "src/algo/quicksort.hpp"
#include "src/algo/radix_sort.hpp"
#include "src/circuit/tree_scan.hpp"
#include "src/core/simulate.hpp"

using namespace scanprim;
using Clock = std::chrono::steady_clock;

namespace {

double ms_of(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  // ---- 1. direct vs simulated segmented scans ---------------------------------
  bench::header("Ablation / segmented +-scan: direct kernel vs section 3.4 "
                "simulation");
  bench::row({"n", "direct ms", "simulated ms", "ratio"});
  std::mt19937_64 rng(42);
  for (std::size_t lg = 14; lg <= 22; lg += 2) {
    const std::size_t n = std::size_t{1} << lg;
    std::vector<std::uint32_t> v(n);
    Flags f(n, 0);
    f[0] = 1;
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::uint32_t>(rng() % 1000);
      if (i > 0) f[i] = (rng() % 9) == 0;
    }
    std::vector<std::uint32_t> out(n);
    const auto t0 = Clock::now();
    for (int rep = 0; rep < 5; ++rep) {
      seg_exclusive_scan(std::span<const std::uint32_t>(v), FlagsView(f),
                         std::span<std::uint32_t>(out), Plus<std::uint32_t>{});
    }
    const double direct = ms_of(t0) / 5;
    const auto t1 = Clock::now();
    for (int rep = 0; rep < 5; ++rep) {
      auto sim_out = sim::seg_plus_scan(std::span<const std::uint32_t>(v),
                                        FlagsView(f));
      if (sim_out != out) return 1;  // the two must agree
    }
    const double simulated = ms_of(t1) / 5;
    bench::row({bench::fmt_u(n), bench::fmt(direct, 2),
                bench::fmt(simulated, 2), bench::fmt(simulated / direct, 1)});
  }
  std::printf("(the simulation costs a few primitive scans plus bit surgery\n"
              " per segmented scan — constant factor, as section 3.4 says)\n");

  // ---- 2. quicksort pivot rules -------------------------------------------------
  // n is kept small here: first-element pivots degenerate to Θ(#distinct
  // values) iterations on the organ-pipe input — which is the point.
  bench::header("Ablation / quicksort pivots: first element vs random");
  bench::row({"input", "first iters", "random iters"});
  {
    machine::Machine m;
    const std::size_t n = 1 << 10;
    std::vector<double> uniform(n), organ(n), sawtooth(n);
    for (std::size_t i = 0; i < n; ++i) {
      uniform[i] = static_cast<double>(rng() % 1000000);
      organ[i] = static_cast<double>(i < n / 2 ? i : n - i);
      sawtooth[i] = static_cast<double>(i % 17);
    }
    for (const auto& [name, keys] :
         {std::pair<const char*, std::vector<double>*>{"uniform", &uniform},
          {"organ pipe", &organ},
          {"sawtooth", &sawtooth}}) {
      const auto a = algo::quicksort(m, std::span<const double>(*keys),
                                     algo::PivotRule::First);
      const auto b = algo::quicksort(m, std::span<const double>(*keys),
                                     algo::PivotRule::Random);
      bench::row({name, bench::fmt_u(a.iterations), bench::fmt_u(b.iterations)});
    }
  }

  // ---- 3. list ranking work -----------------------------------------------------
  bench::header("Ablation / list ranking wall clock: Wyllie vs contraction");
  bench::row({"n", "wyllie ms", "contraction ms", "wyl/con"});
  for (std::size_t lg = 14; lg <= 20; lg += 2) {
    const std::size_t n = std::size_t{1} << lg;
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::shuffle(perm.begin(), perm.end(), rng);
    std::vector<std::size_t> next(n);
    for (std::size_t i = 0; i + 1 < n; ++i) next[perm[i]] = perm[i + 1];
    next[perm[n - 1]] = perm[n - 1];
    machine::Machine m;
    const auto t0 = Clock::now();
    const auto a = algo::list_rank_wyllie(m, std::span<const std::size_t>(next));
    const double tw = ms_of(t0);
    const auto t1 = Clock::now();
    const auto b =
        algo::list_rank_contract(m, std::span<const std::size_t>(next), 7);
    const double tc = ms_of(t1);
    if (a != b) return 1;
    bench::row({bench::fmt_u(n), bench::fmt(tw, 1), bench::fmt(tc, 1),
                bench::fmt(tw / tc, 2)});
  }
  std::printf("(the host executes total work: the wyllie/contract ratio\n"
              " climbs with lg n — Θ(n lg n) vs Θ(n) — though contraction's\n"
              " larger constant keeps the absolute crossover beyond this\n"
              " sweep on a serial host)\n");

  // ---- 3b. radix sort digit width ------------------------------------------------
  bench::header("Ablation / split radix sort digit width (n = 65536, 16-bit "
                "keys, bit cycles)");
  bench::row({"digit bits", "passes", "bit cycles", "vs 1-bit"});
  {
    const auto keys =
        bench::random_keys<std::uint64_t>(1 << 16, 99, std::uint64_t{1} << 16);
    double base = 0;
    for (const unsigned r : {1u, 2u, 4u, 8u}) {
      machine::Machine m;
      m.bit_cost().field_bits = 16;
      algo::split_radix_sort_digits(m, std::span<const std::uint64_t>(keys),
                                    16, r);
      if (r == 1) base = m.stats().bit_cycles;
      bench::row({bench::fmt_u(r), bench::fmt_u(16 / r),
                  bench::fmt(m.stats().bit_cycles, 0),
                  bench::fmt(m.stats().bit_cycles / base, 2)});
    }
    std::printf("(wider digits trade routed permutes — the expensive op —\n"
                " for extra scans per pass; the sweet spot sits where the\n"
                " 2^r scans cost about one route)\n");
  }

  // ---- 4. scan backends -----------------------------------------------------------
  bench::header("Ablation / scan backends: library scan vs two-sweep tree");
  bench::row({"n", "library ms", "tree ms", "tree/library"});
  for (std::size_t lg = 16; lg <= 22; lg += 2) {
    const std::size_t n = std::size_t{1} << lg;
    std::vector<long> v(n), out(n);
    for (auto& x : v) x = static_cast<long>(rng() % 1000);
    const auto t0 = Clock::now();
    for (int rep = 0; rep < 5; ++rep) {
      exclusive_scan(std::span<const long>(v), std::span<long>(out),
                     Plus<long>{});
    }
    const double library = ms_of(t0) / 5;
    std::vector<long> out2(n);
    const auto t1 = Clock::now();
    for (int rep = 0; rep < 5; ++rep) {
      circuit::tree_scan(std::span<const long>(v), std::span<long>(out2),
                         Plus<long>{});
    }
    const double tree = ms_of(t1) / 5;
    if (out != out2) return 1;
    bench::row({bench::fmt_u(n), bench::fmt(library, 2), bench::fmt(tree, 2),
                bench::fmt(tree / library, 1)});
  }
  std::printf("(the tree does 2n operator applications and strided traffic —\n"
              " right for hardware, wrong for a cached CPU; the chained scan\n"
              " is the library's fast path)\n");
  return 0;
}
