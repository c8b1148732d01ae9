// Fused vs eager pipeline execution (docs/PIPELINE.md): the same recorded
// programs run through the fusing executor and through an op-by-op plan
// (Executor::Options{.fuse = false}), at n = 2^20 .. 2^24. The fused plan
// must win by cutting passes over memory: a map | +-scan | map chain is one
// chained pass fused versus one-plus per stage eager. A second table times
// split on the blocked split kernel against a +-scan of the same n (ROADMAP
// bound: split <= 4x +-scan). A third times the fused scan groups on the
// chained (single-pass) engine and checks them against sequential
// reference loops.
//
// Results go to stdout as a table and to BENCH_pipeline.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/primitives.hpp"
#include "src/exec/executor.hpp"

namespace scanprim {
namespace {

using U = std::uint32_t;
using bench::best_of_ms;

struct Row {
  const char* workload;
  std::size_t n;
  double fused_ms = 0;
  double eager_ms = 0;
  std::uint64_t fused_dispatches = 0;
  std::uint64_t eager_dispatches = 0;
  bool match = false;

  double speedup() const { return fused_ms > 0 ? eager_ms / fused_ms : 0; }
};

// Time one recorded program under both plans and check the outputs agree.
template <class Build>
Row compare(const char* workload, std::size_t n, int reps, Build build) {
  Row r{workload, n};
  exec::Executor fused;
  exec::Executor eager{exec::Executor::Options{.fuse = false}};
  r.match = fused.run(build()) == eager.run(build());
  r.fused_dispatches = fused.stats().pool_dispatches;
  r.eager_dispatches = eager.stats().pool_dispatches;
  r.fused_ms = best_of_ms(reps, [&] { fused.run(build()); });
  r.eager_ms = best_of_ms(reps, [&] { eager.run(build()); });
  return r;
}

}  // namespace
}  // namespace scanprim

int main() {
  using namespace scanprim;
  bench::header("pipeline executor: fused vs eager (op-by-op) plans");
  bench::row({"workload", "n", "fused ms", "eager ms", "speedup",
              "disp f/e", "match"});

  bench::JsonLog json;
  bool all_match = true;
  const std::size_t sizes[] = {std::size_t{1} << 20, std::size_t{1} << 22,
                               std::size_t{1} << 24};
  for (const std::size_t n : sizes) {
    const int reps = n >= (std::size_t{1} << 24) ? 3 : 5;
    const auto in = bench::random_keys<U>(n, 7 + n, 1u << 20);
    const auto keep = bench::random_keys<std::uint8_t>(n, 11 + n, 2);
    const std::span<const U> s(in);
    const FlagsView kv(keep);

    std::vector<Row> rows;
    // The acceptance workload: map -> +-scan -> map.
    rows.push_back(compare("map_scan_map", n, reps, [&] {
      return exec::source(s) | exec::map([](U v) { return v + 3; }) |
             exec::scan<Plus>() | exec::map([](U v) { return 2 * v; });
    }));
    // Scan feeding a pack (quicksort's rank-then-compact shape).
    rows.push_back(compare("scan_pack", n, reps, [&] {
      return exec::source(s) | exec::scan<Plus>() | exec::pack(kv);
    }));
    // Backward scan with fused arithmetic (split's up-enumerate shape).
    rows.push_back(compare("map_backscan_map", n, reps, [&] {
      return exec::source(s) | exec::map([](U v) { return v & 1; }) |
             exec::backscan<Plus>() | exec::map([](U v) { return v ^ 5; });
    }));

    for (const Row& r : rows) {
      all_match = all_match && r.match;
      bench::row({r.workload, bench::fmt_u(r.n), bench::fmt(r.fused_ms, 3),
                  bench::fmt(r.eager_ms, 3), bench::fmt(r.speedup(), 2),
                  bench::fmt_u(r.fused_dispatches) + "/" +
                      bench::fmt_u(r.eager_dispatches),
                  r.match ? "yes" : "NO"});
      json.field("workload", r.workload)
          .field("n", r.n)
          .field("fused_ms", r.fused_ms)
          .field("eager_ms", r.eager_ms)
          .field("speedup", r.speedup())
          .field("fused_dispatches", r.fused_dispatches)
          .field("eager_dispatches", r.eager_dispatches)
          .field("match", r.match)
          .end_object();
    }
  }

  // split (Fig. 3) on the blocked split kernel against one +-scan of the
  // same n: the paper charges split O(1) scans, so its wall-clock should be
  // a small multiple of a scan's. Both write into preallocated buffers; the
  // output is checked against a sequential stable partition.
  bench::header("split: blocked kernel vs +-scan");
  bench::row({"n", "split ms", "+-scan ms", "ratio", "match"});
  double worst_ratio = 0;
  for (const std::size_t n : sizes) {
    const int reps = n >= (std::size_t{1} << 24) ? 3 : 5;
    const auto in = bench::random_keys<U>(n, 13 + n, 1u << 20);
    const auto flags = bench::random_keys<std::uint8_t>(n, 17 + n, 2);
    const std::span<const U> s(in);
    const FlagsView fv(flags);
    std::vector<U> expect;
    expect.reserve(n);
    for (const std::uint8_t side : {0, 1}) {
      for (std::size_t i = 0; i < n; ++i) {
        if (flags[i] == side) expect.push_back(in[i]);
      }
    }
    std::vector<U> out(n);
    split_into(s, fv, std::span<U>(out));
    const bool match = out == expect;
    all_match = all_match && match;
    const double split_ms =
        best_of_ms(reps, [&] { split_into(s, fv, std::span<U>(out)); });
    const double scan_ms = best_of_ms(reps, [&] {
      exclusive_scan(s, std::span<U>(out), Plus<U>{});
    });
    const double ratio = split_ms / scan_ms;
    worst_ratio = std::max(worst_ratio, ratio);
    bench::row({bench::fmt_u(n), bench::fmt(split_ms, 3),
                bench::fmt(scan_ms, 3), bench::fmt(ratio, 2),
                match ? "yes" : "NO"});
    json.field("workload", "split")
        .field("n", n)
        .field("split_ms", split_ms)
        .field("scan_ms", scan_ms)
        .field("split_scan_ratio", ratio)
        .field("match", match)
        .end_object();
  }
  std::printf(
      "acceptance: split <= 4x +-scan at 2^20..2^24: %s (worst %.2fx)\n",
      worst_ratio <= 4.0 ? "met" : "MISSED", worst_ratio);

  // Fused scan groups on the chained engine: one dispatch and ~2n traffic
  // per group, checked against a sequential loop of the same program.
  bench::header("fused scan groups: chained engine");
  bench::row({"workload", "n", "chained ms", "rw GB/s", "dispatches", "match"});
  for (const std::size_t n : sizes) {
    const int reps = n >= (std::size_t{1} << 24) ? 3 : 5;
    const auto in = bench::random_keys<U>(n, 7 + n, 1u << 20);
    const std::span<const U> s(in);
    std::vector<U> fwd(n), bwd(n);
    U acc = 0;
    for (std::size_t i = 0; i < n; ++i) {  // map | +-scan | map
      fwd[i] = 2 * acc;
      acc += in[i] + 3;
    }
    acc = 0;
    for (std::size_t i = n; i-- > 0;) {  // map | +-backscan | map
      bwd[i] = acc ^ 5;
      acc += in[i] & 1;
    }
    const auto workloads = {
        std::tuple{"map_scan_map", &fwd, +[](std::span<const U> v) {
          return exec::source(v) | exec::map([](U x) { return x + 3; }) |
                 exec::scan<Plus>() | exec::map([](U x) { return 2 * x; });
        }},
        std::tuple{"map_backscan_map", &bwd, +[](std::span<const U> v) {
          return exec::source(v) | exec::map([](U x) { return x & 1; }) |
                 exec::backscan<Plus>() | exec::map([](U x) { return x ^ 5; });
        }},
    };
    for (const auto& [name, ref, build] : workloads) {
      exec::Executor ex;
      const bool match = ex.run(build(s)) == *ref;
      const std::uint64_t disp = ex.stats().pool_dispatches;
      const double ms = best_of_ms(reps, [&] { ex.run(build(s)); });
      const double gbs = 2.0 * static_cast<double>(n * sizeof(U)) / (ms * 1e6);
      all_match = all_match && match;
      bench::row({name, bench::fmt_u(n), bench::fmt(ms, 3), bench::fmt(gbs, 2),
                  bench::fmt_u(disp), match ? "yes" : "NO"});
      json.field("workload", std::string("engine_") + name)
          .field("n", n)
          .field("chained_ms", ms)
          .field("gbs", gbs)
          .field("chained_dispatches", disp)
          .field("match", match)
          .end_object();
    }
  }

  if (!json.write("BENCH_pipeline.json")) {
    std::fprintf(stderr, "failed to write BENCH_pipeline.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_pipeline.json\n");
  return all_match ? 0 : 1;
}
