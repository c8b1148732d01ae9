// Wall-clock microbenchmarks of the raw scan library on the host machine —
// the practical half of the paper's claim that scans should be treated as
// cheap as memory operations. Compares the library's scans against
// std::inclusive_scan and a plain memory pass, across sizes and flavours,
// and sweeps the chained engine at n = 2^20..2^26 against a sequential
// reference (results also written to BENCH_scan_engine.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <random>

#include "bench/bench_util.hpp"
#include "src/core/primitives.hpp"
#include "src/core/scan.hpp"
#include "src/core/segmented.hpp"
#include "src/core/simd/simd.hpp"

namespace {

using namespace scanprim;

std::vector<std::int64_t> make_input(std::size_t n) {
  std::mt19937_64 g(42);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(g() & 0xffff);
  return v;
}

void BM_MemoryPass(benchmark::State& state) {
  const auto in = make_input(static_cast<std::size_t>(state.range(0)));
  std::vector<std::int64_t> out(in.size());
  for (auto _ : state) {
    std::memcpy(out.data(), in.data(), in.size() * sizeof(in[0]));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * in.size() * sizeof(in[0]));
}
BENCHMARK(BM_MemoryPass)->Range(1 << 10, 1 << 22);

void BM_PlusScan(benchmark::State& state) {
  const auto in = make_input(static_cast<std::size_t>(state.range(0)));
  std::vector<std::int64_t> out(in.size());
  for (auto _ : state) {
    exclusive_scan(std::span<const std::int64_t>(in),
                   std::span<std::int64_t>(out), Plus<std::int64_t>{});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * in.size() * sizeof(in[0]));
}
BENCHMARK(BM_PlusScan)->Range(1 << 10, 1 << 22);

void BM_StdInclusiveScan(benchmark::State& state) {
  const auto in = make_input(static_cast<std::size_t>(state.range(0)));
  std::vector<std::int64_t> out(in.size());
  for (auto _ : state) {
    std::inclusive_scan(in.begin(), in.end(), out.begin());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * in.size() * sizeof(in[0]));
}
BENCHMARK(BM_StdInclusiveScan)->Range(1 << 10, 1 << 22);

void BM_MaxScan(benchmark::State& state) {
  const auto in = make_input(static_cast<std::size_t>(state.range(0)));
  std::vector<std::int64_t> out(in.size());
  for (auto _ : state) {
    exclusive_scan(std::span<const std::int64_t>(in),
                   std::span<std::int64_t>(out), Max<std::int64_t>{});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * in.size() * sizeof(in[0]));
}
BENCHMARK(BM_MaxScan)->Range(1 << 12, 1 << 22);

void BM_SegPlusScan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto in = make_input(n);
  Flags f(n, 0);
  std::mt19937_64 g(7);
  if (n > 0) f[0] = 1;
  for (std::size_t i = 1; i < n; ++i) f[i] = (g() % 16) == 0;
  std::vector<std::int64_t> out(n);
  for (auto _ : state) {
    seg_exclusive_scan(std::span<const std::int64_t>(in), FlagsView(f),
                       std::span<std::int64_t>(out), Plus<std::int64_t>{});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * n * sizeof(in[0]));
}
BENCHMARK(BM_SegPlusScan)->Range(1 << 12, 1 << 22);

void BM_Enumerate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Flags f(n, 0);
  std::mt19937_64 g(9);
  for (auto& x : f) x = g() & 1;
  for (auto _ : state) {
    auto e = enumerate(FlagsView(f));
    benchmark::DoNotOptimize(e.data());
  }
}
BENCHMARK(BM_Enumerate)->Range(1 << 12, 1 << 20);

void BM_Permute(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto in = make_input(n);
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::mt19937_64 g(11);
  std::shuffle(idx.begin(), idx.end(), g);
  std::vector<std::int64_t> out(n);
  for (auto _ : state) {
    permute(std::span<const std::int64_t>(in),
            std::span<const std::size_t>(idx), std::span<std::int64_t>(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * n * sizeof(in[0]));
}
BENCHMARK(BM_Permute)->Range(1 << 12, 1 << 20);

void BM_Split(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto in = make_input(n);
  Flags f(n);
  for (std::size_t i = 0; i < n; ++i) f[i] = in[i] & 1;
  for (auto _ : state) {
    auto s = split(std::span<const std::int64_t>(in), FlagsView(f));
    benchmark::DoNotOptimize(s.data());
  }
}
BENCHMARK(BM_Split)->Range(1 << 12, 1 << 20);

// --- chained engine sweep -------------------------------------------------
// Times each +-scan flavour at n = 2^20..2^26, counts actual pool dispatch
// rounds via ThreadPool::dispatch_count(), checks the result against a
// sequential reference loop, and writes BENCH_scan_engine.json.

struct EngineRow {
  const char* op;
  std::size_t n;
  double ms = 0;
  std::uint64_t dispatches = 0;
  bool match = false;

  // Read + write of the int64 input, per second.
  double gbs() const {
    return ms > 0 ? 2.0 * static_cast<double>(n * sizeof(std::int64_t)) /
                        (ms * 1e6)
                  : 0;
  }
};

// `ref(out)` fills the sequential reference; it is built per row so only
// one reference vector is alive at 2^26.
template <class Ref, class Run>
EngineRow time_engine(const char* op, std::size_t n, int reps, Ref ref,
                      Run run) {
  EngineRow r{op, n};
  std::vector<std::int64_t> out(n);
  // The warmup pass also counts the dispatch rounds the engine needs.
  const std::uint64_t d0 = thread::pool().dispatch_count();
  run(std::span<std::int64_t>(out));
  r.dispatches = thread::pool().dispatch_count() - d0;
  {
    std::vector<std::int64_t> want(n);
    ref(want);
    r.match = out == want;
  }
  r.ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    r.ms = std::min(r.ms, bench::time_once_ms(
                              [&] { run(std::span<std::int64_t>(out)); }));
  }
  return r;
}

void run_engine_sweep(bench::JsonLog& json) {
  bench::header("scan engine: chained (single-pass)");
  std::printf("workers=%zu  tile=%zu  simd=%s\n", thread::num_workers(),
              detail::chained_tile_elements<std::int64_t>(),
              simd::tier_name(simd::active_tier()));
  bench::row({"op", "n", "ms", "rw GB/s", "dispatches", "match"});

  const std::size_t sizes[] = {std::size_t{1} << 20, std::size_t{1} << 22,
                               std::size_t{1} << 24, std::size_t{1} << 26};
  for (const std::size_t n : sizes) {
    const int reps = n >= (std::size_t{1} << 24) ? 5 : 7;
    const auto in = make_input(n);
    const std::span<const std::int64_t> s(in);
    Flags f(n, 0);
    std::mt19937_64 g(7);
    f[0] = 1;
    for (std::size_t i = 1; i < n; ++i) f[i] = (g() % 4096) == 0;

    // Sequential references: plain loops, no library kernel.
    std::vector<EngineRow> rows;
    rows.push_back(time_engine(
        "+-scan", n, reps,
        [&](std::vector<std::int64_t>& want) {
          std::int64_t acc = 0;
          for (std::size_t i = 0; i < n; ++i) {
            want[i] = acc;
            acc += in[i];
          }
        },
        [&](auto out) { exclusive_scan(s, out, Plus<std::int64_t>{}); }));
    rows.push_back(time_engine(
        "+-backscan", n, reps,
        [&](std::vector<std::int64_t>& want) {
          std::int64_t acc = 0;
          for (std::size_t i = n; i-- > 0;) {
            want[i] = acc;
            acc += in[i];
          }
        },
        [&](auto out) {
          backward_exclusive_scan(s, out, Plus<std::int64_t>{});
        }));
    rows.push_back(time_engine(
        "seg-+-scan", n, reps,
        [&](std::vector<std::int64_t>& want) {
          std::int64_t acc = 0;
          for (std::size_t i = 0; i < n; ++i) {
            if (f[i]) acc = 0;
            want[i] = acc;
            acc += in[i];
          }
        },
        [&](auto out) {
          seg_exclusive_scan(s, FlagsView(f), out, Plus<std::int64_t>{});
        }));

    for (const EngineRow& r : rows) {
      bench::row({r.op, bench::fmt_u(r.n), bench::fmt(r.ms, 3),
                  bench::fmt(r.gbs(), 2), bench::fmt_u(r.dispatches),
                  r.match ? "yes" : "NO"});
      json.field("op", r.op)
          .field("n", r.n)
          .field("workers", static_cast<std::uint64_t>(thread::num_workers()))
          .field("simd", simd::tier_name(simd::active_tier()))
          .field("chained_ms", r.ms)
          .field("gbs", r.gbs())
          .field("chained_dispatches", r.dispatches)
          .field("match", r.match)
          .end_object();
    }
  }
}

// --- chained tile-size sweep -------------------------------------------------
// The lookback protocol's one tunable: kChainedTileBytes trades rescan
// locality (small tiles re-read from L1/L2) against per-tile status-word
// traffic and lookback depth (large tiles amortise the protocol). This
// sweep runs the real p>1 configuration — SIMD tile kernels under the
// lookback protocol on the full worker pool — across tile sizes, verifying
// each result against the library scan. Rows land in BENCH_scan_engine.json
// (op = "tile-sweep") next to the engine rows they explain.

void run_tile_sweep(bench::JsonLog& json) {
  bench::header("chained tile sweep: SIMD x lookback on the worker pool");
  std::printf("workers=%zu  simd=%s  current tile=%zu KiB\n",
              thread::num_workers(), simd::tier_name(simd::active_tier()),
              detail::kChainedTileBytes / 1024);
  bench::row({"tile KiB", "n", "ms", "GB/s", "vs current", "match"});

  const std::size_t sizes[] = {std::size_t{1} << 22, std::size_t{1} << 24,
                               std::size_t{1} << 26};
  const std::size_t tile_bytes[] = {8u << 10,   16u << 10, 32u << 10,
                                    64u << 10,  128u << 10, 256u << 10,
                                    512u << 10};
  for (const std::size_t n : sizes) {
    const int reps = n >= (std::size_t{1} << 26) ? 5 : 7;
    const auto in = make_input(n);
    const std::span<const std::int64_t> s(in);
    std::vector<std::int64_t> out(n), ref(n);
    exclusive_scan(s, std::span<std::int64_t>(ref), Plus<std::int64_t>{});

    double current_ms = 0;
    std::vector<std::pair<std::size_t, double>> timings;
    for (const std::size_t tb : tile_bytes) {
      const std::size_t tile = tb / sizeof(std::int64_t);
      const auto run = [&] {
        detail::chained_scan_run<std::int64_t>(
            n, tile, /*backward=*/false, std::int64_t{0},
            Plus<std::int64_t>{},
            [&](std::size_t, std::size_t b, std::size_t c, std::int64_t* agg) {
              *agg = detail::sequential_reduce(s.subspan(b, c),
                                               Plus<std::int64_t>{});
              return false;
            },
            [&](std::size_t, std::size_t b, std::size_t c, std::int64_t carry) {
              detail::sequential_exclusive_scan(
                  s.subspan(b, c),
                  std::span<std::int64_t>(out).subspan(b, c),
                  Plus<std::int64_t>{}, carry);
            });
      };
      run();  // warmup + correctness
      const bool match = out == ref;
      double ms = 1e300;
      for (int i = 0; i < reps; ++i) ms = std::min(ms, bench::time_once_ms(run));
      if (tb == detail::kChainedTileBytes) current_ms = ms;
      timings.emplace_back(tb, ms);
      if (!match) {
        bench::row({bench::fmt_u(tb / 1024), bench::fmt_u(n), bench::fmt(ms, 3),
                    "-", "-", "NO"});
        continue;
      }
      json.field("op", "tile-sweep")
          .field("n", n)
          .field("tile_bytes", tb)
          .field("workers", static_cast<std::uint64_t>(thread::num_workers()))
          .field("simd", simd::tier_name(simd::active_tier()))
          .field("chained_ms", ms)
          .field("match", match)
          .end_object();
    }
    for (const auto& [tb, ms] : timings) {
      const double gbs =
          static_cast<double>(n * sizeof(std::int64_t)) / (ms * 1e6);
      bench::row({bench::fmt_u(tb / 1024), bench::fmt_u(n), bench::fmt(ms, 3),
                  bench::fmt(gbs, 2),
                  current_ms > 0 ? bench::fmt(ms / current_ms, 2) : "-",
                  "yes"});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonLog json;
  run_engine_sweep(json);
  run_tile_sweep(json);
  if (!json.write("BENCH_scan_engine.json")) {
    std::fprintf(stderr, "failed to write BENCH_scan_engine.json\n");
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
