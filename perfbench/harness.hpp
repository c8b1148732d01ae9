// Measurement plumbing for the benchmark: per-op records, fixed windows,
// process and host counters, and the in-memory span recorder of the traced
// run (written out as Chrome-trace JSON when the run ends).
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One finished operation as the closed loop saw it.
struct OpRecord {
  std::int64_t t0 = 0;  ///< submitted
  std::int64_t t1 = 0;  ///< completion observed and checked
  bool ok = false;      ///< right status and right output
};

/// Every op one load thread finished, warm-up and drain included, and how
/// many of them failed.
struct Recorder {
  std::vector<OpRecord> ops;
  std::uint64_t failed = 0;
  void add(std::int64_t t0, std::int64_t t1, bool ok) {
    ops.push_back({t0, t1, ok});
    if (!ok) ++failed;
  }
};

// --- process and host counters -------------------------------------------

/// user+sys CPU of this process, ns.
inline std::int64_t self_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

inline std::int64_t self_invol_cs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nivcsw;
}

/// user+sys CPU of another process from /proc/<pid>/stat, ns (0 if gone).
inline std::int64_t pid_cpu_ns(int pid) {
  if (pid <= 0) return 0;
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(f, line)) return 0;
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(line.substr(close + 2));
  std::string field;
  std::int64_t utime = 0, stime = 0;
  // Fields after "(comm)": state is field 3; utime and stime are 14 and 15.
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14) utime = std::stoll(field);
    if (i == 15) stime = std::stoll(field);
  }
  static const long hz = sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1000000000 / hz);
}

/// Aggregate CPU tick counters from the first line of /proc/stat.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  static HostTicks read() {
    HostTicks t;
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    // user nice system idle iowait irq softirq steal (guest is in user).
    for (int i = 0; i < 8; ++i) {
      std::uint64_t v = 0;
      if (!(f >> v)) break;
      t.total += v;
      if (i == 7) t.steal = v;
    }
    return t;
  }
};

/// Hypervisor steal and involuntary context switches over one phase: the
/// host-noise record printed beside every run's metrics.
struct HostNoise {
  HostTicks ticks0{};
  std::int64_t cs0 = 0, t0 = 0;
  double steal_pct = 0, invol_cs_per_s = 0;
  void start() {
    ticks0 = HostTicks::read();
    cs0 = self_invol_cs();
    t0 = now_ns();
  }
  void stop() {
    const HostTicks t = HostTicks::read();
    const double dt = static_cast<double>(t.total - ticks0.total);
    steal_pct = dt > 0 ? 100.0 * static_cast<double>(t.steal - ticks0.steal) / dt
                       : 0.0;
    const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
    invol_cs_per_s =
        secs > 0 ? static_cast<double>(self_invol_cs() - cs0) / secs : 0.0;
  }
};

// --- statistics ----------------------------------------------------------

/// Nearest-rank quantile of a sorted sample (q in [0, 1]).
inline double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The tail every workload reports: p90. p99 moves with hypervisor steal
/// far more than any program change a run could show, and the sort
/// workload has too few ops per run to hold one.
inline constexpr double kTailQuantile = 0.90;

/// What one measured phase of a closed loop delivered.
struct PhaseResult {
  double throughput_rps = 0;  ///< median over kept windows of correct ops/s
  double p50_ms = 0;
  double tail_ms = 0;         ///< kTailQuantile
  double cpu_ms_per_op = 0;   ///< median over kept windows of CPU ms / op
  double ops = 0;             ///< correct ops completed in the whole phase
  std::size_t samples = 0;    ///< latency samples in the kept windows
                              ///< (failed ops count as +inf)
  std::size_t windows = 0;    ///< windows measured
  std::size_t kept = 0;       ///< windows the statistics were taken over
};

/// How a phase turns its records into numbers.
struct PhaseSpec {
  std::int64_t start = 0;
  std::int64_t window_ns = 0;
  std::size_t windows = 0;
  /// Latency quantiles per window, then the median across the kept
  /// windows; otherwise quantiles over every sample of the kept windows,
  /// for workloads with too few ops per window to hold a tail.
  bool windowed_latency = true;
};

/// A window counts as clean when the hypervisor stole at most this share
/// of the host's CPU time during it.
inline constexpr double kCleanStealPct = 1.0;

/// The windows the statistics are taken over: every clean one, or, when
/// fewer than a quarter of the windows are clean, the quarter with the
/// least steal. Steal comes in episodes that can cover most of a run; this
/// keeps an episode from standing in for the program.
inline std::vector<std::size_t> kept_windows(const std::vector<double>& steal) {
  std::vector<std::size_t> idx(steal.size());
  for (std::size_t w = 0; w < idx.size(); ++w) idx[w] = w;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  std::size_t n = std::max<std::size_t>(1, steal.size() / 4);
  while (n < idx.size() && steal[idx[n]] <= kCleanStealPct) ++n;
  idx.resize(std::min(n, idx.size()));
  return idx;
}

/// `cpu_ns[k]` and `ticks[k]` are cumulative CPU and host ticks at window
/// boundary k (windows + 1 entries each).
inline PhaseResult summarize(const PhaseSpec& spec,
                             const std::vector<const Recorder*>& recs,
                             const std::vector<std::int64_t>& cpu_ns,
                             const std::vector<HostTicks>& ticks) {
  const std::int64_t end =
      spec.start + spec.window_ns * static_cast<std::int64_t>(spec.windows);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> done(spec.windows, 0.0);
  std::vector<std::vector<double>> lat(spec.windows);
  for (const Recorder* r : recs) {
    for (const OpRecord& op : r->ops) {
      if (op.t1 <= spec.start || op.t0 >= end) continue;
      // A correct op counts towards each window in proportion to the share
      // of its lifetime that falls there, so long ops (a 60 ms sort) do not
      // quantise the window rate.
      if (op.ok) {
        const double life =
            static_cast<double>(std::max<std::int64_t>(1, op.t1 - op.t0));
        const std::int64_t lo = std::max(op.t0, spec.start) - spec.start;
        const std::int64_t hi = std::min(op.t1, end) - spec.start;
        for (std::int64_t w = lo / spec.window_ns; w * spec.window_ns < hi;
             ++w) {
          const std::int64_t ws = w * spec.window_ns;
          const std::int64_t ov =
              std::min(hi, ws + spec.window_ns) - std::max(lo, ws);
          if (ov > 0) done[w] += static_cast<double>(ov) / life;
        }
      }
      if (op.t1 > end) continue;
      const auto w =
          static_cast<std::size_t>((op.t1 - spec.start - 1) / spec.window_ns);
      lat[w].push_back(op.ok ? static_cast<double>(op.t1 - op.t0) * 1e-6
                             : inf);
    }
  }

  PhaseResult out;
  const double wsec = static_cast<double>(spec.window_ns) * 1e-9;
  std::vector<double> steal(spec.windows);
  for (std::size_t w = 0; w < spec.windows; ++w) {
    out.ops += done[w];
    const double dt = static_cast<double>(ticks[w + 1].total - ticks[w].total);
    steal[w] = dt > 0 ? 100.0 *
                            static_cast<double>(ticks[w + 1].steal -
                                                ticks[w].steal) /
                            dt
                      : 0.0;
  }
  const std::vector<std::size_t> keep = kept_windows(steal);
  std::vector<double> rps, cpu, p50, tail, pooled;
  for (std::size_t w : keep) {
    rps.push_back(done[w] / wsec);
    const double c = static_cast<double>(cpu_ns[w + 1] - cpu_ns[w]) * 1e-6;
    if (done[w] > 0) cpu.push_back(c / done[w]);
    auto& l = lat[w];
    out.samples += l.size();
    if (!spec.windowed_latency) {
      pooled.insert(pooled.end(), l.begin(), l.end());
    } else if (!l.empty()) {
      std::sort(l.begin(), l.end());
      p50.push_back(quantile_sorted(l, 0.5));
      tail.push_back(quantile_sorted(l, kTailQuantile));
    }
  }
  if (!pooled.empty()) {
    std::sort(pooled.begin(), pooled.end());
    p50.push_back(quantile_sorted(pooled, 0.5));
    tail.push_back(quantile_sorted(pooled, kTailQuantile));
  }
  out.throughput_rps = median(rps);
  out.cpu_ms_per_op = median(cpu);
  out.p50_ms = median(p50);
  out.tail_ms = median(tail);
  out.windows = spec.windows;
  out.kept = keep.size();
  return out;
}

// --- spans ---------------------------------------------------------------

/// One timed call into a public entry point of a layer.
struct Span {
  const char* name = "";
  const char* parent = "";  ///< name of the span that caused it ("" = root)
  std::uint64_t id = 0;     ///< request id shared by one request's spans
  std::int64_t t0 = 0, t1 = 0;
};

/// Spans of one thread, kept in memory in a ring: once full, each new span
/// overwrites the oldest, so recording costs the same for the whole traced
/// phase and the file holds its most recent spans.
struct SpanLog {
  static constexpr std::size_t kCap = 20000;  // per thread; bounds the file
  std::vector<Span> spans;
  std::uint64_t recorded = 0;
  std::uint32_t tid = 0;
  bool on = false;
  void add(const char* name, const char* parent, std::uint64_t id,
           std::int64_t t0, std::int64_t t1) {
    if (!on) return;
    const Span s{name, parent, id, t0, t1};
    if (spans.size() < kCap) {
      spans.push_back(s);
    } else {
      spans[recorded % kCap] = s;
    }
    ++recorded;
  }
};

/// Every thread's span log, written as one Chrome-trace JSON file.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  SpanLog& log() {
    std::lock_guard<std::mutex> lk(mu_);
    logs_.emplace_back(new SpanLog);
    logs_.back()->tid = static_cast<std::uint32_t>(logs_.size());
    logs_.back()->on = on_;
    if (on_) logs_.back()->spans.reserve(SpanLog::kCap);
    return *logs_.back();
  }

  std::uint64_t span_count() const {
    std::uint64_t n = 0;
    for (const auto& l : logs_) n += l->recorded;
    return n;
  }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool write(const std::string& path, std::int64_t origin) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    bool first = true;
    for (const auto& l : logs_) {
      for (const Span& s : l->spans) {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu,"
                     "\"parent\":\"%s\"}}",
                     first ? "" : ",\n", s.name, l->tid,
                     static_cast<double>(s.t0 - origin) * 1e-3,
                     static_cast<double>(s.t1 - s.t0) * 1e-3,
                     static_cast<unsigned long long>(s.id), s.parent);
        first = false;
      }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

}  // namespace perfbench
