// The benchmark's load generator and measurement binary (perfbench/DESIGN.md).
//
//   scanbench --workload W --seed N --seconds S --trace 0|1 [--trace-out F]
//       One run of workload W. Prints a host-noise line, then one JSON line
//       of metrics: the end-to-end metrics (set-up excepted, which run.py
//       measures in fresh processes) with --trace 0, the per-layer metrics
//       with --trace 1.
//   scanbench --setup-probe W --seed N
//       One cold set-up of W in this fresh process; prints its seconds.
//   scanbench --stream-hash W --seed N
//       Prints the FNV-1a hash of W's request stream for that seed.
//   scanbench --self-test
//       The benchmark's own checks: oracle vs corrupted responses, stream
//       determinism.
//
// Every workload is a closed loop that enters the stack only through public
// entry points: net::Client, serve::Service::submit,
// shard::Coordinator::submit and algo::split_radix_sort.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "src/algo/radix_sort.hpp"
#include "src/core/ops.hpp"
#include "src/core/scan.hpp"
#include "src/core/segmented.hpp"
#include "src/machine/machine.hpp"
#include "src/mem/mem.hpp"
#include "src/net/client.hpp"
#include "src/net/server.hpp"
#include "src/plan/plan.hpp"
#include "src/serve/service.hpp"
#include "src/shard/shard.hpp"
#include "src/thread/thread_pool.hpp"
#include "src/vm/assembler.hpp"
#include "stream.hpp"

namespace perfbench {
namespace {

using namespace scanprim;

// --- fixed workload shape ------------------------------------------------

enum class Workload { kNetLatency, kServeBulk, kShardBulk, kLibSort };
constexpr const char* kWorkloadNames[] = {"net_latency", "serve_bulk",
                                          "shard_bulk", "lib_sort"};

std::optional<Workload> parse_workload(const std::string& s) {
  for (int i = 0; i < 4; ++i) {
    if (s == kWorkloadNames[i]) return static_cast<Workload>(i);
  }
  return std::nullopt;
}

constexpr std::size_t kNetConnections = 2;
constexpr std::size_t kNetInFlight = 16;  // per connection
constexpr std::size_t kBulkSubmitters = 2;
constexpr std::size_t kBulkInFlight = 32;  // per submitter
constexpr std::size_t kSortKeys = std::size_t{1} << 18;
constexpr unsigned kSortBits = 16;
constexpr std::size_t kSortKeySets = 4;
/// Program steps one split pass charges under Model::Scan: the bit
/// extraction, flag inversion, enumerate, back-enumerate, select and
/// permute — O(1) per bit, the paper's headline count.
constexpr std::uint64_t kStepsPerBit = 6;

// Pools large enough that the request mix barely moves from seed to seed.
constexpr std::size_t kNetPool = 4096;
constexpr std::size_t kBulkPool = 1024;

constexpr double kWarmupS = 1.0;
constexpr double kWindowS = 0.5;
constexpr double kLegS = 1.5;  // traced run: legs of the other workloads

// Generator purposes (independent streams per seed).
constexpr std::uint64_t kPurposeNet = 1;
constexpr std::uint64_t kPurposeBulk = 2;
constexpr std::uint64_t kPurposeSort = 3;

// --- inputs built from the seed -------------------------------------------

struct SortSet {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> sorted;  ///< std::sort reference
};

struct Inputs {
  std::uint64_t seed = 0;
  std::vector<Request> net, bulk;
  std::vector<SortSet> sorts;

  explicit Inputs(std::uint64_t s) : seed(s) {}

  const std::vector<Request>& net_pool() {
    if (net.empty()) {
      net = make_pool(seed, kPurposeNet, kNetPool, make_latency_request);
    }
    return net;
  }
  const std::vector<Request>& bulk_pool() {
    if (bulk.empty()) {
      bulk = make_pool(seed, kPurposeBulk, kBulkPool, make_bulk_request);
    }
    return bulk;
  }
  const std::vector<SortSet>& sort_sets() {
    if (sorts.empty()) {
      Rng g(derive(seed, kPurposeSort));
      for (std::size_t s = 0; s < kSortKeySets; ++s) {
        SortSet set;
        set.keys.resize(kSortKeys);
        for (auto& k : set.keys) k = g.below(std::uint64_t{1} << kSortBits);
        set.sorted = set.keys;
        std::sort(set.sorted.begin(), set.sorted.end());
        sorts.push_back(std::move(set));
      }
    }
    return sorts;
  }
};

// --- the systems under test -------------------------------------------------

serve::ScanJob to_scan_job(const Request& r) {
  serve::ScanJob job;
  job.data = r.data;
  job.op = r.op;
  job.inclusive = r.inclusive;
  job.backward = r.backward;
  job.flags = r.flags;
  return job;
}

net::ScanOp to_net_op(ScanOp op) {
  return static_cast<net::ScanOp>(static_cast<std::uint8_t>(op));
}

/// Sends one pooled request over a client on the latency lane.
std::future<net::Response> send(net::Client& c, const Request& r) {
  net::RequestOptions ro;
  ro.priority = net::Priority::kLatency;
  switch (r.kind) {
    case Kind::kScan:
      return c.scan(r.data, to_net_op(r.op), r.inclusive, r.backward, r.flags,
                    ro);
    case Kind::kPack:
      return c.pack(r.data, r.flags, ro);
    case Kind::kPipeline:
      return c.pipeline(r.data,
                        {{net::StageOp::kAddConst, r.add},
                         {net::StageOp::kScanPlus, 0},
                         {net::StageOp::kMaxConst, r.floor}},
                        ro);
    case Kind::kPlan:
      return c.plan(kPlanName, {{"a", r.data}}, ro);
  }
  return {};
}

bool net_ok(const Request& r, const net::Response& resp) {
  return resp.status == net::Status::kOk && check(r, resp.outputs, resp.kept);
}

/// The net_latency stack: Service + registered plan + Server + clients.
struct NetStack {
  serve::Service svc{serve::Service::Options{}};
  net::ServiceBackend backend{svc};
  net::Server server{backend, net::Server::Options{}};
  std::vector<std::unique_ptr<net::Client>> clients;

  NetStack() {
    svc.register_plan(kPlanName, vm::assemble(kPlanSource));
    server.start();
    for (std::size_t i = 0; i < kNetConnections; ++i) {
      clients.push_back(
          std::make_unique<net::Client>("127.0.0.1", server.port()));
    }
  }
  ~NetStack() {
    for (auto& c : clients) c->close();
    server.stop();
    svc.shutdown();
  }
};

// --- counters around a measured phase ---------------------------------------

struct Snapshot {
  std::optional<serve::Metrics> svc;
  std::optional<net::Server::Stats> net;
  std::optional<shard::Metrics> shard;
  mem::Counters mem{};
  std::uint64_t pool_dispatches = 0;
};

/// One closed-loop phase of one workload, with what its layers reported.
struct Run {
  Workload w{};
  PhaseResult phase;
  Snapshot before, after;
  HostNoise host;
  std::uint64_t attempted = 0, failed = 0;
};

/// Hooks a workload hands the closed loop.
struct LoopHooks {
  std::size_t threads = 1;
  std::function<void(std::size_t, const std::atomic<bool>&, Recorder&,
                     SpanLog&)>
      drive;
  std::function<Snapshot()> snapshot;
  std::function<std::int64_t()> cpu_ns = self_cpu_ns;
  bool windowed_latency = true;
};

/// Runs the load threads for warm-up + `seconds`, sampling CPU at each window
/// boundary, then stops them and waits until every in-flight op drained.
Run closed_loop(Workload w, const LoopHooks& h, double seconds,
                Tracer& tracer) {
  Run run;
  run.w = w;
  std::atomic<bool> stop{false};
  std::vector<Recorder> recs(h.threads);
  std::vector<SpanLog*> logs;
  for (std::size_t t = 0; t < h.threads; ++t) logs.push_back(&tracer.log());
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds / kWindowS)));
  PhaseSpec spec;
  spec.window_ns = static_cast<std::int64_t>(kWindowS * 1e9);
  spec.windows = windows;
  spec.windowed_latency = h.windowed_latency;

  std::vector<std::thread> threads;
  const std::int64_t begin = now_ns();
  for (std::size_t t = 0; t < h.threads; ++t) {
    threads.emplace_back([&, t] { h.drive(t, stop, recs[t], *logs[t]); });
  }
  auto sleep_to = [](std::int64_t t) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t)));
  };
  spec.start = begin + static_cast<std::int64_t>(kWarmupS * 1e9);
  sleep_to(spec.start);
  std::vector<std::int64_t> cpu;
  std::vector<HostTicks> ticks;
  run.before = h.snapshot();
  run.host.start();
  cpu.push_back(h.cpu_ns());
  ticks.push_back(HostTicks::read());
  for (std::size_t k = 1; k <= windows; ++k) {
    sleep_to(spec.start + spec.window_ns * static_cast<std::int64_t>(k));
    cpu.push_back(h.cpu_ns());
    ticks.push_back(HostTicks::read());
  }
  run.host.stop();
  run.after = h.snapshot();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();

  std::vector<const Recorder*> rp;
  for (const Recorder& r : recs) {
    rp.push_back(&r);
    run.attempted += r.ops.size();
    run.failed += r.failed;
  }
  run.phase = summarize(spec, rp, cpu, ticks);
  return run;
}

Snapshot base_snapshot() {
  Snapshot s;
  s.mem = mem::counters();
  s.pool_dispatches = thread::pool().dispatch_count();
  return s;
}

/// Keeps `inflight` futures open; waits on the oldest, checks it, refills.
/// `submit(req)` returns a future; `ok(req, result)` is the checker.
template <class Submit, class Ok>
void window_loop(const std::vector<Request>& pool, Cursor cur,
                   std::size_t inflight, const std::atomic<bool>& stop,
                   Recorder& rec, SpanLog& log, std::uint64_t id_base,
                   const char* submit_span, const char* wait_span,
                   Submit submit, Ok ok) {
  using Future = decltype(submit(pool.front()));
  struct Pending {
    Future f;
    std::size_t idx;
    std::int64_t t0;
    std::uint64_t id;
  };
  std::deque<Pending> q;
  std::uint64_t seq = 0;
  rec.ops.reserve(1 << 20);
  for (;;) {
    while (q.size() < inflight && !stop.load(std::memory_order_relaxed)) {
      const std::size_t i = cur.next();
      const std::int64_t t0 = now_ns();
      Future f = submit(pool[i]);
      const std::uint64_t id = id_base + seq++;
      if (log.on) log.add(submit_span, "request", id, t0, now_ns());
      q.push_back({std::move(f), i, t0, id});
    }
    if (q.empty()) break;
    Pending p = std::move(q.front());
    q.pop_front();
    const std::int64_t tw = log.on ? now_ns() : 0;
    auto result = p.f.get();
    const std::int64_t t1 = now_ns();
    if (log.on) {
      log.add(wait_span, "request", p.id, tw, t1);
      log.add("request", "", p.id, p.t0, t1);
    }
    rec.add(p.t0, t1, ok(pool[p.idx], result));
  }
}

// --- workloads ---------------------------------------------------------------

Run run_net_latency(Inputs& in, double seconds, Tracer& tracer) {
  const auto& pool = in.net_pool();
  NetStack stack;
  LoopHooks h;
  h.threads = kNetConnections;
  h.drive = [&](std::size_t t, const std::atomic<bool>& stop, Recorder& rec,
                SpanLog& log) {
    net::Client& c = *stack.clients[t];
    window_loop(
        pool, Cursor(in.seed, kPurposeNet, t, pool.size()), kNetInFlight, stop,
        rec, log, (t + 1) << 40, "net.Client.send", "net.future.get",
        [&](const Request& r) { return send(c, r); }, net_ok);
  };
  h.snapshot = [&] {
    Snapshot s = base_snapshot();
    s.svc = stack.svc.metrics();
    s.net = stack.server.stats();
    return s;
  };
  return closed_loop(Workload::kNetLatency, h, seconds, tracer);
}

/// serve_bulk and shard_bulk share this: one generator, one request stream,
/// the same submitters and in-flight count; only the entry point differs.
template <class Submit>
LoopHooks bulk_hooks(Inputs& in, const char* submit_span,
                     const char* wait_span, Submit submit) {
  LoopHooks h;
  h.threads = kBulkSubmitters;
  h.drive = [pool = &in.bulk_pool(), seed = in.seed, submit, submit_span,
             wait_span](std::size_t t, const std::atomic<bool>& stop,
                        Recorder& rec, SpanLog& log) {
    window_loop(
        *pool, Cursor(seed, kPurposeBulk, t, pool->size()), kBulkInFlight,
        stop, rec, log, (t + 1) << 40, submit_span, wait_span,
        [&](const Request& r) { return submit(to_scan_job(r)); },
        [](const Request& r, const serve::Result& res) {
          return res.status == serve::Status::kOk &&
                 check_one(r, res.values, static_cast<std::uint32_t>(res.kept));
        });
  };
  return h;
}

Run run_serve_bulk(Inputs& in, double seconds, Tracer& tracer) {
  serve::Service svc{serve::Service::Options{}};
  LoopHooks h = bulk_hooks(in, "serve.Service.submit", "serve.future.get",
                           [&svc](serve::ScanJob job) {
                             return svc.submit(std::move(job));
                           });
  h.snapshot = [&] {
    Snapshot s = base_snapshot();
    s.svc = svc.metrics();
    return s;
  };
  Run r = closed_loop(Workload::kServeBulk, h, seconds, tracer);
  svc.shutdown();
  return r;
}

Run run_shard_bulk(Inputs& in, double seconds, Tracer& tracer) {
  shard::Options opts;
  shard::Coordinator coord(opts);
  coord.start();
  LoopHooks h = bulk_hooks(in, "shard.Coordinator.submit", "shard.future.get",
                           [&coord](serve::ScanJob job) {
                             return coord.submit(std::move(job));
                           });
  h.snapshot = [&] {
    Snapshot s = base_snapshot();
    s.shard = coord.metrics();
    return s;
  };
  // The workers are processes of their own: their CPU is the shard layer's.
  h.cpu_ns = [&coord, n = opts.shards] {
    std::int64_t ns = self_cpu_ns();
    for (std::size_t i = 0; i < n; ++i) ns += pid_cpu_ns(coord.shard_pid(i));
    return ns;
  };
  Run r = closed_loop(Workload::kShardBulk, h, seconds, tracer);
  coord.shutdown();
  return r;
}

bool sort_ok(const SortSet& set, const std::vector<std::uint64_t>& out,
             const machine::Machine& m) {
  return out == set.sorted && m.stats().steps == kStepsPerBit * kSortBits;
}

Run run_lib_sort(Inputs& in, double seconds, Tracer& tracer) {
  const auto& sets = in.sort_sets();
  LoopHooks h;
  h.threads = 1;
  h.windowed_latency = false;  // ~7 sorts a window: pool the kept windows
  h.drive = [&](std::size_t, const std::atomic<bool>& stop, Recorder& rec,
                SpanLog& log) {
    machine::Machine m(machine::Model::Scan);
    Cursor cur(in.seed, kPurposeSort, 0, sets.size());
    for (std::uint64_t id = 1; !stop.load(std::memory_order_relaxed); ++id) {
      const SortSet& set = sets[cur.next()];
      m.reset_stats();
      const std::int64_t t0 = now_ns();
      const auto out = algo::split_radix_sort(
          m, std::span<const std::uint64_t>(set.keys), kSortBits);
      const std::int64_t t1 = now_ns();
      log.add("algo.split_radix_sort", "", id, t0, t1);
      rec.add(t0, t1, sort_ok(set, out, m));
    }
  };
  h.snapshot = base_snapshot;
  return closed_loop(Workload::kLibSort, h, seconds, tracer);
}

Run run_workload(Workload w, Inputs& in, double seconds, Tracer& tracer) {
  switch (w) {
    case Workload::kNetLatency: return run_net_latency(in, seconds, tracer);
    case Workload::kServeBulk: return run_serve_bulk(in, seconds, tracer);
    case Workload::kShardBulk: return run_shard_bulk(in, seconds, tracer);
    case Workload::kLibSort: return run_lib_sort(in, seconds, tracer);
  }
  return {};
}

// --- cold set-up in a fresh process ---------------------------------------------

/// Times the system's own set-up, ending at the first correct response of
/// each request kind. Inputs are built before the clock starts. Returns
/// seconds, or a negative value when a first response was wrong.
double setup_probe(Workload w, Inputs& in) {
  switch (w) {
    case Workload::kNetLatency: {
      const auto& pool = in.net_pool();
      std::vector<const Request*> firsts;  // one request of each kind
      for (Kind k : {Kind::kScan, Kind::kPack, Kind::kPipeline, Kind::kPlan}) {
        for (const Request& r : pool) {
          if (r.kind == k) {
            firsts.push_back(&r);
            break;
          }
        }
      }
      const std::int64_t t0 = now_ns();
      NetStack stack;
      std::vector<std::future<net::Response>> fs;
      for (const Request* r : firsts) fs.push_back(send(*stack.clients[0], *r));
      bool ok = firsts.size() == 4;
      for (std::size_t i = 0; i < fs.size(); ++i) {
        ok = net_ok(*firsts[i], fs[i].get()) && ok;
      }
      const std::int64_t t1 = now_ns();
      return ok ? static_cast<double>(t1 - t0) * 1e-9 : -1.0;
    }
    case Workload::kServeBulk:
    case Workload::kShardBulk: {
      const Request& r = in.bulk_pool().front();
      serve::ScanJob job = to_scan_job(r);
      const std::int64_t t0 = now_ns();
      serve::Result res;
      std::optional<serve::Service> svc;
      std::optional<shard::Coordinator> coord;
      if (w == Workload::kServeBulk) {
        svc.emplace(serve::Service::Options{});
        res = svc->submit(std::move(job)).get();
      } else {
        coord.emplace(shard::Options{});
        coord->start();
        res = coord->submit(std::move(job)).get();
      }
      const std::int64_t t1 = now_ns();
      const bool ok = res.status == serve::Status::kOk &&
                      check_one(r, res.values,
                                static_cast<std::uint32_t>(res.kept));
      return ok ? static_cast<double>(t1 - t0) * 1e-9 : -1.0;
    }
    case Workload::kLibSort: {
      const SortSet& set = in.sort_sets().front();
      const std::int64_t t0 = now_ns();
      static_cast<void>(thread::pool());  // spin the pool up
      machine::Machine m(machine::Model::Scan);
      const auto out = algo::split_radix_sort(
          m, std::span<const std::uint64_t>(set.keys), kSortBits);
      const std::int64_t t1 = now_ns();
      return sort_ok(set, out, m) ? static_cast<double>(t1 - t0) * 1e-9
                                  : -1.0;
    }
  }
  return -1.0;
}

// --- the layer ladder (traced run) ---------------------------------------------

struct Ladder {
  double seg_scan_ns_per_elem = 0;
  double scan_ns_per_elem = 0;
  double roof_ns_per_elem = 0;
  double split_ms = 0;
  double scan_ms = 0;  ///< the +-scan at the sort's size, for the ratio
  double steps_per_bit = 0;
  std::uint64_t attempted = 0, failed = 0;
};

/// Median wall time of `reps` calls of `fn`, each after `prep` (untimed).
template <class Prep, class Fn>
double median_ns(int reps, SpanLog& log, const char* name, Prep prep, Fn fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    prep();
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    log.add(name, "ladder", static_cast<std::uint64_t>(r), t0, t1);
    t.push_back(static_cast<double>(t1 - t0));
  }
  return median(std::move(t));
}

/// Direct timed calls into the kernels below serve, at the workloads' own
/// sizes: the serve_bulk batch shape for the segmented scan, the lib_sort
/// size for the scan, the roof and the split.
Ladder run_ladder(Inputs& in, Tracer& tracer) {
  Ladder L;
  SpanLog& log = tracer.log();
  auto tally = [&L](bool ok) {
    ++L.attempted;
    if (!ok) ++L.failed;
  };

  // serve_bulk's batch: one job per in-flight request, split by direction
  // as the service splits it.
  const auto& bulk = in.bulk_pool();
  const std::size_t jobs = kBulkSubmitters * kBulkInFlight;
  std::vector<std::vector<Value>> work(jobs);
  std::vector<batch::JobSlice> fwd, bwd;
  std::size_t elements = 0;
  for (std::size_t j = 0; j < jobs; ++j) {
    const Request& r = bulk[j % bulk.size()];
    work[j] = r.data;
    batch::JobSlice s{work[j].data(), r.flags.empty() ? nullptr : r.flags.data(),
                      r.data.size(), r.op, r.inclusive};
    (r.backward ? bwd : fwd).push_back(s);
    elements += r.data.size();
  }
  auto restore = [&] {
    for (std::size_t j = 0; j < jobs; ++j) {
      std::memcpy(work[j].data(), bulk[j % bulk.size()].data.data(),
                  work[j].size() * sizeof(Value));
    }
  };
  L.seg_scan_ns_per_elem =
      median_ns(31, log, "core.seg_scan_jobs", restore, [&] {
        batch::seg_scan_jobs(std::span<const batch::JobSlice>(fwd), false);
        batch::seg_scan_jobs(std::span<const batch::JobSlice>(bwd), true);
      }) /
      static_cast<double>(elements);
  for (std::size_t j = 0; j < jobs; ++j) {
    tally(check_one(bulk[j % bulk.size()], work[j], 0));
  }

  // Exclusive +-scan and the read+write roof at the sort's size.
  const std::size_t n = kSortKeys;
  std::vector<Value> src(n), dst(n);
  Rng g(derive(in.seed, 77));
  for (Value& v : src) v = static_cast<Value>(g.below(100));
  const double scan_ns = median_ns(
      51, log, "core.exclusive_scan", [] {}, [&] {
        exclusive_scan(std::span<const Value>(src), std::span<Value>(dst),
                       Plus<Value>{});
      });
  tally(dst == scan_ref(src, {}, ScanOp::kPlus, false, false));
  L.scan_ns_per_elem = scan_ns / static_cast<double>(n);
  L.scan_ms = scan_ns * 1e-6;
  const std::size_t workers = thread::num_workers();
  L.roof_ns_per_elem =
      median_ns(51, log, "core.roof_pass", [] {}, [&] {
        thread::pool().run([&](std::size_t w) {
          const thread::Block b = thread::block_of(n, workers, w);
          std::memcpy(dst.data() + b.begin, src.data() + b.begin,
                      b.size() * sizeof(Value));
        });
      }) /
      static_cast<double>(n);
  tally(dst == src);

  // split on bit 0 of lib_sort's keys, and the sort's step count.
  const SortSet& set = in.sort_sets().front();
  std::vector<std::uint8_t> flags(n);
  for (std::size_t i = 0; i < n; ++i) flags[i] = set.keys[i] & 1;
  machine::Machine m(machine::Model::Scan);
  std::vector<std::uint64_t> split;
  L.split_ms = median_ns(
                   21, log, "machine.split", [] {}, [&] {
                     split = m.split(std::span<const std::uint64_t>(set.keys),
                                     FlagsView(flags));
                   }) *
               1e-6;
  std::vector<std::uint64_t> expect;
  for (int side = 0; side < 2; ++side) {
    for (std::uint64_t k : set.keys) {
      if ((k & 1) == static_cast<std::uint64_t>(side)) expect.push_back(k);
    }
  }
  tally(split == expect);
  m.reset_stats();
  const auto sorted = algo::split_radix_sort(
      m, std::span<const std::uint64_t>(set.keys), kSortBits);
  tally(sorted == set.sorted);
  L.steps_per_bit = static_cast<double>(m.stats().steps) / kSortBits;
  return L;
}

// --- output ----------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), v, ms[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_host(const Run& r) {
  std::printf("{\"host\": {\"steal_pct\": %.6g, \"invol_cs_per_s\": %.6g, "
              "\"windows\": %zu, \"kept_windows\": %zu}}\n",
              r.host.steal_pct, r.host.invol_cs_per_s, r.phase.windows,
              r.phase.kept);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }
template <class A, class B>
double dratio(A a, B b) {
  return ratio(static_cast<double>(a), static_cast<double>(b));
}

/// Which run reports a layer: the traced run of the workload itself when it
/// passes through the layer, otherwise the leg of the layer's owner.
struct Sources {
  const Run* w;        ///< the workload's own traced phase
  const Run* net;      ///< net_latency
  const Run* service;  ///< a run with an in-process serve::Service
  const Run* bulk;     ///< serve_bulk
  const Run* shard;    ///< shard_bulk
};

std::vector<Metric> layer_metrics(const Sources& s, const Ladder& L,
                                  double untraced_rps) {
  std::vector<Metric> out;
  auto add = [&](const char* name, const char* unit, double v) {
    out.push_back({name, unit, v});
  };
  const serve::Metrics& nsvc = *s.net->after.svc;
  add("net.tax_p50_us", "us",
      s.net->phase.p50_ms * 1e3 - static_cast<double>(nsvc.p50_ns) * 1e-3);
  add("net.protocol_errors", "count",
      static_cast<double>(s.net->after.net->protocol_errors -
                          s.net->before.net->protocol_errors));

  const serve::Metrics& sv = *s.service->after.svc;
  add("serve.p50_us", "us", static_cast<double>(sv.p50_ns) * 1e-3);
  add("serve.p99_us", "us", static_cast<double>(sv.p99_ns) * 1e-3);
  add("serve.occupancy", "jobs", sv.mean_occupancy);
  add("serve.batch_elements", "elements", sv.mean_batch_elements);
  add("serve.dispatches_per_batch", "ratio",
      dratio(sv.pool_dispatches, sv.batches));
  add("serve.urgent_cuts_per_req", "ratio",
      dratio(sv.urgent_cuts, sv.completed));
  const double bulk_ns_per_elem =
      ratio(1e9, s.bulk->phase.throughput_rps *
                     static_cast<double>(kBulkElements));
  add("serve.tax_ns_per_elem", "ns",
      bulk_ns_per_elem - L.seg_scan_ns_per_elem);
  add("serve.rejected", "count", static_cast<double>(sv.rejected));
  add("serve.errors", "count", static_cast<double>(sv.errors));

  const plan::Cache::Stats pc = plan::Cache::instance().stats();
  add("plan.coalesced_share", "ratio",
      dratio(nsvc.plan_coalesced, nsvc.plan_jobs));
  add("plan.cache_hits", "count", static_cast<double>(pc.hits));
  add("plan.cache_misses", "count", static_cast<double>(pc.misses));
  add("plan.compile_ms", "ms",
      dratio(pc.compile_ns, pc.misses) * 1e-6);

  const exec::Stats& ps = nsvc.pipeline_stats;
  add("exec.dispatches_per_job", "ratio",
      dratio(ps.pool_dispatches, ps.fuse_runs + ps.plan_reuses));
  add("exec.arena_miss_ratio", "ratio",
      dratio(ps.arena_misses, ps.arena_hits + ps.arena_misses));

  const Run& w = *s.w;
  add("thread.dispatches_per_op", "ratio",
      dratio(w.after.pool_dispatches - w.before.pool_dispatches,
             w.phase.ops));
  add("core.seg_scan_ns_per_elem", "ns", L.seg_scan_ns_per_elem);
  add("core.scan_ns_per_elem", "ns", L.scan_ns_per_elem);
  add("core.roof_ns_per_elem", "ns", L.roof_ns_per_elem);
  add("core.scan_roof_ratio", "ratio",
      ratio(L.scan_ns_per_elem, L.roof_ns_per_elem));
  add("algo.split_ms", "ms", L.split_ms);
  add("algo.split_scan_ratio", "ratio", ratio(L.split_ms, L.scan_ms));
  add("machine.steps_per_bit", "count", L.steps_per_bit);

  const std::uint64_t hits = w.after.mem.arena_hits - w.before.mem.arena_hits;
  const std::uint64_t misses =
      w.after.mem.arena_misses - w.before.mem.arena_misses;
  add("mem.os_allocs", "count",
      static_cast<double>(w.after.mem.os_allocs - w.before.mem.os_allocs));
  add("mem.hit_ratio", "ratio", dratio(hits, hits + misses));
  add("mem.peak_mib", "MiB",
      static_cast<double>(w.after.mem.peak_bytes) / (1 << 20));

  add("shard.tax_p50_us", "us",
      (s.shard->phase.p50_ms - s.bulk->phase.p50_ms) * 1e3);
  const shard::Metrics& sm = *s.shard->after.shard;
  add("shard.rerouted", "count", static_cast<double>(sm.rerouted));
  add("shard.inline_runs", "count", static_cast<double>(sm.inline_runs));
  add("shard.rejected", "count", static_cast<double>(sm.rejected));
  add("shard.restarts", "count", static_cast<double>(sm.restarts));

  add("obs.trace_overhead_pct", "%",
      100.0 * ratio(untraced_rps - w.phase.throughput_rps, untraced_rps));
  add("host.steal_pct", "%", w.host.steal_pct);
  add("host.invol_cs_per_s", "1/s", w.host.invol_cs_per_s);
  return out;
}

void log_phase(const Run& r, const char* label) {
  std::fprintf(stderr,
               "scanbench: %-11s %-9s %10.1f rps  p50 %8.3f ms  tail %8.3f ms"
               "  cpu %.4f ms/op  samples %zu  steal %.2f%%  windows %zu/%zu"
               "  failed %" PRIu64 "\n",
               kWorkloadNames[static_cast<int>(r.w)], label,
               r.phase.throughput_rps, r.phase.p50_ms, r.phase.tail_ms,
               r.phase.cpu_ms_per_op, r.phase.samples, r.host.steal_pct,
               r.phase.kept, r.phase.windows, r.failed);
}

int run_main(Workload w, std::uint64_t seed, double seconds, bool trace,
             const std::string& trace_out) {
  Inputs in(seed);
  if (!trace) {
    Tracer off(false);
    const Run r = run_workload(w, in, seconds, off);
    log_phase(r, "untraced");
    print_host(r);
    const bool correct = r.failed == 0 && r.attempted > 0;
    print_result(correct, r.attempted, r.failed,
                 {{"throughput_rps", "1/s", r.phase.throughput_rps},
                  {"p50_ms", "ms", r.phase.p50_ms},
                  {"tail_ms", "ms", r.phase.tail_ms},
                  {"cpu_ms_per_op", "ms", r.phase.cpu_ms_per_op}});
    return 0;
  }

  // Traced run: the workload untraced then traced (the gap is the tracing
  // overhead), short traced legs of the workloads that own the layers this
  // one bypasses, then the direct kernel ladder.
  const double half = std::max(kWindowS, seconds / 2);
  Tracer off(false), tracer(true);
  const Run untraced = run_workload(w, in, half, off);
  log_phase(untraced, "untraced");
  const Run traced = run_workload(w, in, half, tracer);
  log_phase(traced, "traced");
  std::map<Workload, Run> legs;
  for (Workload x : {Workload::kNetLatency, Workload::kServeBulk,
                     Workload::kShardBulk}) {
    if (x == w) continue;
    legs[x] = run_workload(x, in, kLegS, tracer);
    log_phase(legs[x], "leg");
  }
  const Ladder ladder = run_ladder(in, tracer);
  auto pick = [&](Workload x) -> const Run* {
    return x == w ? &traced : &legs.at(x);
  };
  Sources src{&traced, pick(Workload::kNetLatency),
              w == Workload::kServeBulk || w == Workload::kNetLatency
                  ? &traced
                  : pick(Workload::kServeBulk),
              pick(Workload::kServeBulk), pick(Workload::kShardBulk)};
  std::uint64_t attempted = untraced.attempted + traced.attempted +
                            ladder.attempted;
  std::uint64_t failed = untraced.failed + traced.failed + ladder.failed;
  for (const auto& [x, r] : legs) {
    attempted += r.attempted;
    failed += r.failed;
  }
  if (!trace_out.empty() && !tracer.write(trace_out, untraced.host.t0)) {
    std::fprintf(stderr, "scanbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  std::fprintf(stderr, "scanbench: %" PRIu64 " spans recorded\n",
               tracer.span_count());
  print_host(traced);
  print_result(failed == 0 && attempted > 0, attempted, failed,
               layer_metrics(src, ladder, untraced.phase.throughput_rps));
  return 0;
}

// --- the benchmark's own tests -----------------------------------------------

std::uint64_t stream_hash(Workload w, std::uint64_t seed) {
  Inputs in(seed);
  Fnv f;
  constexpr std::size_t kPerThread = 2000;
  if (w == Workload::kLibSort) {
    const auto& sets = in.sort_sets();
    Cursor cur(seed, kPurposeSort, 0, sets.size());
    for (std::size_t k = 0; k < kPerThread / 10; ++k) {
      const auto& keys = sets[cur.next()].keys;
      f.bytes(keys.data(), keys.size() * sizeof(keys[0]));
    }
    return f.h;
  }
  const bool net = w == Workload::kNetLatency;
  const auto& pool = net ? in.net_pool() : in.bulk_pool();
  const std::size_t threads = net ? kNetConnections : kBulkSubmitters;
  for (std::size_t t = 0; t < threads; ++t) {
    Cursor cur(seed, net ? kPurposeNet : kPurposeBulk, t, pool.size());
    for (std::size_t k = 0; k < kPerThread; ++k) {
      hash_request(f, pool[cur.next()]);
    }
  }
  return f.h;
}

int self_test() {
  int failures = 0;
  auto expect = [&failures](bool cond, const char* what) {
    std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
    if (!cond) ++failures;
  };

  for (int i = 0; i < 4; ++i) {
    const auto w = static_cast<Workload>(i);
    const std::uint64_t a = stream_hash(w, 7), b = stream_hash(w, 7),
                        c = stream_hash(w, 8);
    const std::string what = std::string(kWorkloadNames[i]) +
                             ": same seed, same stream; new seed, new stream";
    expect(a == b && a != c, what.c_str());
  }

  // The checker against real responses from the stack, then corrupted.
  Inputs in(11);
  {
    NetStack stack;
    for (Kind k : {Kind::kScan, Kind::kPack, Kind::kPipeline, Kind::kPlan}) {
      const Request* r = nullptr;
      for (const Request& x : in.net_pool()) {
        if (x.kind == k && x.data.size() > 2) {
          r = &x;
          break;
        }
      }
      if (r == nullptr) {
        expect(false, "net pool holds every request kind");
        continue;
      }
      net::Response resp = send(*stack.clients[0], *r).get();
      const std::string kind = kKindNames[static_cast<int>(k)];
      expect(net_ok(*r, resp), (kind + ": true response passes").c_str());
      net::Response bad = resp;
      bad.outputs.front()[bad.outputs.front().size() / 2] ^= 1;
      expect(!net_ok(*r, bad), (kind + ": flipped bit fails").c_str());
      bad = resp;
      bad.outputs.front().pop_back();
      expect(!net_ok(*r, bad), (kind + ": short output fails").c_str());
      bad = resp;
      bad.outputs.push_back({});
      expect(!net_ok(*r, bad), (kind + ": extra output fails").c_str());
      bad = resp;
      bad.status = net::Status::kError;
      expect(!net_ok(*r, bad), (kind + ": error status fails").c_str());
      if (k == Kind::kPack) {
        bad = resp;
        ++bad.kept;
        expect(!net_ok(*r, bad), "pack: wrong kept count fails");
      }
    }
  }
  {
    serve::Service svc{serve::Service::Options{}};
    const Request& r = in.bulk_pool().front();
    serve::Result res = svc.submit(to_scan_job(r)).get();
    expect(res.status == serve::Status::kOk && check_one(r, res.values, 0),
           "bulk scan: true response passes");
    res.values.back() += 1;
    expect(!check_one(r, res.values, 0), "bulk scan: off-by-one tail fails");
  }
  {
    const SortSet& set = in.sort_sets().front();
    machine::Machine m(machine::Model::Scan);
    auto out = algo::split_radix_sort(
        m, std::span<const std::uint64_t>(set.keys), kSortBits);
    expect(sort_ok(set, out, m), "sort: true output and step count pass");
    std::swap(out[10], out[out.size() - 10]);
    expect(!sort_ok(set, out, m), "sort: swapped keys fail");
  }
  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: scanbench --workload W --seed N --seconds S --trace 0|1"
               " [--trace-out FILE]\n"
               "       scanbench --setup-probe W --seed N\n"
               "       scanbench --stream-hash W --seed N\n"
               "       scanbench --self-test\n"
               "workloads: net_latency serve_bulk shard_bulk lib_sort\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--self-test") {
      a[k] = "1";
    } else if (k.rfind("--", 0) == 0 && i + 1 < argc) {
      a[k] = argv[++i];
    } else {
      return usage();
    }
  }
  if (a.count("--self-test")) return self_test();
  const std::uint64_t seed =
      a.count("--seed") ? std::strtoull(a["--seed"].c_str(), nullptr, 10) : 1;
  for (const char* mode : {"--setup-probe", "--stream-hash"}) {
    if (!a.count(mode)) continue;
    const auto w = parse_workload(a[mode]);
    if (!w) return usage();
    if (std::strcmp(mode, "--stream-hash") == 0) {
      std::printf("%016" PRIx64 "\n", stream_hash(*w, seed));
      return 0;
    }
    Inputs in(seed);
    const double s = setup_probe(*w, in);
    std::printf("%.9f\n", s);
    return s > 0 ? 0 : 1;
  }
  const auto w = parse_workload(a.count("--workload") ? a["--workload"] : "");
  if (!w || !a.count("--seconds")) return usage();
  const double seconds = std::strtod(a["--seconds"].c_str(), nullptr);
  if (!(seconds > 0)) return usage();
  const bool trace = a.count("--trace") && a["--trace"] == "1";
  return run_main(*w, seed, seconds, trace,
                  a.count("--trace-out") ? a["--trace-out"] : "");
}
