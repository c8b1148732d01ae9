// Request generation and the sequential oracle for the benchmark.
//
// Every workload draws its requests from a pool built from the seed before
// anything is timed. Each pooled request carries its reference output,
// computed here by plain sequential loops that share no code with the
// library. A load thread walks the pool in an order drawn from its own
// seeded generator, so one seed gives one byte-identical request stream.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/core/segmented.hpp"

namespace perfbench {

using Value = std::int64_t;
using ScanOp = scanprim::batch::Op;  // kPlus, kMax, kMin, kOr, kAnd
inline constexpr int kScanOps = 5;

/// splitmix64: small, fast and fully determined by its seed.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Derives independent generator seeds for (seed, purpose, index).
inline std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose,
                            std::uint64_t index = 0) {
  Rng r(seed ^ (purpose * 0x2545f4914f6cdd1dull) ^ (index << 32));
  r.next();
  return r.next();
}

enum class Kind : std::uint8_t { kScan, kPack, kPipeline, kPlan };
constexpr const char* kKindNames[] = {"scan", "pack", "pipeline", "plan"};

/// One request as a client sends it, plus what it must come back as.
struct Request {
  Kind kind = Kind::kScan;
  ScanOp op = ScanOp::kPlus;
  bool inclusive = false;
  bool backward = false;
  std::vector<Value> data;
  std::vector<std::uint8_t> flags;  ///< scan: segment starts (empty = one
                                    ///< segment); pack: keep flags
  Value add = 0;                    ///< pipeline: add-const argument
  Value floor = 0;                  ///< pipeline: max-const argument
  std::vector<std::vector<Value>> expect;  ///< reference outputs, in order
  std::uint32_t kept = 0;                  ///< pack: expected kept count
};

// --- the oracle ----------------------------------------------------------

inline Value identity(ScanOp op) {
  switch (op) {
    case ScanOp::kPlus: return 0;
    case ScanOp::kMax: return std::numeric_limits<Value>::lowest();
    case ScanOp::kMin: return std::numeric_limits<Value>::max();
    case ScanOp::kOr: return 0;
    case ScanOp::kAnd: return ~Value{0};
  }
  return 0;
}

inline Value apply(ScanOp op, Value a, Value b) {
  switch (op) {
    case ScanOp::kPlus: return a + b;
    case ScanOp::kMax: return std::max(a, b);
    case ScanOp::kMin: return std::min(a, b);
    case ScanOp::kOr: return a | b;
    case ScanOp::kAnd: return a & b;
  }
  return a;
}

/// Segmented scan, one element at a time. A set flag starts a segment; a
/// backward scan runs from each segment's end to its start.
inline std::vector<Value> scan_ref(const std::vector<Value>& in,
                                   const std::vector<std::uint8_t>& starts,
                                   ScanOp op, bool inclusive, bool backward) {
  const std::size_t n = in.size();
  std::vector<Value> out(n);
  auto starts_at = [&](std::size_t i) {
    return i == 0 || (!starts.empty() && starts[i] != 0);
  };
  std::size_t lo = 0;
  while (lo < n) {
    std::size_t hi = lo + 1;
    while (hi < n && !starts_at(hi)) ++hi;
    Value acc = identity(op);
    for (std::size_t k = 0; k < hi - lo; ++k) {
      const std::size_t i = backward ? hi - 1 - k : lo + k;
      const Value next = apply(op, acc, in[i]);
      out[i] = inclusive ? next : acc;
      acc = next;
    }
    lo = hi;
  }
  return out;
}

/// The plan every net_latency run registers: straight-line, two outputs.
inline constexpr const char* kPlanName = "bench_plan";
inline constexpr const char* kPlanSource =
    "load a\ndup\n+scan\nadd\ndup\nmaxscan\nprint\nprint\nhalt";

inline void fill_expect(Request& r) {
  r.expect.clear();
  switch (r.kind) {
    case Kind::kScan:
      r.expect.push_back(
          scan_ref(r.data, r.flags, r.op, r.inclusive, r.backward));
      break;
    case Kind::kPack: {
      std::vector<Value> kept;
      for (std::size_t i = 0; i < r.data.size(); ++i) {
        if (r.flags[i]) kept.push_back(r.data[i]);
      }
      r.kept = static_cast<std::uint32_t>(kept.size());
      r.expect.push_back(std::move(kept));
      break;
    }
    case Kind::kPipeline: {  // add-const | exclusive +-scan | max-const
      std::vector<Value> v(r.data);
      for (Value& x : v) x += r.add;
      v = scan_ref(v, {}, ScanOp::kPlus, false, false);
      for (Value& x : v) x = std::max(x, r.floor);
      r.expect.push_back(std::move(v));
      break;
    }
    case Kind::kPlan: {  // v = a + exscan(a); prints exmaxscan(v), then v
      std::vector<Value> v = scan_ref(r.data, {}, ScanOp::kPlus, false, false);
      for (std::size_t i = 0; i < v.size(); ++i) v[i] += r.data[i];
      r.expect.push_back(scan_ref(v, {}, ScanOp::kMax, false, false));
      r.expect.push_back(std::move(v));
      break;
    }
  }
}

/// The checker: true when `outputs` (and, for pack, `kept`) are exactly
/// the reference. Any difference in count, length or value is a failure.
inline bool check(const Request& r,
                  const std::vector<std::vector<Value>>& outputs,
                  std::uint32_t kept) {
  if (r.kind == Kind::kPack && kept != r.kept) return false;
  return outputs == r.expect;
}

/// The same for a response carrying one output vector.
inline bool check_one(const Request& r, const std::vector<Value>& values,
                      std::uint32_t kept) {
  if (r.kind == Kind::kPack && kept != r.kept) return false;
  return r.expect.size() == 1 && r.expect.front() == values;
}

// --- generators ----------------------------------------------------------

inline std::vector<Value> random_values(Rng& g, std::size_t n) {
  std::vector<Value> v(n);
  for (Value& x : v) x = static_cast<Value>(g.below(100));
  return v;
}

/// A scan in bench_serve's mix: any of the five operators, inclusive or
/// exclusive, a quarter backward, a third segmented.
inline Request make_scan(Rng& g, std::size_t n) {
  Request r;
  r.kind = Kind::kScan;
  r.data = random_values(g, n);
  r.op = static_cast<ScanOp>(g.below(kScanOps));
  r.inclusive = (g.next() & 1) != 0;
  r.backward = g.below(4) == 0;
  if (g.below(3) == 0) {
    r.flags.assign(n, 0);
    for (auto& f : r.flags) f = g.below(9) == 0 ? 1 : 0;
  }
  fill_expect(r);
  return r;
}

/// net_latency: sizes log-uniform over 128..2048 values; 70% scans, 10%
/// pack, 10% pipeline, 10% named plan.
inline Request make_latency_request(Rng& g) {
  const double u = g.unit();
  const auto n = static_cast<std::size_t>(std::lround(128.0 * std::exp2(4 * u)));
  const std::uint64_t pick = g.below(10);
  if (pick < 7) return make_scan(g, n);
  Request r;
  r.data = random_values(g, n);
  if (pick == 7) {
    r.kind = Kind::kPack;
    r.flags.resize(n);
    for (auto& f : r.flags) f = static_cast<std::uint8_t>(g.below(2));
  } else if (pick == 8) {
    r.kind = Kind::kPipeline;
    r.add = static_cast<Value>(g.below(10));
    r.floor = static_cast<Value>(g.below(2000));
  } else {
    r.kind = Kind::kPlan;
  }
  fill_expect(r);
  return r;
}

/// serve_bulk / shard_bulk: 4096-value scans in bench_serve's mix.
inline constexpr std::size_t kBulkElements = 4096;
inline Request make_bulk_request(Rng& g) {
  return make_scan(g, kBulkElements);
}

/// A pool of requests built from `seed` (outside any timed phase).
template <class Make>
std::vector<Request> make_pool(std::uint64_t seed, std::uint64_t purpose,
                               std::size_t count, Make make) {
  Rng g(derive(seed, purpose));
  std::vector<Request> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) pool.push_back(make(g));
  return pool;
}

/// The order in which one load thread walks a pool.
struct Cursor {
  Rng g;
  std::size_t pool_size;
  Cursor(std::uint64_t seed, std::uint64_t purpose, std::size_t thread,
         std::size_t size)
      : g(derive(seed, purpose + 1000, thread)), pool_size(size) {}
  std::size_t next() { return static_cast<std::size_t>(g.below(pool_size)); }
};

/// FNV-1a over the bytes a client would send, in stream order.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  }
  template <class T>
  void pod(const T& v) { bytes(&v, sizeof v); }
};

inline void hash_request(Fnv& f, const Request& r) {
  f.pod(r.kind);
  f.pod(r.op);
  f.pod(r.inclusive);
  f.pod(r.backward);
  f.pod(r.add);
  f.pod(r.floor);
  f.pod(r.data.size());
  f.bytes(r.data.data(), r.data.size() * sizeof(Value));
  f.pod(r.flags.size());
  f.bytes(r.flags.data(), r.flags.size());
}

}  // namespace perfbench
