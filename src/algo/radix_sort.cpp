// Split radix sort (§2.2.1, Fig. 2). Each bit's split runs on the blocked
// split kernel (scanprim::detail::split_run, Fig. 3's enumerates computed
// over Fig. 10's blocks) with the bit test fused in, ping-ponging between
// two buffers allocated once per sort. The Machine charges stay the paper's.
#include "src/algo/radix_sort.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>

#include "src/core/primitives.hpp"
#include "src/core/simulate.hpp"

namespace scanprim::algo {

unsigned bits_for(std::uint64_t bound) {
  unsigned bits = 0;
  while (bound > (std::uint64_t{1} << bits) && bits < 64) ++bits;
  // bound elements need keys in [0, bound): ceil(lg bound) bits.
  return bits == 0 ? 1 : bits;
}

namespace {

/// Fig. 2's loop body: bit extraction, split_index, permute of the keys.
void charge_bit_split(machine::Machine& m, std::size_t n) {
  m.charge_elementwise(n);
  m.charge_split_index(n);
  m.charge_permute(n);
}

/// Splits on bit `b` of the keys `k`; `mv(i, d)` moves element i to d.
template <class Move>
void split_on_bit(const std::uint64_t* k, std::size_t n, unsigned b, Move mv) {
  detail::split_run(
      n, [=](std::size_t i) -> std::size_t { return (k[i] >> b) & 1; }, mv);
}

}  // namespace

std::vector<std::uint64_t> split_radix_sort(machine::Machine& m,
                                            std::span<const std::uint64_t> keys,
                                            unsigned bits) {
  const std::size_t n = keys.size();
  if (bits == 0) return {keys.begin(), keys.end()};
  // The first pass reads `keys`; the passes alternate between `out` and an
  // uninitialised scratch buffer so that the last one lands in `out`.
  std::vector<std::uint64_t> out(n);
  const auto scratch = std::make_unique_for_overwrite<std::uint64_t[]>(n);
  const std::uint64_t* src = keys.data();
  for (unsigned bit = 0; bit < bits; ++bit) {
    charge_bit_split(m, n);
    std::uint64_t* dst = (bits - bit) % 2 ? out.data() : scratch.get();
    split_on_bit(src, n, bit,
                 [=](std::size_t i, std::size_t d) { dst[d] = src[i]; });
    src = dst;
  }
  return out;
}

SortWithOrigin split_radix_sort_with_origin(
    machine::Machine& m, std::span<const std::uint64_t> keys, unsigned bits) {
  const std::size_t n = keys.size();
  SortWithOrigin r{{keys.begin(), keys.end()}, m.iota(n)};
  std::vector<std::uint64_t> keys2(n);
  std::vector<std::size_t> origin2(n);
  for (unsigned bit = 0; bit < bits; ++bit) {
    charge_bit_split(m, n);
    m.charge_permute(n);  // the origin, moved in the same scatter pass
    split_on_bit(r.keys.data(), n, bit,
                 [src = r.keys.data(), org = r.origin.data(),
                  dst = keys2.data(),
                  dst_org = origin2.data()](std::size_t i, std::size_t d) {
                   dst[d] = src[i];
                   dst_org[d] = org[i];
                 });
    r.keys.swap(keys2);
    r.origin.swap(origin2);
  }
  return r;
}

std::vector<std::uint64_t> split_radix_sort_digits(
    machine::Machine& m, std::span<const std::uint64_t> keys, unsigned bits,
    unsigned radix_bits) {
  assert(radix_bits >= 1 && radix_bits <= 8);
  const std::size_t radix = std::size_t{1} << radix_bits;
  const std::size_t n = keys.size();
  std::vector<std::uint64_t> a(keys.begin(), keys.end());
  std::vector<std::size_t> index(n);
  for (unsigned shift = 0; shift < bits; shift += radix_bits) {
    // Rank every key within its digit class (one scan per class), then add
    // the class's base offset (an R-entry prefix — one short scan).
    std::vector<std::size_t> rank(n), cls(n);
    m.charge_elementwise(n);
    thread::parallel_for(n, [&](std::size_t i) {
      cls[i] = (a[i] >> shift) & (radix - 1);
    });
    std::vector<std::size_t> base(radix + 1, 0);
    for (std::size_t c = 0; c < radix; ++c) {
      std::vector<std::size_t> ind(n);
      m.charge_elementwise(n);
      thread::parallel_for(n, [&](std::size_t i) {
        ind[i] = cls[i] == c ? 1 : 0;
      });
      std::vector<std::size_t> scanned =
          m.plus_scan(std::span<const std::size_t>(ind));
      base[c + 1] =
          base[c] + m.reduce(std::span<const std::size_t>(ind),
                             Plus<std::size_t>{});
      m.charge_elementwise(n);
      thread::parallel_for(n, [&](std::size_t i) {
        if (cls[i] == c) rank[i] = scanned[i];
      });
    }
    m.charge_elementwise(n);
    thread::parallel_for(n, [&](std::size_t i) {
      index[i] = base[cls[i]] + rank[i];
    });
    a = m.permute(std::span<const std::uint64_t>(a),
                  std::span<const std::size_t>(index));
  }
  return a;
}

std::vector<double> split_radix_sort_doubles(machine::Machine& m,
                                             std::span<const double> keys) {
  const std::vector<std::uint64_t> mapped = m.map<std::uint64_t>(
      keys, [](double v) { return sim::float_key(v); });
  const std::vector<std::uint64_t> sorted =
      split_radix_sort(m, std::span<const std::uint64_t>(mapped), 64);
  return m.map<double>(std::span<const std::uint64_t>(sorted),
                       [](std::uint64_t k) { return sim::float_unkey(k); });
}

std::vector<std::string> split_radix_sort_strings(
    machine::Machine& m, std::span<const std::string> keys) {
  const std::size_t n = keys.size();
  std::size_t max_len = 0;
  for (const auto& k : keys) max_len = std::max(max_len, k.size());
  const std::size_t chunks = (max_len + 7) / 8;

  // LSD over 8-byte chunks: the last chunk first, each pass a stable 64-bit
  // radix sort of the running permutation.
  std::vector<std::size_t> order = m.iota(n);
  for (std::size_t c = chunks; c-- > 0;) {
    std::vector<std::uint64_t> chunk(n);
    m.charge_elementwise(n);
    thread::parallel_for(n, [&](std::size_t i) {
      const std::string& s = keys[order[i]];
      std::uint64_t k = 0;
      for (std::size_t b = 0; b < 8; ++b) {
        const std::size_t pos = c * 8 + b;
        const std::uint64_t ch =
            pos < s.size() ? static_cast<unsigned char>(s[pos]) : 0;
        k = (k << 8) | ch;  // big-endian pack: lexicographic == numeric
      }
      chunk[i] = k;
    });
    const SortWithOrigin pass = split_radix_sort_with_origin(
        m, std::span<const std::uint64_t>(chunk), 64);
    order = m.gather(std::span<const std::size_t>(order),
                     std::span<const std::size_t>(pass.origin));
  }
  std::vector<std::string> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = keys[order[i]];
  return out;
}

}  // namespace scanprim::algo
