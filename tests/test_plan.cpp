// The VM-to-executor plan compiler (docs/PLAN.md): compiled dispatch must be
// observationally identical to pure interpretation — outputs, registers,
// charges, instruction counts, and error messages — across directed
// programs, the paper's control-flow sorts, and a seeded random program
// generator. Plus the cache contract (hit/miss/negative/LRU/concurrency),
// the zero-record/fuse-work guarantee on cache hits, and the plan.compile
// fault point's interpret-and-retry fallback.
#include "src/plan/plan.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <future>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/env.hpp"
#include "src/fault/fault.hpp"
#include "src/plan/coalesce.hpp"
#include "src/serve/service.hpp"
#include "src/vm/assembler.hpp"
#include "test_util.hpp"

namespace scanprim {
namespace {

using vm::Vec;

/// Pure interpretation while alive: unhooks the plan engine, restores it on
/// scope exit. The reference leg of every agreement test runs under one.
struct HookGuard {
  vm::Interpreter::RunHook saved;
  HookGuard() : saved(vm::Interpreter::run_hook()) {
    vm::Interpreter::set_run_hook(nullptr);
  }
  ~HookGuard() { vm::Interpreter::set_run_hook(saved); }
};

struct Outcome {
  bool ok = true;
  std::string error;
  std::vector<Vec> output;
  std::size_t executed = 0;
  machine::StepStats stats;
};

Outcome run_vm(const vm::Program& p, const std::map<std::string, Vec>& regs,
               bool compiled, std::size_t max_instructions = 1u << 22) {
  plan::ensure_hook();
  std::optional<HookGuard> guard;
  if (!compiled) guard.emplace();
  machine::Machine m;
  vm::Interpreter interp(m);
  for (const auto& [name, v] : regs) interp.set_register(name, v);
  Outcome out;
  try {
    interp.run(p, max_instructions);
  } catch (const vm::VmError& e) {
    out.ok = false;
    out.error = e.what();
  }
  out.output = interp.output();
  out.executed = interp.instructions_executed();
  out.stats = m.stats();
  return out;
}

/// Interpreted and compiled runs of `src` must agree on everything the VM
/// can observe. Integer charge counters compare exactly; bit_cycles is a
/// double accumulated in dataflow order by compiled regions, so it gets a
/// relative tolerance.
void expect_agree(const std::string& src,
                  const std::map<std::string, Vec>& regs = {},
                  std::size_t max_instructions = 1u << 22) {
  const vm::Program p = vm::assemble(src);
  const Outcome i = run_vm(p, regs, /*compiled=*/false, max_instructions);
  const Outcome c = run_vm(p, regs, /*compiled=*/true, max_instructions);
  EXPECT_EQ(i.ok, c.ok) << src;
  EXPECT_EQ(i.error, c.error) << src;
  EXPECT_EQ(i.output, c.output) << src;
  EXPECT_EQ(i.executed, c.executed) << src;
  EXPECT_EQ(i.stats.steps, c.stats.steps) << src;
  EXPECT_EQ(i.stats.elementwise, c.stats.elementwise) << src;
  EXPECT_EQ(i.stats.permutes, c.stats.permutes) << src;
  EXPECT_EQ(i.stats.scans, c.stats.scans) << src;
  EXPECT_EQ(i.stats.broadcasts, c.stats.broadcasts) << src;
  EXPECT_EQ(i.stats.combines, c.stats.combines) << src;
  EXPECT_NEAR(i.stats.bit_cycles, c.stats.bit_cycles,
              1e-6 * std::max(1.0, std::abs(i.stats.bit_cycles)))
      << src;
}

// The compiled path wraps exactly like the interpreter at the int64
// extremes (core/ops.hpp's rule), including INT64_MIN / -1.
TEST(PlanAgreement, Int64ExtremesWrapIdentically) {
  const std::map<std::string, Vec> regs{
      {"a", Vec{std::numeric_limits<std::int64_t>::max(),
                std::numeric_limits<std::int64_t>::min(), -1, 0, 1}},
      {"m", Vec{-1, -1, -1, -1, -1}}};
  for (const char* op : {"add", "sub", "mul", "div", "mod"}) {
    expect_agree(std::string("load a\nload m\n") + op +
                     "\nload a\nadd\nprint\nhalt",
                 regs);
  }
  expect_agree("load a\nneg\nprint\nload a\n+scan\nprint\nhalt", regs);
}

TEST(PlanAgreement, DirectedPrograms) {
  const Vec a{2, 1, 2, 3, 5, 8, 13, 21};
  const Vec v{5, 1, 3, 4, 3, 9, 2, 6};
  const Vec f{1, 0, 1, 0, 0, 0, 1, 0};
  expect_agree("index 5\nconst 1 10\nadd\nconst 1 2\nmul\nprint\nhalt");
  expect_agree("load a\n+scan\nprint\nhalt", {{"a", a}});
  expect_agree("load v\nload f\nseg+scan\nprint\nhalt", {{"v", v}, {"f", f}});
  expect_agree("load f\nenumerate\nprint\nhalt", {{"f", f}});
  expect_agree("load v\nload f\npack\nprint\nhalt", {{"v", v}, {"f", f}});
  expect_agree("load v\nload f\nsplit\nprint\nhalt", {{"v", v}, {"f", f}});
  expect_agree("load v\nload f\nsegcopy\nprint\nhalt", {{"v", v}, {"f", f}});
  expect_agree("load v\nload f\nseg+distribute\nprint\nhalt",
               {{"v", v}, {"f", f}});
  expect_agree("load v\nload f\nseg+backscan\nprint\nhalt",
               {{"v", v}, {"f", f}});
  expect_agree("load v\ndup\n+reduce\nprint\nprint\nhalt", {{"v", v}});
  expect_agree("load v\nlength\nprint\nprint\nhalt", {{"v", v}});
  expect_agree("const 1 9\nconst 1 6\ndistribute\nprint\nhalt");
  expect_agree("load f\nload a\nload v\nselect\nprint\nhalt",
               {{"f", f}, {"a", a}, {"v", v}});
  // The line-of-sight kernel: dup + maxscan + gt in one fused region.
  expect_agree(
      "load alt\nconst 1 1000\nmul\nload dist\ndiv\ndup\nmaxscan\ngt\n"
      "print\nhalt",
      {{"alt", Vec{1, 10, 1, 2, 3, 60}}, {"dist", Vec{1, 1, 2, 3, 4, 5}}});
  // Stack shuffles and register round trips inside one region.
  expect_agree(
      "load a\nload v\nswap\nover\nstore t\nadd\nload t\nsub\nprint\nhalt",
      {{"a", a}, {"v", v}});
}

TEST(PlanAgreement, SplitRadixSortProgram) {
  const std::string src = R"(
        const 1 0
        store bit
    loop:
        load a
        load bit
        shr
        const 1 1
        band
        store flags
        load a
        load flags
        split
        store a
        load bit
        const 1 1
        add
        store bit
        load bit
        load nbits
        lt
        jnz loop
        load a
        print
        halt
  )";
  auto g = testutil::rng(901);
  Vec keys(2000);
  for (auto& k : keys) k = static_cast<std::int64_t>(g() % 4096);
  const std::map<std::string, Vec> regs{{"a", keys}, {"nbits", Vec{12}}};
  expect_agree(src, regs);
  // And the compiled leg really sorts (not just "agrees with itself").
  const Outcome c = run_vm(vm::assemble(src), regs, /*compiled=*/true);
  Vec expect = keys;
  std::sort(expect.begin(), expect.end());
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_EQ(c.output.back(), expect);
  // Control flow forces multiple regions; the loop body itself compiles.
  plan::Compiler comp;
  const auto cp = comp.compile(vm::assemble(src));
  ASSERT_TRUE(cp.has_value());
  EXPECT_GT(cp->regions.size(), 1u);
  EXPECT_GT(cp->compiled_instructions, 0u);
  EXPECT_LT(cp->compiled_instructions, cp->total_instructions);
}

TEST(PlanAgreement, SegmentedQuicksortProgram) {
  const std::size_t n = 1000;
  std::string src = R"(
        index N
        const 1 0
        eq
        store segs
    loop:
        load a
        index N
        const 1 1
        sub
        const 1 0
        max
        gather
        load a
        le
        index N
        const 1 0
        eq
        bor
        andreduce
        jnz done
        load a
        load segs
        segcopy
        store piv
        load a
        load piv
        ge
        load a
        load piv
        gt
        add
        store code
        load code
        const 1 0
        eq
        store ind0
        load code
        const 1 1
        eq
        store ind1
        load ind0
        load segs
        seg+scan
        store r0
        load ind1
        load segs
        seg+scan
        store r1
        load code
        const 1 2
        eq
        load segs
        seg+scan
        store r2
        load ind0
        load segs
        seg+distribute
        store c0
        load ind1
        load segs
        seg+distribute
        store c1
        const N 1
        load segs
        seg+scan
        store srank
        load c0
        load c1
        add
        load r2
        add
        store w2
        load ind1
        load c0
        load r1
        add
        load w2
        select
        store w12
        load ind0
        load r0
        load w12
        select
        index N
        load srank
        sub
        add
        store dest
        load a
        load dest
        permute
        store a
        load code
        load dest
        permute
        store mcode
        load mcode
        index N
        const 1 1
        sub
        const 1 0
        max
        gather
        load mcode
        ne
        load segs
        bor
        store segs
        jump loop
    done:
        load a
        print
        halt
  )";
  for (std::string::size_type p; (p = src.find("N")) != std::string::npos;) {
    src.replace(p, 1, std::to_string(n));
  }
  auto g = testutil::rng(902);
  Vec keys(n);
  for (auto& k : keys) k = static_cast<std::int64_t>(g() % 100000);
  const std::map<std::string, Vec> regs{{"a", keys}};
  expect_agree(src, regs, 1u << 24);
  const Outcome c = run_vm(vm::assemble(src), regs, /*compiled=*/true,
                           1u << 24);
  Vec expect = keys;
  std::sort(expect.begin(), expect.end());
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_EQ(c.output.back(), expect);
}

// --- seeded random program generator ---------------------------------------
// Straight-line programs over the compilable ISA subset, built from
// length-preserving snippets so applicability is decidable from a symbolic
// stack of lengths. Every generated program compiles fully (asserted), so
// the agreement it proves is about the compiled path, not the fallback.

struct GenProgram {
  std::string src;
  std::map<std::string, Vec> regs;
};

GenProgram generate(std::uint64_t seed, std::size_t L) {
  std::mt19937_64 g(seed * 2654435761u + L + 1);
  const auto pick = [&](std::uint64_t n) { return g() % n; };

  GenProgram gp;
  gp.regs["a"] = testutil::random_vector<std::int64_t>(L, seed * 5 + 1, 1000);
  gp.regs["b"] = testutil::random_vector<std::int64_t>(L, seed * 5 + 2, 1000);
  gp.regs["c"] = testutil::random_vector<std::int64_t>(L, seed * 5 + 3, 8);
  Vec f(L, 0);
  if (L > 0) f[0] = 1;
  for (std::size_t i = 1; i < L; ++i) f[i] = pick(4) == 0 ? 1 : 0;
  gp.regs["f"] = f;
  Vec d(L);
  for (auto& x : d) x = 1 + static_cast<std::int64_t>(pick(9));
  gp.regs["d"] = d;
  Vec pm(L);
  std::iota(pm.begin(), pm.end(), 0);
  std::shuffle(pm.begin(), pm.end(), g);
  gp.regs["pm"] = pm;
  Vec ix(L);
  for (auto& x : ix) x = static_cast<std::int64_t>(pick(std::max<std::size_t>(L, 1)));
  gp.regs["ix"] = ix;

  std::ostringstream out;
  const auto emit = [&](const std::string& line) { out << line << "\n"; };
  std::vector<std::size_t> stack;  // symbolic lengths
  std::map<std::string, std::size_t> temps;
  int next_temp = 0;

  static const char* kUnary[] = {"neg",     "not",        "+scan",
                                 "maxscan", "minscan",    "orscan",
                                 "andscan", "+backscan",  "maxbackscan",
                                 "minbackscan", "enumerate"};
  static const char* kBinary[] = {"add", "sub", "mul", "min", "max",
                                  "band", "bor", "bxor", "lt", "le",
                                  "eq", "ne", "ge", "gt"};
  static const char* kSeg[] = {"seg+scan",       "segmaxscan", "segminscan",
                               "seg+backscan",   "segcopy",
                               "seg+distribute", "segenumerate"};
  static const char* kReduce[] = {"+reduce", "maxreduce", "minreduce",
                                  "orreduce", "andreduce"};

  const std::size_t ops = 4 + pick(10);
  for (std::size_t s = 0; s < ops; ++s) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const std::uint64_t kind = pick(19);
      const std::size_t depth = stack.size();
      const std::size_t top = depth ? stack.back() : 0;
      if (kind == 0) {  // load an input register
        static const char* r[] = {"a", "b", "c", "f"};
        emit(std::string("load ") + r[pick(4)]);
        stack.push_back(L);
      } else if (kind == 1) {  // scalar constant
        emit("const 1 " + std::to_string(pick(50)));
        stack.push_back(1);
      } else if (kind == 2) {  // full-length constant / iota
        if (pick(2) == 0) {
          emit("const " + std::to_string(L) + " " + std::to_string(pick(20)));
        } else {
          emit("index " + std::to_string(L));
        }
        stack.push_back(L);
      } else if (kind == 3) {  // unary / scan / enumerate
        if (depth < 1) continue;
        emit(kUnary[pick(std::size(kUnary))]);
      } else if (kind == 4) {  // compatible binary
        if (depth < 2) continue;
        const std::size_t u = stack[depth - 2];
        if (!(top == u || top == 1 || u == 1)) continue;
        emit(kBinary[pick(std::size(kBinary))]);
        stack.pop_back();
        stack.back() = top == 1 ? u : top;
      } else if (kind == 5) {  // small scalar shift
        if (depth < 1) continue;
        emit("const 1 " + std::to_string(pick(5)));
        emit(pick(2) ? "shl" : "shr");
      } else if (kind == 6) {  // safe division
        if (depth < 1) continue;
        if (top == L && L > 0) {
          emit("load d");
          emit(pick(2) ? "div" : "mod");
        } else {
          emit("const 1 7");
          emit(pick(2) ? "div" : "mod");
        }
      } else if (kind == 7) {  // segmented op over the shared flags
        if (depth < 1 || top != L) continue;
        emit("load f");
        emit(kSeg[pick(std::size(kSeg))]);
      } else if (kind == 8) {
        if (depth < 1) continue;
        emit("dup");
        stack.push_back(top);
      } else if (kind == 9) {
        if (depth < 2) continue;
        emit("swap");
        std::swap(stack[depth - 1], stack[depth - 2]);
      } else if (kind == 10) {
        if (depth < 2) continue;
        emit("over");
        stack.push_back(stack[depth - 2]);
      } else if (kind == 11) {
        if (depth < 2) continue;  // keep at least one live value
        emit("pop");
        stack.pop_back();
      } else if (kind == 12) {
        if (depth < 1) continue;
        emit("length");
        stack.push_back(1);
      } else if (kind == 13) {  // store / reload temporaries
        if (depth >= 1 && (temps.empty() || pick(2) == 0)) {
          const std::string name = "t" + std::to_string(next_temp++);
          emit("store " + name);
          temps[name] = top;
          stack.pop_back();
        } else if (!temps.empty()) {
          auto it = temps.begin();
          std::advance(it, pick(temps.size()));
          emit("load " + it->first);
          stack.push_back(it->second);
        } else {
          continue;
        }
      } else if (kind == 14) {  // permute by the shared permutation
        if (depth < 1 || top != L) continue;
        emit("load pm");
        emit("permute");
      } else if (kind == 15) {  // gather by in-range indices
        if (depth < 1 || top != L) continue;
        emit("load ix");
        emit("gather");
      } else if (kind == 16) {  // select over three compatible values
        if (depth < 3) continue;
        const std::size_t l0 = stack[depth - 1], l1 = stack[depth - 2],
                          l2 = stack[depth - 3];
        const std::size_t n = std::max({l0, l1, l2});
        if ((l0 != n && l0 != 1) || (l1 != n && l1 != 1) ||
            (l2 != n && l2 != 1)) {
          continue;
        }
        emit("select");
        stack.pop_back();
        stack.pop_back();
        stack.back() = n;
      } else if (kind == 17) {  // split keeps the length
        if (depth < 1 || top != L) continue;
        emit("load f");
        emit("split");
      } else if (kind == 18) {  // distribute / reduce
        if (pick(2) == 0) {
          emit("const 1 " + std::to_string(pick(100)));
          emit("const 1 " + std::to_string(L));
          emit("distribute");
          stack.push_back(L);
        } else {
          if (depth < 1) continue;
          emit(kReduce[pick(std::size(kReduce))]);
          stack.back() = 1;
        }
      }
      break;
    }
  }
  // Optionally pack the top as the last value-producing op (pack changes
  // the length, so it only appears here, right before its print).
  if (!stack.empty() && stack.back() == L && pick(3) == 0) {
    emit("load f");
    emit("pack");
  }
  while (!stack.empty()) {
    emit("print");
    stack.pop_back();
  }
  emit("halt");
  gp.src = out.str();
  return gp;
}

TEST(PlanAgreement, RandomStraightLinePrograms) {
  plan::Compiler comp;
  for (const std::size_t L : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{1000}}) {
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      const GenProgram gp = generate(seed, L);
      SCOPED_TRACE("L=" + std::to_string(L) + " seed=" +
                   std::to_string(seed) + "\n" + gp.src);
      // Every generated program must compile fully (one region + halt).
      const auto cp = comp.compile(vm::assemble(gp.src));
      ASSERT_TRUE(cp.has_value());
      EXPECT_GT(cp->compiled_instructions, 0u);
      expect_agree(gp.src, gp.regs);
    }
  }
}

TEST(PlanAgreement, ErrorMessagesMatch) {
  expect_agree("pop\nhalt");                              // stack underflow
  expect_agree("const 2 1\nconst 2 0\ndiv\nhalt");        // division by zero
  expect_agree("const 2 1\nconst 2 0\nmod\nhalt");        // mod by zero
  expect_agree("index 4\nconst 4 0\npermute\nprint\nhalt");  // dup indices
  expect_agree("index 4\nconst 4 9\npermute\nprint\nhalt");  // out of range
  expect_agree("index 4\nconst 4 9\ngather\nprint\nhalt");   // gather bounds
  expect_agree("load nope\nprint\nhalt");                 // missing register
  expect_agree("const 2 1\nconst 3 1\nadd\nprint\nhalt"); // length mismatch
  expect_agree("const 4 1\nconst 3 1\nseg+scan\nprint\nhalt");  // bad flags
  expect_agree("const 4 1\nconst 3 1\nsegcopy\nprint\nhalt");
  expect_agree("const 2 1\nconst 2 2\ndistribute\nprint\nhalt");  // non-scalar
  // Mid-region errors roll the region back and re-raise interpreted, so the
  // prints before the failing op still commit identically.
  expect_agree("index 4\nprint\nconst 2 1\nconst 2 0\ndiv\nprint\nhalt");
}

TEST(PlanAgreement, InstructionBudget) {
  // The budget error names the interpreter's exact pc whether it trips
  // between regions or mid-region.
  const std::string loop = R"(
        const 1 0
        store i
    loop:
        load i
        const 1 1
        add
        store i
        load i
        const 1 100
        lt
        jnz loop
        halt
  )";
  for (const std::size_t budget : {1u, 3u, 7u, 20u, 1000u}) {
    expect_agree(loop, {}, budget);
  }
  expect_agree("index 8\n+scan\nneg\nprint\nhalt", {}, 2);  // mid-region
}

// --- satellite: segmented + select edge cases -------------------------------

TEST(PlanAgreement, SegmentedEdgeCases) {
  const Vec empty{};
  // Empty vectors through every segmented form and select.
  expect_agree("load v\nload f\nsegcopy\nprint\nhalt",
               {{"v", empty}, {"f", empty}});
  expect_agree("load v\nload f\nseg+distribute\nprint\nhalt",
               {{"v", empty}, {"f", empty}});
  expect_agree("load v\nload f\nsegenumerate\nprint\nhalt",
               {{"v", empty}, {"f", empty}});
  expect_agree("load v\nload v\nload v\nselect\nprint\nhalt", {{"v", empty}});
  expect_agree("load v\nload f\nseg+scan\nprint\nhalt",
               {{"v", empty}, {"f", empty}});
  expect_agree("load v\nload f\npack\nprint\nhalt",
               {{"v", empty}, {"f", empty}});
  expect_agree("load v\nload f\nsplit\nprint\nhalt",
               {{"v", empty}, {"f", empty}});

  // Single-element segments: every position opens a segment.
  const Vec v{4, 7, 1, 9, 2};
  const Vec ones{1, 1, 1, 1, 1};
  expect_agree("load v\nload f\nsegcopy\nprint\nhalt",
               {{"v", v}, {"f", ones}});
  expect_agree("load v\nload f\nseg+distribute\nprint\nhalt",
               {{"v", v}, {"f", ones}});
  expect_agree("load v\nload f\nsegenumerate\nprint\nhalt",
               {{"v", v}, {"f", ones}});
  expect_agree("load v\nload f\nseg+scan\nprint\nhalt",
               {{"v", v}, {"f", ones}});

  // One segment spanning the whole vector.
  const Vec head{1, 0, 0, 0, 0};
  expect_agree("load v\nload f\nsegcopy\nprint\nhalt",
               {{"v", v}, {"f", head}});
  expect_agree("load v\nload f\nseg+distribute\nprint\nhalt",
               {{"v", v}, {"f", head}});

  // Scalar broadcast edges for select and binaries.
  const Vec cond{1, 0, 1, 0, 1};
  expect_agree("load c\nconst 1 7\nconst 1 9\nselect\nprint\nhalt",
               {{"c", cond}});
  expect_agree("load c\nload v\nconst 1 0\nselect\nprint\nhalt",
               {{"c", cond}, {"v", v}});
  expect_agree("const 1 1\nconst 1 5\nconst 1 9\nselect\nprint\nhalt");
  expect_agree("const 1 3\nload v\nadd\nprint\nhalt", {{"v", v}});
  expect_agree("load v\nconst 1 3\nsub\nprint\nhalt", {{"v", v}});
  expect_agree("const 1 3\nconst 1 4\nadd\nprint\nhalt");
  // Scalar-vs-empty broadcast.
  expect_agree("const 1 3\nload v\nadd\nprint\nhalt", {{"v", empty}});
  expect_agree("load v\nconst 1 3\nadd\nprint\nhalt", {{"v", empty}});
}

// --- cache contract ---------------------------------------------------------

TEST(PlanCache, MissThenHitSharesOnePlan) {
  plan::Cache cache;
  const auto p1 = vm::assemble("load a\n+scan\nprint\nhalt");
  const auto p2 = vm::assemble("load a\n+scan\nprint\nhalt");
  const auto first = cache.get(p1);
  ASSERT_NE(first, nullptr);
  const auto second = cache.get(p2);  // structurally equal, fresh assembly
  EXPECT_EQ(first.get(), second.get());
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_GT(st.bytes, 0u);
  EXPECT_GT(st.compile_ns, 0u);

  // A different fill constant is a different structure: its own miss.
  cache.get(vm::assemble("load a\nconst 1 5\nadd\nprint\nhalt"));
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCache, NegativeEntriesRememberDeclines) {
  plan::Cache cache;
  const auto p = vm::assemble("halt");  // all-control: nothing to compile
  EXPECT_EQ(cache.get(p), nullptr);
  EXPECT_EQ(cache.get(p), nullptr);
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 1u);  // the decline was cached, not re-analysed
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.failures, 0u);
  EXPECT_EQ(st.entries, 1u);
}

TEST(PlanCache, ShapePolymorphicPlanServesEveryLength) {
  plan::Cache cache;
  const auto p = vm::assemble("load a\ndup\n+scan\nadd\nprint\nhalt");
  const auto prog = cache.get(p);
  ASSERT_NE(prog, nullptr);
  exec::Executor ex;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                              std::size_t{777}}) {
    const Vec a = testutil::random_vector<std::int64_t>(n, 7000 + n);
    machine::Machine mc;
    vm::Interpreter compiled(mc);
    compiled.set_register("a", a);
    plan::execute(compiled, p, *prog, 1u << 22, ex);
    machine::Machine mi;
    vm::Interpreter interpreted(mi);
    interpreted.set_register("a", a);
    {
      HookGuard guard;
      interpreted.run(p);
    }
    EXPECT_EQ(compiled.output(), interpreted.output()) << "n=" << n;
    EXPECT_EQ(mc.stats().steps, mi.stats().steps) << "n=" << n;
  }
  EXPECT_EQ(cache.stats().misses, 1u);  // one plan, every shape
}

TEST(PlanCache, LruEvictionUnderByteBudget) {
  plan::Cache cache;
  cache.set_capacity_bytes(64 * 1024);
  constexpr int kPrograms = 300;
  for (int i = 0; i < kPrograms; ++i) {
    const auto p = vm::assemble("load a\nconst 1 " + std::to_string(i) +
                                "\nadd\n+scan\nprint\nhalt");
    EXPECT_NE(cache.get(p), nullptr);
  }
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, static_cast<std::uint64_t>(kPrograms));
  EXPECT_GT(st.evictions, 0u);
  EXPECT_EQ(st.entries, kPrograms - static_cast<std::size_t>(st.evictions));
  EXPECT_GE(st.entries, 1u);
  // An evicted program recompiles on demand and still works.
  const auto p0 = vm::assemble("load a\nconst 1 0\nadd\n+scan\nprint\nhalt");
  EXPECT_NE(cache.get(p0), nullptr);
}

TEST(PlanCache, ConcurrentGetsCompileOnce) {
  plan::Cache cache;
  std::vector<vm::Program> programs;
  for (int i = 0; i < 8; ++i) {
    programs.push_back(vm::assemble("load a\nconst 1 " + std::to_string(i) +
                                    "\nmul\nmaxscan\nprint\nhalt"));
  }
  constexpr int kThreads = 8, kRounds = 200;
  std::vector<std::thread> workers;
  std::atomic<int> nulls{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        if (cache.get(programs[(t + r) % programs.size()]) == nullptr) {
          nulls.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(nulls.load(), 0);
  const auto st = cache.stats();
  // Compiles happen under the shard lock, so each program compiled once.
  EXPECT_EQ(st.misses, programs.size());
  EXPECT_EQ(st.hits,
            static_cast<std::uint64_t>(kThreads) * kRounds - programs.size());
}

// --- the zero-work dispatch guarantee ---------------------------------------

TEST(PlanDispatch, CacheHitDoesZeroRecordOrFuseWork) {
  plan::Compiler comp;
  const auto p = vm::assemble("load a\ndup\n+scan\nadd\nconst 1 3\nmul\n"
                              "print\nhalt");
  const auto cp = comp.compile(p);
  ASSERT_TRUE(cp.has_value());
  const Vec a = testutil::random_vector<std::int64_t>(4096, 42);
  exec::Executor ex;
  for (int round = 0; round < 3; ++round) {
    machine::Machine m;
    vm::Interpreter interp(m);
    interp.set_register("a", a);
    exec::Stats st;
    plan::execute(interp, p, *cp, 1u << 22, ex, &st);
    // Groups were fused once, at compile time: every dispatch reuses them.
    EXPECT_EQ(st.fuse_runs, 0u) << "round " << round;
    EXPECT_GT(st.plan_reuses, 0u) << "round " << round;
  }
  EXPECT_EQ(ex.total_stats().fuse_runs, 0u);
}

// --- fault injection ---------------------------------------------------------

TEST(PlanFault, CompileFaultFallsBackAndRetries) {
  fault::disarm_all();
  plan::Cache cache;
  const auto p = vm::assemble("load a\nneg\nminscan\nprint\nhalt");
  fault::arm("plan.compile", 1);
  EXPECT_EQ(cache.get(p), nullptr);  // faulted: interpret this dispatch
  EXPECT_EQ(cache.stats().failures, 1u);
  EXPECT_GE(fault::hits("plan.compile"), 1u);
  // The failure was NOT cached as a decline: the next miss retries.
  fault::disarm("plan.compile");
  EXPECT_NE(cache.get(p), nullptr);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(PlanFault, ArmedCompileStillServesTraffic) {
  // End to end through the hook: with every compile faulting, dispatch
  // degrades to pure interpretation — same outputs, no exception escapes.
  fault::disarm_all();
  fault::arm("plan.compile", 1, 1u << 20);
  const std::uint64_t before = fault::hits("plan.compile");
  expect_agree("load a\nmaxscan\nneg\nconst 1 2\nshl\nprint\nhalt",
               {{"a", Vec{3, 1, 4, 1, 5}}});
  if (plan::enabled()) {
    EXPECT_GT(fault::hits("plan.compile"), before);
  }
  fault::disarm_all();
}

// --- named plans through the serve layer -------------------------------------

TEST(PlanServe, NamedPlansServeTraffic) {
  serve::Service svc;
  const auto p = vm::assemble("load a\ndup\n+scan\nadd\nprint\nhalt");
  const bool compiled = svc.register_plan("scan_add", p);
  EXPECT_EQ(compiled, plan::enabled());
  EXPECT_TRUE(svc.has_plan("scan_add"));
  EXPECT_FALSE(svc.has_plan("nope"));

  const Vec a = testutil::random_vector<std::int64_t>(257, 11);
  serve::PlanJob job;
  job.plan = "scan_add";
  job.registers["a"] = a;
  const serve::Result r = svc.submit(std::move(job)).get();
  ASSERT_EQ(r.status, serve::Status::kOk) << r.error;
  ASSERT_EQ(r.outputs.size(), 1u);
  machine::Machine m;
  vm::Interpreter interp(m);
  interp.set_register("a", a);
  {
    HookGuard guard;
    interp.run(p);
  }
  EXPECT_EQ(r.outputs.front(), interp.output().front());
  EXPECT_EQ(r.values, interp.output().back());

  // Unknown names resolve kError — never an exception out of the future.
  serve::PlanJob bad;
  bad.plan = "nope";
  const serve::Result rb = svc.submit(std::move(bad)).get();
  EXPECT_EQ(rb.status, serve::Status::kError);
  EXPECT_NE(rb.error.find("unknown plan"), std::string::npos) << rb.error;

  // A VM error inside the plan fails only that job, with the VM's message.
  serve::PlanJob missing;
  missing.plan = "scan_add";  // no "a" register provided
  const serve::Result rm = svc.submit(std::move(missing)).get();
  EXPECT_EQ(rm.status, serve::Status::kError);

  const serve::Metrics ms = svc.metrics();
  EXPECT_EQ(ms.plan_jobs, 1u);
  EXPECT_EQ(ms.errors, 2u);
  svc.shutdown();
}

TEST(PlanServe, RepeatedPlanTrafficReusesFusedGroups) {
  serve::Service svc;
  svc.register_plan(
      "pipe", vm::assemble("load a\nmaxscan\nconst 1 1\nadd\nprint\nhalt"));
  for (int i = 0; i < 10; ++i) {
    serve::PlanJob job;
    job.plan = "pipe";
    job.registers["a"] =
        testutil::random_vector<std::int64_t>(100 + 64 * i, 30 + i);
    const serve::Result r = svc.submit(std::move(job)).get();
    ASSERT_EQ(r.status, serve::Status::kOk) << r.error;
    EXPECT_EQ(r.values.size(), std::size_t{100} + 64 * i);
  }
  const serve::Metrics ms = svc.metrics();
  EXPECT_EQ(ms.plan_jobs, 10u);
  if (plan::enabled()) {
    // Every dispatch reused the plan's pre-fused groups: no record/fuse work
    // anywhere in the serve path (the acceptance criterion, via exec::Stats).
    EXPECT_EQ(ms.pipeline_stats.fuse_runs, 0u);
    EXPECT_GT(ms.pipeline_stats.plan_reuses, 0u);
  }
  svc.shutdown();
}

TEST(PlanServe, SamePlanJobsCoalesceIntoOneMergedDispatch) {
  // Several jobs naming the same plan inside one batching window run as ONE
  // merged segmented execution (docs/PLAN.md "Coalescing"): plan_coalesced
  // counts the jobs served that way, plan_reuses counts each chain once per
  // merged batch — not once per job — and the outputs are bit-identical to
  // per-job execution.
  serve::Service::Options so;
  so.window_us = 100000;  // 100 ms: all submissions land in one batch
  serve::Service svc(so);
  const auto prog =
      vm::assemble("load a\nload b\nadd\n+scan\nmaxscan\nprint\nhalt");
  svc.register_plan("merge_me", prog);
  const auto compiled = plan::Cache::instance().get(prog);
  const bool can_coalesce =
      compiled != nullptr && plan::coalescable(*compiled);
  EXPECT_EQ(can_coalesce, plan::enabled());

  constexpr std::size_t k = 6;
  std::vector<std::future<serve::Result>> futs;
  std::vector<Vec> as, bs;
  for (std::size_t i = 0; i < k; ++i) {
    as.push_back(testutil::random_vector<std::int64_t>(64 + 32 * i, 70 + i));
    bs.push_back(testutil::random_vector<std::int64_t>(64 + 32 * i, 90 + i));
    serve::PlanJob j;
    j.plan = "merge_me";
    j.registers["a"] = as[i];
    j.registers["b"] = bs[i];
    futs.push_back(svc.submit(std::move(j)));
  }
  for (std::size_t i = 0; i < k; ++i) {
    const serve::Result r = futs[i].get();
    ASSERT_EQ(r.status, serve::Status::kOk) << r.error;
    // Reference: max-scan(+scan(a + b)), both scans exclusive.
    Vec want(as[i].size());
    std::int64_t sum = 0;
    std::int64_t best = std::numeric_limits<std::int64_t>::min();
    for (std::size_t n = 0; n < want.size(); ++n) {
      want[n] = best;
      best = std::max(best, sum);
      sum += as[i][n] + bs[i][n];
    }
    EXPECT_EQ(r.values, want) << "job " << i;
  }
  const serve::Metrics m = svc.metrics();
  EXPECT_EQ(m.plan_jobs, k);
  if (can_coalesce) {
    EXPECT_EQ(m.plan_coalesced, k);
    // ONE merged execution: the plan's chains replayed once for the whole
    // group, not once per job.
    EXPECT_GT(m.pipeline_stats.plan_reuses, 0u);
    EXPECT_LT(m.pipeline_stats.plan_reuses, k);
    EXPECT_EQ(m.pipeline_stats.fuse_runs, 0u);
  }
  svc.shutdown();
}

TEST(PlanServe, CoalescedAndPerJobResultsAgreeOnSegmentedPlans) {
  // A plan with its own segmented scan: the merged form ORs the operand
  // flags with the job boundaries. Run the same jobs through a wide-window
  // (coalesced) and a zero-window (per-job) service and compare bit-exactly.
  const auto prog = vm::assemble("load v\nload f\nseg+scan\nprint\nhalt");
  std::vector<std::map<std::string, Vec>> jobs;
  for (std::size_t i = 0; i < 5; ++i) {
    const std::size_t n = 48 + 16 * i;
    std::map<std::string, Vec> regs;
    regs["v"] = testutil::random_vector<std::int64_t>(n, 7 + i);
    Vec flags(n, 0);
    for (std::size_t at = (i % 3); at < n; at += 5 + i) flags[at] = 1;
    regs["f"] = flags;
    jobs.push_back(std::move(regs));
  }
  auto run = [&](std::uint64_t window_us) {
    serve::Service::Options so;
    so.window_us = window_us;
    serve::Service svc(so);
    svc.register_plan("seg", prog);
    std::vector<std::future<serve::Result>> futs;
    for (const auto& regs : jobs) {
      serve::PlanJob j;
      j.plan = "seg";
      j.registers = regs;
      futs.push_back(svc.submit(std::move(j)));
    }
    std::vector<Vec> out;
    for (auto& f : futs) {
      const serve::Result r = f.get();
      EXPECT_EQ(r.status, serve::Status::kOk) << r.error;
      out.push_back(r.values);
    }
    const serve::Metrics m = svc.metrics();
    svc.shutdown();
    if (window_us > 0 && plan::enabled()) {
      EXPECT_EQ(m.plan_coalesced, jobs.size());
    }
    return out;
  };
  const auto coalesced = run(100000);
  const auto per_job = run(0);
  EXPECT_EQ(coalesced, per_job);
}

TEST(PlanServe, UncoalescablePlansFallBackPerJob) {
  // A literal operand (`const`) has one compile-time length, not one per
  // job, so the plan must decline coalescing and still serve correctly.
  serve::Service::Options so;
  so.window_us = 50000;
  serve::Service svc(so);
  const auto prog = vm::assemble("load a\nconst 1 1\nadd\nprint\nhalt");
  svc.register_plan("plus1", prog);
  const auto compiled = plan::Cache::instance().get(prog);
  if (compiled != nullptr) {
    EXPECT_FALSE(plan::coalescable(*compiled));
  }
  std::vector<std::future<serve::Result>> futs;
  for (int i = 0; i < 3; ++i) {
    serve::PlanJob j;
    j.plan = "plus1";
    j.registers["a"] = Vec{10 + i, 20 + i};
    futs.push_back(svc.submit(std::move(j)));
  }
  for (int i = 0; i < 3; ++i) {
    const serve::Result r = futs[i].get();
    ASSERT_EQ(r.status, serve::Status::kOk) << r.error;
    EXPECT_EQ(r.values, (Vec{11 + i, 21 + i}));
  }
  EXPECT_EQ(svc.metrics().plan_coalesced, 0u);
  svc.shutdown();
}

TEST(PlanServe, CoalescedGroupWithMissingRegisterFallsBackWithExactErrors) {
  // One job of the group lacks a register: the merged run bails wholesale
  // and the per-job fallback gives the good jobs their results and the bad
  // job its exact interpreter error.
  serve::Service::Options so;
  so.window_us = 50000;
  serve::Service svc(so);
  svc.register_plan("sum2", vm::assemble("load a\n+scan\nprint\nhalt"));
  std::vector<std::future<serve::Result>> futs;
  for (int i = 0; i < 3; ++i) {
    serve::PlanJob j;
    j.plan = "sum2";
    if (i != 1) j.registers["a"] = Vec{1, 2, 3};
    futs.push_back(svc.submit(std::move(j)));
  }
  const serve::Result good0 = futs[0].get();
  const serve::Result bad = futs[1].get();
  const serve::Result good2 = futs[2].get();
  ASSERT_EQ(good0.status, serve::Status::kOk) << good0.error;
  EXPECT_EQ(good0.values, (Vec{0, 1, 3}));
  EXPECT_EQ(bad.status, serve::Status::kError);
  ASSERT_EQ(good2.status, serve::Status::kOk) << good2.error;
  EXPECT_EQ(good2.values, (Vec{0, 1, 3}));
  EXPECT_EQ(svc.metrics().plan_coalesced, 0u);
  svc.shutdown();
}

TEST(PlanServe, PlanJobsMixWithScanBatches) {
  serve::Service svc;
  svc.register_plan("sum", vm::assemble("load v\n+reduce\nprint\nhalt"));
  const Vec v{1, 2, 3, 4, 5};
  serve::ScanJob scan;
  scan.data = {10, 20, 30};
  auto scan_fut = svc.submit(std::move(scan));
  serve::PlanJob pj;
  pj.plan = "sum";
  pj.registers["v"] = v;
  auto plan_fut = svc.submit(std::move(pj));
  const serve::Result rs = scan_fut.get();
  const serve::Result rp = plan_fut.get();
  ASSERT_EQ(rs.status, serve::Status::kOk) << rs.error;
  EXPECT_EQ(rs.values, (std::vector<serve::Value>{0, 10, 30}));
  ASSERT_EQ(rp.status, serve::Status::kOk) << rp.error;
  EXPECT_EQ(rp.values, (std::vector<serve::Value>{15}));
  svc.shutdown();
}

// --- environment -------------------------------------------------------------

TEST(PlanEnv, EnabledMatchesEnvironment) {
  EXPECT_EQ(plan::enabled(), env::flag_or("SCANPRIM_PLAN", true));
}

}  // namespace
}  // namespace scanprim
