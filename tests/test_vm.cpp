// The PARIS-style vector VM: assembler round trips, instruction semantics,
// scan programs (including the paper's split radix sort written in
// assembly), error handling, and cost-model integration.
#include "src/vm/assembler.hpp"
#include "src/vm/interpreter.hpp"

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace scanprim::vm {
namespace {

Vec run_and_take(machine::Machine& m, const std::string& src,
                 const std::map<std::string, Vec>& regs = {}) {
  const Program p = assemble(src);
  Interpreter vm(m);
  for (const auto& [name, value] : regs) vm.set_register(name, value);
  vm.run(p);
  EXPECT_FALSE(vm.output().empty());
  return vm.output().back();
}

TEST(Assembler, LabelsCommentsAndCase) {
  const Program p = assemble(R"(
      ; a comment line
      start:  CONST 4 7   ; trailing comment
              jump done
      done:   HALT
  )");
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0].op, Op::PushConst);
  EXPECT_EQ(p[0].imm0, 4);
  EXPECT_EQ(p[0].imm1, 7);
  EXPECT_EQ(p[1].op, Op::Jump);
  EXPECT_EQ(p[1].imm0, 2);
  EXPECT_EQ(p[2].op, Op::Halt);
}

TEST(Assembler, Errors) {
  EXPECT_THROW(assemble("frobnicate"), AsmError);
  EXPECT_THROW(assemble("const 1"), AsmError);       // missing fill
  EXPECT_THROW(assemble("const -3 0"), AsmError);    // negative length
  EXPECT_THROW(assemble("jump nowhere"), AsmError);  // undefined label
  EXPECT_THROW(assemble("a:\na: halt"), AsmError);   // duplicate label
  EXPECT_THROW(assemble("add 1"), AsmError);         // stray operand
}

TEST(Assembler, ErrorsCarryLineColumnAndToken) {
  const auto message = [](const std::string& src) -> std::string {
    try {
      assemble(src);
    } catch (const AsmError& e) {
      return e.what();
    }
    return "";
  };
  // Position points at the offending token, not just the line.
  EXPECT_EQ(message("frobnicate"),
            "line 1, col 1: unknown mnemonic 'frobnicate' (at 'frobnicate')");
  EXPECT_EQ(message("const -3 0"),
            "line 1, col 7: negative length (at '-3')");
  EXPECT_EQ(message("  const x 0"),
            "line 1, col 9: 'const' expects an integer length (at 'x')");
  EXPECT_EQ(message("add 1"),
            "line 1, col 5: 'add' expects 0 operand(s), got 1 (at '1')");
  EXPECT_EQ(message("halt\njump nowhere"),
            "line 2, col 6: undefined label 'nowhere' (at 'nowhere')");
  EXPECT_EQ(message("a:\na: halt"),
            "line 2, col 1: duplicate label 'a' (at 'a:')");
}

TEST(Assembler, DisassemblyMentionsEveryInstruction) {
  const Program p = assemble("const 2 5\nindex 3\nload x\nhalt");
  const std::string listing = disassemble(p);
  EXPECT_NE(listing.find("const 2 5"), std::string::npos);
  EXPECT_NE(listing.find("index 3"), std::string::npos);
  EXPECT_NE(listing.find("load x"), std::string::npos);
}

TEST(Assembler, DisassemblyRoundTrips) {
  // assemble → disassemble → assemble is a fixed point: the synthetic
  // `l<pc>` labels the disassembler invents re-assemble to the same
  // instruction stream, for straight-line and control-flow programs alike.
  const std::string sources[] = {
      "const 2 5\nindex 3\nload x\nstore y\nhalt",
      "const 1 0\nstore bit\nloop:\nload bit\nconst 1 1\nadd\nstore bit\n"
      "load bit\nconst 1 8\nlt\njnz loop\nhalt",
      "start:\njz fwd\nfwd:\nload a\n+scan\nprint\njump start\nhalt",
      "load v\nload f\nseg+scan\nload f\nseg+distribute\npack\nprint\nhalt",
  };
  for (const std::string& src : sources) {
    const Program once = assemble(src);
    const std::string listing = disassemble(once);
    const Program twice = assemble(listing);
    ASSERT_EQ(once.size(), twice.size()) << listing;
    EXPECT_TRUE(structural_equal(once, twice)) << listing;
    EXPECT_EQ(fingerprint(once), fingerprint(twice)) << listing;
    // And the listing itself is a fixed point of the round trip.
    EXPECT_EQ(listing, disassemble(twice)) << listing;
  }
}

TEST(Interpreter, ArithmeticAndBroadcast) {
  machine::Machine m;
  // (index(5) + 10) * 2
  const Vec out = run_and_take(m, R"(
      index 5
      const 1 10
      add
      const 1 2
      mul
      print
      halt
  )");
  EXPECT_EQ(out, (Vec{20, 22, 24, 26, 28}));
}

// Integer arithmetic wraps in two's complement (core/ops.hpp), so every
// instruction has defined results at the int64 extremes.
TEST(Interpreter, ArithmeticWrapsAtInt64Extremes) {
  using I64 = std::int64_t;
  constexpr I64 kMax = std::numeric_limits<I64>::max();
  constexpr I64 kMin = std::numeric_limits<I64>::min();
  machine::Machine m;
  const std::map<std::string, Vec> regs{{"a", Vec{kMax, kMin, -1, 0, 1}},
                                        {"m", Vec{-1}}};
  EXPECT_EQ(run_and_take(m, "load a\nload a\nadd\nprint\nhalt", regs),
            (Vec{-2, 0, -2, 0, 2}));
  EXPECT_EQ(run_and_take(m, "load a\nconst 1 1\nsub\nprint\nhalt", regs),
            (Vec{kMax - 1, kMax, -2, -1, 0}));
  EXPECT_EQ(run_and_take(m, "load a\nconst 1 3\nmul\nprint\nhalt", regs),
            (Vec{kMax - 2, kMin, -3, 0, 3}));
  EXPECT_EQ(run_and_take(m, "load a\nneg\nprint\nhalt", regs),
            (Vec{kMin + 1, kMin, 1, 0, -1}));
  EXPECT_EQ(run_and_take(m, "load a\nload m\ndiv\nprint\nhalt", regs),
            (Vec{kMin + 1, kMin, 1, 0, -1}));
  EXPECT_EQ(run_and_take(m, "load a\nload m\nmod\nprint\nhalt", regs),
            (Vec{0, 0, 0, 0, 0}));
  EXPECT_EQ(run_and_take(m, "load a\n+scan\nprint\nhalt", regs),
            (Vec{0, kMax, -1, -2, -2}));
}

TEST(Interpreter, ScansMatchTheLibrary) {
  machine::Machine m;
  const Vec a{2, 1, 2, 3, 5, 8, 13, 21};
  EXPECT_EQ(run_and_take(m, "load a\n+scan\nprint\nhalt", {{"a", a}}),
            (Vec{0, 2, 3, 5, 8, 13, 21, 34}));
  const Vec v{5, 1, 3, 4, 3, 9, 2, 6};
  const Vec f{1, 0, 1, 0, 0, 0, 1, 0};
  EXPECT_EQ(run_and_take(m, "load v\nload f\nseg+scan\nprint\nhalt",
                         {{"v", v}, {"f", f}}),
            (Vec{0, 5, 0, 3, 7, 10, 0, 2}));
}

TEST(Interpreter, EnumeratePackSplit) {
  machine::Machine m;
  const Vec v{10, 11, 12, 13, 14, 15};
  const Vec f{1, 0, 1, 1, 0, 1};
  EXPECT_EQ(run_and_take(m, "load f\nenumerate\nprint\nhalt", {{"f", f}}),
            (Vec{0, 1, 1, 2, 3, 3}));
  EXPECT_EQ(run_and_take(m, "load v\nload f\npack\nprint\nhalt",
                         {{"v", v}, {"f", f}}),
            (Vec{10, 12, 13, 15}));
  EXPECT_EQ(run_and_take(m, "load v\nload f\nsplit\nprint\nhalt",
                         {{"v", v}, {"f", f}}),
            (Vec{11, 14, 10, 12, 13, 15}));
}

TEST(Interpreter, SplitRadixSortProgram) {
  // The paper's §2.2.1 pseudocode, as a VM loop.
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
  machine::Machine m;
  auto g = testutil::rng(901);
  Vec keys(2000);
  for (auto& k : keys) k = static_cast<std::int64_t>(g() % 4096);
  const Vec sorted = run_and_take(m, src, {{"a", keys}, {"nbits", Vec{12}}});
  Vec expect = keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sorted, expect);
}

TEST(Interpreter, SegmentedInstructions) {
  machine::Machine m;
  const Vec v{5, 1, 3, 4, 3, 9, 2, 6};
  const Vec f{1, 0, 1, 0, 0, 0, 1, 0};
  EXPECT_EQ(run_and_take(m, "load v\nload f\nsegcopy\nprint\nhalt",
                         {{"v", v}, {"f", f}}),
            (Vec{5, 5, 3, 3, 3, 3, 2, 2}));
  EXPECT_EQ(run_and_take(m, "load v\nload f\nseg+distribute\nprint\nhalt",
                         {{"v", v}, {"f", f}}),
            (Vec{6, 6, 19, 19, 19, 19, 8, 8}));
  EXPECT_EQ(run_and_take(m, "load v\nload f\nseg+backscan\nprint\nhalt",
                         {{"v", v}, {"f", f}}),
            (Vec{1, 0, 16, 12, 9, 0, 6, 0}));
  const Vec marks{1, 1, 0, 1, 0, 1, 1, 1};
  EXPECT_EQ(run_and_take(
                m, "load marks\nload f\nsegenumerate\nprint\nhalt",
                {{"marks", marks}, {"f", f}}),
            (Vec{0, 1, 0, 0, 1, 1, 0, 1}));
}

TEST(Interpreter, SegmentedQuicksortProgram) {
  // §2.3.1, verbatim in the instruction set: segmented pivots (segcopy),
  // three-way segmented split built from seg+scan / seg+distribute, and new
  // segment flags at the group boundaries. First-element pivots.
  const std::size_t n = 1500;
  std::string src = R"(
        index N
        const 1 0
        eq
        store segs
    loop:
        ; sortedness check: prev[i] = a[max(i-1, 0)]
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
        ; pivot = first key of each segment
        load a
        load segs
        segcopy
        store piv
        ; code: 0 <, 1 =, 2 >
        load a
        load piv
        ge
        load a
        load piv
        gt
        add
        store code
        ; per-group ranks and counts within segments
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
        ; within-segment destination by code
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
        ; move keys and codes
        load a
        load dest
        permute
        store a
        load code
        load dest
        permute
        store mcode
        ; new segment boundaries where the moved code changes
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
  machine::Machine m;
  auto g = testutil::rng(902);
  Vec keys(n);
  for (auto& k : keys) k = static_cast<std::int64_t>(g() % 100000);
  vm::Interpreter interp(m);
  interp.set_register("a", keys);
  interp.run(vm::assemble(src), 1u << 24);
  Vec expect = keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(interp.output().back(), expect);
}

TEST(Interpreter, LineOfSightProgram) {
  // Visibility along a ray: angle-proxy = alt * 1000 / distance; visible
  // iff it beats the max-scan of earlier angle-proxies.
  const std::string src = R"(
      load alt
      const 1 1000
      mul
      load dist
      div
      dup
      maxscan
      gt
      print
      halt
  )";
  machine::Machine m;
  const Vec alt{1, 10, 1, 2, 3, 60};
  const Vec dist{1, 1, 2, 3, 4, 5};
  const Vec visible = run_and_take(m, src, {{"alt", alt}, {"dist", dist}});
  EXPECT_EQ(visible, (Vec{1, 1, 0, 0, 0, 1}));
}

TEST(Interpreter, RuntimeErrors) {
  machine::Machine m;
  Interpreter vm(m);
  EXPECT_THROW(vm.run(assemble("pop\nhalt")), VmError);            // underflow
  EXPECT_THROW(vm.run(assemble("const 2 1\nconst 2 0\ndiv\nhalt")), VmError);
  EXPECT_THROW(vm.run(assemble(R"(
      index 4
      const 4 0
      permute
      halt
  )")),
               VmError);  // duplicate permute indices
  EXPECT_THROW(vm.run(assemble("index 3\nindex 4\nadd\nhalt")), VmError);
  EXPECT_THROW(vm.run(assemble("loop: jump loop")), VmError);  // budget
  EXPECT_THROW(vm.run(assemble("load nothing\nhalt")), VmError);
}

TEST(Interpreter, StepChargesFollowTheModel) {
  // A program of k scans costs k steps on the scan model and k lg n on the
  // EREW — the machine integration in one assertion.
  const std::string src = R"(
      load a
      +scan
      maxscan
      minscan
      pop
      halt
  )";
  const Vec a(4096, 1);
  machine::Machine ms(machine::Model::Scan), me(machine::Model::EREW);
  {
    Interpreter vm(ms);
    vm.set_register("a", a);
    vm.run(assemble(src));
  }
  {
    Interpreter vm(me);
    vm.set_register("a", a);
    vm.run(assemble(src));
  }
  EXPECT_EQ(ms.stats().steps, 3u);
  EXPECT_EQ(me.stats().steps, 36u);  // 3 · lg 4096
}

TEST(Interpreter, StackOpsAndRegisters) {
  machine::Machine m;
  const Program p = assemble(R"(
      const 1 3
      const 1 4
      over        ; 3 4 3
      add         ; 3 7
      swap        ; 7 3
      store x
      print       ; prints 7
      load x
      print       ; prints 3
      halt
  )");
  Interpreter vm(m);
  vm.run(p);
  ASSERT_EQ(vm.output().size(), 2u);
  EXPECT_EQ(vm.output()[0], Vec{7});
  EXPECT_EQ(vm.output()[1], Vec{3});
}

}  // namespace
}  // namespace scanprim::vm
