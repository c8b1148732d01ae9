#include "src/vm/interpreter.hpp"

#include <atomic>
#include <span>

#include "src/core/ops.hpp"

namespace scanprim::vm {

namespace {
std::atomic<Interpreter::RunHook> g_run_hook{nullptr};
}  // namespace

void Interpreter::set_run_hook(RunHook hook) {
  g_run_hook.store(hook, std::memory_order_release);
}

Interpreter::RunHook Interpreter::run_hook() {
  return g_run_hook.load(std::memory_order_acquire);
}

namespace {

using I64 = std::int64_t;

Flags to_flags(const Vec& v) {
  Flags f(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) f[i] = v[i] != 0;
  return f;
}

std::vector<std::size_t> to_index(const Vec& v, std::size_t bound,
                                  std::size_t pc) {
  std::vector<std::size_t> idx(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] < 0 || static_cast<std::size_t>(v[i]) >= bound) {
      throw VmError("pc " + std::to_string(pc) + ": index " +
                    std::to_string(v[i]) + " out of range [0, " +
                    std::to_string(bound) + ")");
    }
    idx[i] = static_cast<std::size_t>(v[i]);
  }
  return idx;
}

Vec from_sizes(const std::vector<std::size_t>& v) {
  Vec out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = static_cast<I64>(v[i]);
  return out;
}

}  // namespace

void Interpreter::set_register(const std::string& name, Vec value) {
  registers_[name] = std::move(value);
}

const Vec& Interpreter::register_value(const std::string& name) const {
  const auto it = registers_.find(name);
  if (it == registers_.end()) throw VmError("no register '" + name + "'");
  return it->second;
}

Vec Interpreter::pop() {
  if (stack_.empty()) {
    throw VmError("pc " + std::to_string(pc_) + ": stack underflow");
  }
  Vec v = std::move(stack_.back());
  stack_.pop_back();
  return v;
}

const Vec& Interpreter::peek(std::size_t depth) const {
  if (stack_.size() <= depth) {
    throw VmError("pc " + std::to_string(pc_) + ": stack underflow");
  }
  return stack_[stack_.size() - 1 - depth];
}

void Interpreter::push(Vec v) { stack_.push_back(std::move(v)); }

void Interpreter::broadcast(Vec& a, Vec& b) {
  if (a.size() == b.size()) return;
  if (a.size() == 1) {
    m_.charge_broadcast(b.size());
    a.assign(b.size(), a[0]);
    return;
  }
  if (b.size() == 1) {
    m_.charge_broadcast(a.size());
    b.assign(a.size(), b[0]);
    return;
  }
  throw VmError("pc " + std::to_string(pc_) + ": length mismatch " +
                std::to_string(a.size()) + " vs " + std::to_string(b.size()));
}

void Interpreter::run(const Program& program, std::size_t max_instructions) {
  pc_ = 0;
  executed_ = 0;
  if (const RunHook hook = run_hook()) {
    if (hook(*this, program, max_instructions)) return;
  }
  while (pc_ < program.size()) {
    if (++executed_ > max_instructions) {
      throw VmError("instruction budget exceeded at pc " + std::to_string(pc_));
    }
    pc_ = step(program, pc_);
  }
}

std::size_t Interpreter::step(const Program& program, std::size_t pc) {
  pc_ = pc;

  const auto binary = [&](auto fn) {
    Vec b = pop();
    Vec a = pop();
    broadcast(a, b);
    push(m_.zip<I64>(std::span<const I64>(a), std::span<const I64>(b), fn));
  };
  const auto scan_with = [&](auto op) {
    const Vec a = pop();
    push(m_.scan(std::span<const I64>(a), op));
  };
  const auto backscan_with = [&](auto op) {
    const Vec a = pop();
    push(m_.backscan(std::span<const I64>(a), op));
  };
  const auto seg_scan_with = [&](auto op) {
    const Flags f = to_flags(pop());
    const Vec a = pop();
    if (f.size() != a.size()) {
      throw VmError("pc " + std::to_string(pc_) + ": segment flag length");
    }
    push(m_.seg_scan(std::span<const I64>(a), FlagsView(f), op));
  };
  const auto reduce_with = [&](auto op) {
    const Vec a = pop();
    push(Vec{m_.reduce(std::span<const I64>(a), op)});
  };
  const auto pop_scalar = [&]() -> I64 {
    const Vec v = pop();
    if (v.size() != 1) {
      throw VmError("pc " + std::to_string(pc_) + ": expected a scalar, got " +
                    std::to_string(v.size()) + " elements");
    }
    return v[0];
  };

  const Instruction& ins = program[pc_];
  std::size_t next = pc_ + 1;
  switch (ins.op) {
    case Op::PushConst:
      m_.charge_elementwise(static_cast<std::size_t>(ins.imm0));
      push(Vec(static_cast<std::size_t>(ins.imm0), ins.imm1));
      break;
    case Op::PushIndex: {
      const auto n = static_cast<std::size_t>(ins.imm0);
      Vec v(n);
      thread::parallel_for(n, [&](std::size_t i) {
        v[i] = static_cast<I64>(i);
      });
      push(std::move(v));
      break;
    }
    case Op::Dup: push(Vec(peek())); break;
    case Op::Pop: pop(); break;
    case Op::Swap: {
      Vec b = pop(), a = pop();
      push(std::move(b));
      push(std::move(a));
      break;
    }
    case Op::Over: push(Vec(peek(1))); break;
    case Op::Load: push(Vec(register_value(ins.name))); break;
    case Op::Store: registers_[ins.name] = pop(); break;
    case Op::Length: push(Vec{static_cast<I64>(peek().size())}); break;

    // Integer arithmetic wraps (core/ops.hpp); INT64_MIN / -1 wraps too.
    case Op::Add: binary([](I64 a, I64 b) { return wrapping_add(a, b); }); break;
    case Op::Sub: binary([](I64 a, I64 b) { return wrapping_sub(a, b); }); break;
    case Op::Mul: binary([](I64 a, I64 b) { return wrapping_mul(a, b); }); break;
    case Op::Div:
      binary([this](I64 a, I64 b) {
        if (b == 0) throw VmError("pc " + std::to_string(pc_) + ": div by 0");
        return b == -1 ? wrapping_sub(I64{0}, a) : a / b;
      });
      break;
    case Op::Mod:
      binary([this](I64 a, I64 b) {
        if (b == 0) throw VmError("pc " + std::to_string(pc_) + ": mod by 0");
        return b == -1 ? I64{0} : a % b;
      });
      break;
    case Op::MinOp: binary([](I64 a, I64 b) { return a < b ? a : b; }); break;
    case Op::MaxOp: binary([](I64 a, I64 b) { return a > b ? a : b; }); break;
    case Op::BitAnd: binary([](I64 a, I64 b) { return a & b; }); break;
    case Op::BitOr: binary([](I64 a, I64 b) { return a | b; }); break;
    case Op::BitXor: binary([](I64 a, I64 b) { return a ^ b; }); break;
    case Op::Shl:
      binary([](I64 a, I64 b) {
        return static_cast<I64>(static_cast<std::uint64_t>(a) << (b & 63));
      });
      break;
    case Op::Shr:
      binary([](I64 a, I64 b) {
        return static_cast<I64>(static_cast<std::uint64_t>(a) >> (b & 63));
      });
      break;
    case Op::Lt: binary([](I64 a, I64 b) -> I64 { return a < b; }); break;
    case Op::Le: binary([](I64 a, I64 b) -> I64 { return a <= b; }); break;
    case Op::Eq: binary([](I64 a, I64 b) -> I64 { return a == b; }); break;
    case Op::Ne: binary([](I64 a, I64 b) -> I64 { return a != b; }); break;
    case Op::Ge: binary([](I64 a, I64 b) -> I64 { return a >= b; }); break;
    case Op::Gt: binary([](I64 a, I64 b) -> I64 { return a > b; }); break;

    case Op::Neg: {
      const Vec a = pop();
      push(m_.map<I64>(std::span<const I64>(a),
                       [](I64 v) { return wrapping_sub(I64{0}, v); }));
      break;
    }
    case Op::Not: {
      const Vec a = pop();
      push(m_.map<I64>(std::span<const I64>(a),
                       [](I64 v) -> I64 { return v == 0; }));
      break;
    }
    case Op::Select: {
      Vec e = pop(), t = pop(), c = pop();
      broadcast(t, c);
      broadcast(e, c);
      broadcast(c, t);  // in case c was the scalar
      m_.charge_elementwise(c.size());
      Vec out(c.size());
      thread::parallel_for(c.size(), [&](std::size_t i) {
        out[i] = c[i] != 0 ? t[i] : e[i];
      });
      push(std::move(out));
      break;
    }

    case Op::PlusScan: scan_with(Plus<I64>{}); break;
    case Op::MaxScan: scan_with(Max<I64>{}); break;
    case Op::MinScan: scan_with(Min<I64>{}); break;
    case Op::OrScan: scan_with(Or<I64>{}); break;
    case Op::AndScan: scan_with(And<I64>{}); break;
    case Op::PlusBackscan: backscan_with(Plus<I64>{}); break;
    case Op::MaxBackscan: backscan_with(Max<I64>{}); break;
    case Op::MinBackscan: backscan_with(Min<I64>{}); break;
    case Op::SegPlusScan: seg_scan_with(Plus<I64>{}); break;
    case Op::SegMaxScan: seg_scan_with(Max<I64>{}); break;
    case Op::SegMinScan: seg_scan_with(Min<I64>{}); break;
    case Op::SegPlusBackscan: {
      const Flags f = to_flags(pop());
      const Vec a = pop();
      if (f.size() != a.size()) {
        throw VmError("pc " + std::to_string(pc_) + ": segment flag length");
      }
      push(m_.seg_backscan(std::span<const I64>(a), FlagsView(f),
                           Plus<I64>{}));
      break;
    }
    case Op::SegCopy: {
      const Flags f = to_flags(pop());
      const Vec a = pop();
      if (f.size() != a.size()) {
        throw VmError("pc " + std::to_string(pc_) + ": segment flag length");
      }
      push(m_.seg_copy(std::span<const I64>(a), FlagsView(f)));
      break;
    }
    case Op::SegPlusDistribute: {
      const Flags f = to_flags(pop());
      const Vec a = pop();
      if (f.size() != a.size()) {
        throw VmError("pc " + std::to_string(pc_) + ": segment flag length");
      }
      push(m_.seg_distribute(std::span<const I64>(a), FlagsView(f),
                             Plus<I64>{}));
      break;
    }
    case Op::SegEnumerate: {
      const Flags segs = to_flags(pop());
      const Vec fv = pop();
      if (segs.size() != fv.size()) {
        throw VmError("pc " + std::to_string(pc_) + ": segment flag length");
      }
      std::vector<I64> ints(fv.size());
      m_.charge_elementwise(fv.size());
      thread::parallel_for(fv.size(), [&](std::size_t i) {
        ints[i] = fv[i] != 0 ? 1 : 0;
      });
      push(m_.seg_scan(std::span<const I64>(ints), FlagsView(segs),
                       Plus<I64>{}));
      break;
    }

    case Op::PlusReduce: reduce_with(Plus<I64>{}); break;
    case Op::MaxReduce: reduce_with(Max<I64>{}); break;
    case Op::MinReduce: reduce_with(Min<I64>{}); break;
    case Op::OrReduce: reduce_with(Or<I64>{}); break;
    case Op::AndReduce: reduce_with(And<I64>{}); break;

    case Op::Permute: {
      const Vec iv = pop();
      const Vec a = pop();
      if (iv.size() != a.size()) {
        throw VmError("pc " + std::to_string(pc_) + ": permute lengths");
      }
      const auto idx = to_index(iv, a.size(), pc_);
      // An EREW permute: indices must be unique.
      std::vector<std::uint8_t> hit(a.size(), 0);
      for (const std::size_t i : idx) {
        if (hit[i]) {
          throw VmError("pc " + std::to_string(pc_) +
                        ": permute indices not unique");
        }
        hit[i] = 1;
      }
      push(m_.permute(std::span<const I64>(a),
                      std::span<const std::size_t>(idx)));
      break;
    }
    case Op::Gather: {
      const Vec iv = pop();
      const Vec a = pop();
      const auto idx = to_index(iv, a.size(), pc_);
      push(m_.gather(std::span<const I64>(a),
                     std::span<const std::size_t>(idx)));
      break;
    }
    case Op::Pack: {
      const Flags f = to_flags(pop());
      const Vec a = pop();
      if (f.size() != a.size()) {
        throw VmError("pc " + std::to_string(pc_) + ": pack lengths");
      }
      push(m_.pack(std::span<const I64>(a), FlagsView(f)));
      break;
    }
    case Op::SplitOp: {
      const Flags f = to_flags(pop());
      const Vec a = pop();
      if (f.size() != a.size()) {
        throw VmError("pc " + std::to_string(pc_) + ": split lengths");
      }
      push(m_.split(std::span<const I64>(a), FlagsView(f)));
      break;
    }
    case Op::Enumerate: {
      const Flags f = to_flags(pop());
      push(from_sizes(m_.enumerate(FlagsView(f))));
      break;
    }
    case Op::Distribute: {
      const I64 len = pop_scalar();
      const I64 value = pop_scalar();
      if (len < 0) throw VmError("distribute: negative length");
      m_.charge_broadcast(static_cast<std::size_t>(len));
      push(Vec(static_cast<std::size_t>(len), value));
      break;
    }

    case Op::Jump: next = static_cast<std::size_t>(ins.imm0); break;
    case Op::Jz:
      if (pop_scalar() == 0) next = static_cast<std::size_t>(ins.imm0);
      break;
    case Op::Jnz:
      if (pop_scalar() != 0) next = static_cast<std::size_t>(ins.imm0);
      break;
    case Op::Print: output_.push_back(pop()); break;
    case Op::Halt: return program.size();
  }
  return next;
}

}  // namespace scanprim::vm
