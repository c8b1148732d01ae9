// The compiled-plan execution engine (docs/PLAN.md).
//
// execute() walks the program pc by pc: instructions outside compiled
// regions run through Interpreter::step (ONE implementation of every op's
// semantics and charges), and each region evaluates its def graph against
// the interpreter's live stack, registers and machine. Region execution is
// transactional: the machine's StepStats are snapshotted, all side effects
// (prints, stores, pushes) are deferred to a commit, and ANY failure while
// binding or running — a shape the executor cannot express, a bad permute
// index, a missing register, an injected fault — rolls the snapshot back
// and re-runs the region through the interpreter. Compiled and interpreted
// runs therefore produce identical outputs, registers, integer charge
// counters and error messages by construction; only bit_cycles (a float
// accumulated in charge order) may differ in low bits, because a region
// charges its stages in dataflow rather than program order.
//
// Chains replay their compile-time exec::PreparedGroups, so a cache-hit
// dispatch does zero record/fuse analysis (exec::Stats::plan_reuses counts
// the runs; fuse_runs stays 0).
#include <cstring>

#include "src/core/ops.hpp"
#include "src/obs/obs.hpp"
#include "src/plan/plan.hpp"
#include "src/thread/thread_pool.hpp"

namespace scanprim::plan {

namespace {

using vm::VmError;

/// Thrown when a region cannot bind at run time; never escapes run_region.
struct Abandon {};

/// Evaluates a region's defs in dependency order against the live machine.
class Evaluator {
 public:
  Evaluator(const Region& r, vm::Interpreter& interp, exec::Executor& ex,
            std::vector<Vec> popped)
      : r_(r),
        interp_(interp),
        m_(interp.machine()),
        ex_(ex),
        popped_(std::move(popped)),
        slots_(r.values.size()),
        done_(r.values.size(), 0) {}

  void eval_all() {
    for (std::uint32_t id = 0; id < slots_.size(); ++id) eval(id);
  }

  Vec& slot(std::uint32_t id) { return slots_[id]; }
  bool evaluated(std::uint32_t id) const { return done_[id] != 0; }
  const exec::Stats& exec_stats() const { return exec_stats_; }

  /// Stack values in pop order, for restoring on abandon.
  std::vector<Vec>& popped() { return popped_; }

 private:
  const Vec& eval(std::uint32_t id) {
    if (done_[id]) return slots_[id];
    done_[id] = 1;  // defs are acyclic: safe to mark before recursing
    const ValueDef& d = r_.values[id];
    switch (d.kind) {
      case ValueDef::Kind::kStackIn:
        slots_[id] = std::move(popped_[d.depth]);
        break;
      case ValueDef::Kind::kLiteral: {
        const auto n = static_cast<std::size_t>(d.len);
        m_.charge_elementwise(n);
        slots_[id] = Vec(n, d.fill);
        break;
      }
      case ValueDef::Kind::kIota: {
        const auto n = static_cast<std::size_t>(d.len);
        Vec v(n);
        thread::parallel_for(n,
                             [&](std::size_t i) { v[i] = static_cast<I64>(i); });
        slots_[id] = std::move(v);
        break;
      }
      case ValueDef::Kind::kRegIn:
        // Existence check only (throws VmError when absent -> abandon ->
        // the interpreter rerun reports it with the exact pc). The slot
        // stays empty: readers borrow the register's storage via view(),
        // and the commit materialises the interpreter's Load copy only
        // when the value escapes the region (see run_region). Registers
        // are stable until commit, so the borrow cannot dangle.
        (void)interp_.register_value(d.reg);
        break;
      case ValueDef::Kind::kChain:
        slots_[id] = eval_chain(d);
        break;
      case ValueDef::Kind::kDirect:
        slots_[id] = eval_direct(d);
        break;
    }
    return slots_[id];
  }

  /// Read-only view of a def's value. kRegIn defs hand out the register's
  /// own storage, skipping the Load copy the interpreter makes — the copy
  /// is unobservable (and uncharged) unless the value leaves the region.
  std::span<const I64> view(std::uint32_t id) {
    const ValueDef& d = r_.values[id];
    if (d.kind == ValueDef::Kind::kRegIn) {
      eval(id);  // existence check
      return std::span<const I64>(interp_.register_value(d.reg));
    }
    return std::span<const I64>(eval(id));
  }

  Vec eval_chain(const ValueDef& d) {
    const std::span<const I64> in = view(d.input);
    const std::size_t n = in.size();
    exec::Pipeline<I64> p = exec::source(in);
    // Converted flag / index operands must outlive the run; Flags and
    // index vectors own heap buffers, so growth here never moves the data
    // the recorded FlagsView / span point at.
    std::vector<Flags> flag_bufs;
    std::vector<std::vector<std::size_t>> index_bufs;
    flag_bufs.reserve(d.stages.size());
    index_bufs.reserve(d.stages.size());
    for (const StageRecipe& s : d.stages) {
      bind_stage(p, s, n, flag_bufs, index_bufs);
    }
    Vec out = ex_.run(p, d.groups);
    exec_stats_ += ex_.stats();
    return out;
  }

  template <class F>
  void bind_binary(exec::Pipeline<I64>& p, const StageRecipe& s,
                   std::size_t n, F fn) {
    const std::span<const I64> o = view(s.operand);
    if (o.size() == n) {
      const std::span<const I64> sp = o;
      if (!s.reversed) {
        p = std::move(p) | exec::zip(sp, [fn](I64 d, I64 x) { return fn(d, x); });
      } else {
        p = std::move(p) | exec::zip(sp, [fn](I64 d, I64 x) { return fn(x, d); });
      }
      m_.charge_elementwise(n);
      return;
    }
    if (o.size() == 1) {  // n != 1 here: the scalar side broadcasts up
      m_.charge_broadcast(n);
      const I64 sc = o[0];
      if (!s.reversed) {
        p = std::move(p) | exec::map([fn, sc](I64 d) { return fn(d, sc); });
      } else {
        p = std::move(p) | exec::map([fn, sc](I64 d) { return fn(sc, d); });
      }
      m_.charge_elementwise(n);
      return;
    }
    // Length mismatch, or a scalar chain against a vector operand (the
    // result would outgrow the pipeline): the interpreter's broadcast
    // handles both, with its error message when neither side is scalar.
    throw Abandon{};
  }

  template <template <class> class OpT>
  void bind_scan(exec::Pipeline<I64>& p, bool backward) {
    if (!backward) {
      p = std::move(p) | exec::scan<OpT>();
    } else {
      p = std::move(p) | exec::backscan<OpT>();
    }
  }

  template <template <class> class OpT>
  void bind_seg_scan(exec::Pipeline<I64>& p, const StageRecipe& s,
                     std::size_t n, std::vector<Flags>& flag_bufs,
                     bool backward) {
    const std::span<const I64> f = view(s.operand);
    if (f.size() != n) throw Abandon{};  // "segment flag length"
    flag_bufs.push_back(to_flags(f));
    const FlagsView fv(flag_bufs.back());
    if (!backward) {
      p = std::move(p) | exec::seg_scan<OpT>(fv);
    } else {
      p = std::move(p) | exec::seg_backscan<OpT>(fv);
    }
  }

  void bind_stage(exec::Pipeline<I64>& p, const StageRecipe& s, std::size_t n,
                  std::vector<Flags>& flag_bufs,
                  std::vector<std::vector<std::size_t>>& index_bufs) {
    switch (s.op) {
      case SOp::kAdd: bind_binary(p, s, n, [](I64 a, I64 b) { return wrapping_add(a, b); }); return;
      case SOp::kSub: bind_binary(p, s, n, [](I64 a, I64 b) { return wrapping_sub(a, b); }); return;
      case SOp::kMul: bind_binary(p, s, n, [](I64 a, I64 b) { return wrapping_mul(a, b); }); return;
      case SOp::kDiv:
        bind_binary(p, s, n, [](I64 a, I64 b) {
          if (b == 0) throw VmError("div by 0");  // abandon reinterprets
          return b == -1 ? wrapping_sub(I64{0}, a) : a / b;
        });
        return;
      case SOp::kMod:
        bind_binary(p, s, n, [](I64 a, I64 b) {
          if (b == 0) throw VmError("mod by 0");
          return b == -1 ? I64{0} : a % b;
        });
        return;
      case SOp::kMin: bind_binary(p, s, n, [](I64 a, I64 b) { return a < b ? a : b; }); return;
      case SOp::kMax: bind_binary(p, s, n, [](I64 a, I64 b) { return a > b ? a : b; }); return;
      case SOp::kBitAnd: bind_binary(p, s, n, [](I64 a, I64 b) { return a & b; }); return;
      case SOp::kBitOr: bind_binary(p, s, n, [](I64 a, I64 b) { return a | b; }); return;
      case SOp::kBitXor: bind_binary(p, s, n, [](I64 a, I64 b) { return a ^ b; }); return;
      case SOp::kShl:
        bind_binary(p, s, n, [](I64 a, I64 b) {
          return static_cast<I64>(static_cast<std::uint64_t>(a) << (b & 63));
        });
        return;
      case SOp::kShr:
        bind_binary(p, s, n, [](I64 a, I64 b) {
          return static_cast<I64>(static_cast<std::uint64_t>(a) >> (b & 63));
        });
        return;
      case SOp::kLt: bind_binary(p, s, n, [](I64 a, I64 b) -> I64 { return a < b; }); return;
      case SOp::kLe: bind_binary(p, s, n, [](I64 a, I64 b) -> I64 { return a <= b; }); return;
      case SOp::kEq: bind_binary(p, s, n, [](I64 a, I64 b) -> I64 { return a == b; }); return;
      case SOp::kNe: bind_binary(p, s, n, [](I64 a, I64 b) -> I64 { return a != b; }); return;
      case SOp::kGe: bind_binary(p, s, n, [](I64 a, I64 b) -> I64 { return a >= b; }); return;
      case SOp::kGt: bind_binary(p, s, n, [](I64 a, I64 b) -> I64 { return a > b; }); return;

      case SOp::kNeg:
        p = std::move(p) | exec::map([](I64 d) { return wrapping_sub(I64{0}, d); });
        apply_charge(s.charge, n);
        return;
      case SOp::kFlag01:
        p = std::move(p) | exec::map([](I64 d) -> I64 { return d != 0; });
        apply_charge(s.charge, n);
        return;
      case SOp::kFlag10:
        p = std::move(p) | exec::map([](I64 d) -> I64 { return d == 0; });
        apply_charge(s.charge, n);
        return;

      case SOp::kSelect: {
        const std::span<const I64> x = view(s.operand);
        const std::span<const I64> y = view(s.operand2);
        const auto fits = [n](std::span<const I64> v) {
          return v.size() == n || v.size() == 1;
        };
        // A scalar flowing value with vector operands would broadcast up
        // past the pipeline's length; everything else binds here.
        if (!fits(x) || !fits(y) || (n == 1 && (x.size() != 1 || y.size() != 1))) {
          throw Abandon{};
        }
        if (x.size() == 1 && n > 1) m_.charge_broadcast(n);
        if (y.size() == 1 && n > 1) m_.charge_broadcast(n);
        struct Src {
          const I64* p;
          I64 s;
          I64 at(std::size_t i) const { return p ? p[i] : s; }
        };
        const Src sx = x.size() == 1 ? Src{nullptr, x[0]} : Src{x.data(), 0};
        const Src sy = y.size() == 1 ? Src{nullptr, y[0]} : Src{y.data(), 0};
        exec::Node<I64> node;
        node.kind = exec::StageKind::Zip;
        switch (s.select_role) {
          case 0:  // condition flows; x = then, y = else
            node.apply = [sx, sy](I64* d, std::size_t b, std::size_t c) {
              for (std::size_t j = 0; j < c; ++j) {
                d[j] = d[j] != 0 ? sx.at(b + j) : sy.at(b + j);
              }
            };
            break;
          case 1:  // then flows; x = condition, y = else
            node.apply = [sx, sy](I64* d, std::size_t b, std::size_t c) {
              for (std::size_t j = 0; j < c; ++j) {
                if (sx.at(b + j) == 0) d[j] = sy.at(b + j);
              }
            };
            break;
          default:  // else flows; x = condition, y = then
            node.apply = [sx, sy](I64* d, std::size_t b, std::size_t c) {
              for (std::size_t j = 0; j < c; ++j) {
                if (sx.at(b + j) != 0) d[j] = sy.at(b + j);
              }
            };
            break;
        }
        p.nodes.push_back(std::move(node));
        m_.charge_elementwise(n);
        return;
      }

      case SOp::kPlusScan: bind_scan<Plus>(p, false); apply_charge(s.charge, n); return;
      case SOp::kMaxScan: bind_scan<Max>(p, false); apply_charge(s.charge, n); return;
      case SOp::kMinScan: bind_scan<Min>(p, false); apply_charge(s.charge, n); return;
      case SOp::kOrScan: bind_scan<Or>(p, false); apply_charge(s.charge, n); return;
      case SOp::kAndScan: bind_scan<And>(p, false); apply_charge(s.charge, n); return;
      case SOp::kPlusBackscan: bind_scan<Plus>(p, true); apply_charge(s.charge, n); return;
      case SOp::kMaxBackscan: bind_scan<Max>(p, true); apply_charge(s.charge, n); return;
      case SOp::kMinBackscan: bind_scan<Min>(p, true); apply_charge(s.charge, n); return;
      case SOp::kSegPlusScan:
        bind_seg_scan<Plus>(p, s, n, flag_bufs, false);
        apply_charge(s.charge, n);
        return;
      case SOp::kSegMaxScan:
        bind_seg_scan<Max>(p, s, n, flag_bufs, false);
        apply_charge(s.charge, n);
        return;
      case SOp::kSegMinScan:
        bind_seg_scan<Min>(p, s, n, flag_bufs, false);
        apply_charge(s.charge, n);
        return;
      case SOp::kSegPlusBackscan:
        bind_seg_scan<Plus>(p, s, n, flag_bufs, true);
        apply_charge(s.charge, n);
        return;

      case SOp::kPack: {
        const std::span<const I64> f = view(s.operand);
        if (f.size() != n) throw Abandon{};  // "pack lengths"
        flag_bufs.push_back(to_flags(f));
        p = std::move(p) | exec::pack(FlagsView(flag_bufs.back()));
        // machine::Machine::pack: enumerate's scan + the kept count + scatter.
        m_.charge_scan(n);
        m_.charge_combine(n);
        m_.charge_permute(n);
        return;
      }

      case SOp::kPermute: {
        const std::span<const I64> iv = view(s.operand);
        if (iv.size() != n) throw Abandon{};  // "permute lengths"
        index_bufs.emplace_back(iv.size());
        std::vector<std::size_t>& idx = index_bufs.back();
        if (s.checked) {
          // The interpreter's bounds + EREW uniqueness checks, charge-free.
          std::vector<std::uint8_t> hit(n, 0);
          for (std::size_t i = 0; i < iv.size(); ++i) {
            if (iv[i] < 0 || static_cast<std::size_t>(iv[i]) >= n) {
              throw Abandon{};  // "index ... out of range"
            }
            idx[i] = static_cast<std::size_t>(iv[i]);
            if (hit[idx[i]]) throw Abandon{};  // "indices not unique"
            hit[idx[i]] = 1;
          }
        } else {
          // Split's indices are a permutation by construction (the machine
          // skips the checks the same way).
          for (std::size_t i = 0; i < iv.size(); ++i) {
            idx[i] = static_cast<std::size_t>(iv[i]);
          }
        }
        p = std::move(p) | exec::permute(std::span<const std::size_t>(idx));
        apply_charge(s.charge, n);
        return;
      }

      case SOp::kGather: {
        // The flowing value is the *index*; out-of-range entries surface
        // mid-run, abandon, and reinterpret into to_index's exact error.
        const std::span<const I64> src = view(s.operand);
        const I64* base = src.data();
        const auto bound = static_cast<I64>(src.size());
        p = std::move(p) | exec::map([base, bound](I64 d) -> I64 {
              if (d < 0 || d >= bound) throw VmError("gather index range");
              return base[d];
            });
        apply_charge(s.charge, n);
        return;
      }

      case SOp::kSplitTop: {
        const std::span<const I64> f = view(s.operand);
        if (f.size() != n) throw Abandon{};
        const I64* fp = f.data();
        const auto nn = static_cast<I64>(n);
        exec::Node<I64> node;
        node.kind = exec::StageKind::Zip;
        node.apply = [fp, nn](I64* d, std::size_t b, std::size_t c) {
          for (std::size_t j = 0; j < c; ++j) {
            d[j] = fp[b + j] != 0 ? nn - d[j] - 1 : kSplitTake;
          }
        };
        p.nodes.push_back(std::move(node));
        apply_charge(s.charge, n);
        return;
      }
      case SOp::kSplitMerge: {
        const std::span<const I64> down = view(s.operand);
        if (down.size() != n) throw Abandon{};
        p = std::move(p) |
            exec::zip(down, [](I64 d, I64 dn) {
              return d == kSplitTake ? dn : d;
            });
        apply_charge(s.charge, n);
        return;
      }
    }
    throw Abandon{};  // unreachable: every SOp is handled above
  }

  void apply_charge(Charge c, std::size_t n) {
    switch (c) {
      case Charge::kNone: return;
      case Charge::kElementwise: m_.charge_elementwise(n); return;
      case Charge::kScan: m_.charge_scan(n); return;
      case Charge::kPermute: m_.charge_permute(n); return;
    }
  }

  Vec eval_direct(const ValueDef& d) {
    switch (d.direct_op) {
      case vm::Op::Length: {
        return Vec{static_cast<I64>(view(d.input).size())};
      }
      case vm::Op::PlusReduce: return reduce_direct(d, Plus<I64>{});
      case vm::Op::MaxReduce: return reduce_direct(d, Max<I64>{});
      case vm::Op::MinReduce: return reduce_direct(d, Min<I64>{});
      case vm::Op::OrReduce: return reduce_direct(d, Or<I64>{});
      case vm::Op::AndReduce: return reduce_direct(d, And<I64>{});
      case vm::Op::SegCopy: {
        const std::span<const I64> a = view(d.input);
        const std::span<const I64> f = view(d.input2);
        if (f.size() != a.size()) throw Abandon{};
        const Flags fl = to_flags(f);
        return m_.seg_copy(a, FlagsView(fl));
      }
      case vm::Op::SegPlusDistribute: {
        const std::span<const I64> a = view(d.input);
        const std::span<const I64> f = view(d.input2);
        if (f.size() != a.size()) throw Abandon{};
        const Flags fl = to_flags(f);
        return m_.seg_distribute(a, FlagsView(fl), Plus<I64>{});
      }
      case vm::Op::Distribute: {
        const std::span<const I64> value = view(d.input);
        const std::span<const I64> len = view(d.input2);
        if (len.size() != 1 || value.size() != 1 || len[0] < 0) {
          throw Abandon{};  // scalar / negative-length errors
        }
        const auto n = static_cast<std::size_t>(len[0]);
        m_.charge_broadcast(n);
        return Vec(n, value[0]);
      }
      default:
        throw Abandon{};  // unreachable: the compiler only emits the above
    }
  }

  template <class OpT>
  Vec reduce_direct(const ValueDef& d, OpT op) {
    return Vec{m_.reduce(view(d.input), op)};
  }

  static Flags to_flags(std::span<const I64> v) {
    Flags f(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) f[i] = v[i] != 0;
    return f;
  }

  const Region& r_;
  vm::Interpreter& interp_;
  machine::Machine& m_;
  exec::Executor& ex_;
  std::vector<Vec> popped_;  ///< runtime stack values, pop order (top first)
  std::vector<Vec> slots_;
  std::vector<std::uint8_t> done_;
  exec::Stats exec_stats_;
};

/// Re-run [pc_begin, pc_end) through the interpreter, counting each
/// instruction. Straight-line by construction, so execution falls off the
/// region's end (or throws the interpreter's exact error mid-way).
void reinterpret_region(vm::Interpreter& interp, const vm::Program& program,
                        const Region& r) {
  for (std::size_t pc = r.pc_begin; pc < r.pc_end;) {
    interp.count_executed(1);
    pc = interp.step(program, pc);
  }
}

/// One region, transactionally. The caller has verified the instruction
/// budget covers the whole region.
void run_region(vm::Interpreter& interp, const vm::Program& program,
                const Region& r, exec::Executor& ex, exec::Stats* stats) {
  machine::Machine& m = interp.machine();
  if (interp.stack_depth() < r.pops) {
    // Underflow: the interpreter rerun throws it at the exact pc.
    reinterpret_region(interp, program, r);
    return;
  }
  const machine::StepStats snapshot = m.stats();
  std::vector<Vec> popped(r.pops);
  for (std::size_t i = 0; i < r.pops; ++i) popped[i] = interp.pop_value();

  Evaluator ev(r, interp, ex, std::move(popped));
  try {
    ev.eval_all();
  } catch (...) {
    // Roll back: restore charges and the stack (kStackIn slots may have
    // been moved out — put whichever copy survives back), then replay the
    // region interpreted for exact semantics, charges and error messages.
    m.set_stats(snapshot);
    for (std::uint32_t id = 0; id < r.values.size(); ++id) {
      const ValueDef& d = r.values[id];
      if (d.kind == ValueDef::Kind::kStackIn && ev.evaluated(id)) {
        ev.popped()[d.depth] = std::move(ev.slot(id));
      }
    }
    for (std::size_t i = r.pops; i-- > 0;) {
      interp.push_value(std::move(ev.popped()[i]));
    }
    reinterpret_region(interp, program, r);
    return;
  }

  // Commit: prints, register stores, then the exit stack (bottom first).
  // Values move on their last use, mirroring the interpreter's moves.
  std::vector<std::uint32_t> refs(r.values.size(), 0);
  for (const std::uint32_t id : r.prints) ++refs[id];
  for (const auto& [name, id] : r.stores) ++refs[id];
  for (const std::uint32_t id : r.pushes) ++refs[id];
  // kRegIn slots stay empty during evaluation (readers borrow the register's
  // storage); an escaping register value materialises its Load copy here,
  // BEFORE any store commits — a later store to the same register must not
  // change what an earlier Load put on the stack.
  for (std::uint32_t id = 0; id < r.values.size(); ++id) {
    const ValueDef& d = r.values[id];
    if (refs[id] > 0 && d.kind == ValueDef::Kind::kRegIn) {
      ev.slot(id) = Vec(interp.register_value(d.reg));
    }
  }
  const auto take = [&](std::uint32_t id) -> Vec {
    if (--refs[id] == 0) return std::move(ev.slot(id));
    return Vec(ev.slot(id));
  };
  for (const std::uint32_t id : r.prints) interp.append_output(take(id));
  for (const auto& [name, id] : r.stores) interp.set_register(name, take(id));
  for (const std::uint32_t id : r.pushes) interp.push_value(take(id));
  interp.count_executed(r.instructions);
  if (stats) *stats += ev.exec_stats();
}

}  // namespace

void execute(vm::Interpreter& interp, const vm::Program& program,
             const CompiledProgram& plan, std::size_t max_instructions,
             exec::Executor& ex, exec::Stats* stats) {
  const std::size_t size = program.size();
  std::size_t pc = 0;
  while (pc < size) {
    const std::int32_t ri = plan.region_at[pc];
    if (ri >= 0) {
      const Region& r = plan.regions[static_cast<std::size_t>(ri)];
      if (interp.instructions_executed() + r.instructions > max_instructions) {
        // The budget runs out mid-region: step interpreted so the budget
        // error fires at the interpreter's exact pc.
        for (std::size_t ipc = r.pc_begin; ipc < r.pc_end;) {
          interp.count_executed(1);
          if (interp.instructions_executed() > max_instructions) {
            throw VmError("instruction budget exceeded at pc " +
                          std::to_string(ipc));
          }
          ipc = interp.step(program, ipc);
        }
      } else {
        interp.set_pc(r.pc_begin);
        run_region(interp, program, r, ex, stats);
      }
      pc = r.pc_end;
      continue;
    }
    interp.count_executed(1);
    if (interp.instructions_executed() > max_instructions) {
      throw VmError("instruction budget exceeded at pc " + std::to_string(pc));
    }
    pc = interp.step(program, pc);
  }
}

namespace {

bool plan_hook(vm::Interpreter& interp, const vm::Program& program,
               std::size_t max_instructions) {
  if (!enabled()) return false;
  const std::shared_ptr<const CompiledProgram> plan =
      Cache::instance().get(program);
  if (!plan) return false;  // declined or faulted: pure interpretation
  // One executor (and arena working set) per thread: the serve batcher and
  // tests may dispatch programs from many threads concurrently.
  static thread_local exec::Executor tl_executor;
  execute(interp, program, *plan, max_instructions, tl_executor);
  return true;
}

const bool g_hook_installed = [] {
  vm::Interpreter::set_run_hook(&plan_hook);
  return true;
}();

}  // namespace

bool ensure_hook() { return g_hook_installed; }

}  // namespace scanprim::plan
