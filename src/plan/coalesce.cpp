// Merged execution of one plan over many jobs' registers (coalesce.hpp).
//
// The evaluator below is engine.cpp's Evaluator transposed: instead of one
// job's registers it works over the CONCATENATION of every job's registers,
// tracking each def's per-job lengths so printed vectors split back exactly.
// The transposition table:
//   - kRegIn        -> concatenate the jobs' registers (missing one: bail)
//   - elementwise   -> unchanged (position-local, so concat-invariant)
//   - binary / select operands must match the flowing value's per-job
//     lengths EXACTLY — scalar broadcast inside a merged run would need one
//     scalar per job, which a single pipeline stage cannot express, so any
//     mismatch bails to per-job execution instead
//   - forward scan  -> segmented scan over the job-boundary flags
//   - segmented forward scan -> segmented scan over the operand's flags OR'd
//     with the job boundaries (each job's first element starts a segment,
//     which is exactly the per-job semantics of "a segmented scan restarts
//     at the vector start")
// Each chain replays the plan's compile-time exec::PreparedGroups: the fuser
// treats Scan and SegScan identically (a group holds at most one of either)
// and the executor reads segment flags off the node, not the groups, so the
// swap leaves the prepared shape valid — and counted as ONE plan_reuse per
// chain for the whole merged batch.
//
// No machine, no interpreter, no charges: the serving layer only surfaces a
// PlanJob's printed vectors, and every failure path returns false so the
// caller's per-job fallback reproduces exact outputs, charges and errors.
#include "src/plan/coalesce.hpp"

#include <cstddef>
#include <utility>

#include "src/core/ops.hpp"
#include "src/core/segmented.hpp"
#include "src/obs/obs.hpp"
#include "src/vm/interpreter.hpp"

namespace scanprim::plan {

namespace {

using vm::VmError;

/// Thrown when the merged form cannot bind; never escapes execute_coalesced.
struct Bail {};

using RegMap = std::map<std::string, Vec>;
/// A def's length in each job (defs keep per-job lengths: nothing admitted
/// by coalescable() changes a vector's length).
using Lens = std::vector<std::size_t>;

bool stage_ok(SOp op) {
  switch (op) {
    case SOp::kAdd:
    case SOp::kSub:
    case SOp::kMul:
    case SOp::kDiv:
    case SOp::kMod:
    case SOp::kMin:
    case SOp::kMax:
    case SOp::kBitAnd:
    case SOp::kBitOr:
    case SOp::kBitXor:
    case SOp::kShl:
    case SOp::kShr:
    case SOp::kLt:
    case SOp::kLe:
    case SOp::kEq:
    case SOp::kNe:
    case SOp::kGe:
    case SOp::kGt:
    case SOp::kNeg:
    case SOp::kFlag01:
    case SOp::kFlag10:
    case SOp::kSelect:
    case SOp::kPlusScan:
    case SOp::kMaxScan:
    case SOp::kMinScan:
    case SOp::kOrScan:
    case SOp::kAndScan:
    case SOp::kSegPlusScan:
    case SOp::kSegMaxScan:
    case SOp::kSegMinScan:
      return true;
    // Backward scans would need a boundary convention this pass does not
    // prove; pack/permute/gather/split move data across positions, which is
    // not concat-invariant.
    case SOp::kPlusBackscan:
    case SOp::kMaxBackscan:
    case SOp::kMinBackscan:
    case SOp::kSegPlusBackscan:
    case SOp::kPack:
    case SOp::kPermute:
    case SOp::kGather:
    case SOp::kSplitTop:
    case SOp::kSplitMerge:
      return false;
  }
  return false;
}

/// Evaluates the region's defs over the jobs' concatenated registers.
class Merged {
 public:
  Merged(const Region& r, std::span<const RegMap* const> jobs,
         exec::Executor& ex)
      : r_(r),
        jobs_(jobs),
        ex_(ex),
        slots_(r.values.size()),
        lens_(r.values.size()),
        done_(r.values.size(), 0) {}

  void eval_all() {
    for (std::uint32_t id = 0; id < slots_.size(); ++id) eval(id);
  }

  const Vec& slot(std::uint32_t id) const { return slots_[id]; }
  const Lens& lens(std::uint32_t id) const { return lens_[id]; }
  const exec::Stats& exec_stats() const { return exec_stats_; }

 private:
  const Vec& eval(std::uint32_t id) {
    if (done_[id]) return slots_[id];
    done_[id] = 1;  // defs are acyclic: safe to mark before recursing
    const ValueDef& d = r_.values[id];
    switch (d.kind) {
      case ValueDef::Kind::kRegIn: {
        Lens lens(jobs_.size());
        std::size_t total = 0;
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
          const auto it = jobs_[j]->find(d.reg);
          if (it == jobs_[j]->end()) throw Bail{};  // per-job run reports it
          lens[j] = it->second.size();
          total += lens[j];
        }
        Vec merged;
        merged.reserve(total);
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
          const Vec& v = jobs_[j]->at(d.reg);
          merged.insert(merged.end(), v.begin(), v.end());
        }
        slots_[id] = std::move(merged);
        lens_[id] = std::move(lens);
        break;
      }
      case ValueDef::Kind::kChain:
        slots_[id] = eval_chain(d);
        lens_[id] = lens_[d.input];  // nothing admitted changes lengths
        break;
      default:
        throw Bail{};  // coalescable() admits only the kinds above
    }
    return slots_[id];
  }

  Vec eval_chain(const ValueDef& d) {
    const Vec& in = eval(d.input);
    const Lens& lens = lens_[d.input];
    const std::size_t n = in.size();
    exec::Pipeline<I64> p = exec::source(std::span<const I64>(in));
    // Segment-flag buffers must outlive the run (the recorded FlagsViews
    // point into them); Flags owns a heap buffer, so vector growth here
    // never moves the flagged data.
    std::vector<Flags> flag_bufs;
    flag_bufs.reserve(d.stages.size());
    for (const StageRecipe& s : d.stages) {
      bind_stage(p, s, n, lens, flag_bufs);
    }
    Vec out = ex_.run(p, d.groups);
    exec_stats_ += ex_.stats();
    return out;
  }

  /// The operand must be the same shape as the flowing value in EVERY job;
  /// see the file comment for why scalar broadcast cannot merge.
  const Vec& matched_operand(std::uint32_t id, std::size_t n,
                             const Lens& lens) {
    const Vec& o = eval(id);
    if (o.size() != n || lens_[id] != lens) throw Bail{};
    return o;
  }

  template <class F>
  void bind_binary(exec::Pipeline<I64>& p, const StageRecipe& s,
                   std::size_t n, const Lens& lens, F fn) {
    const std::span<const I64> sp(matched_operand(s.operand, n, lens));
    if (!s.reversed) {
      p = std::move(p) | exec::zip(sp, [fn](I64 d, I64 x) { return fn(d, x); });
    } else {
      p = std::move(p) | exec::zip(sp, [fn](I64 d, I64 x) { return fn(x, d); });
    }
  }

  /// Job-boundary segment flags: each job's first element starts a segment.
  static Flags boundaries(const Lens& lens, std::size_t n) {
    Flags f(n, 0);
    std::size_t at = 0;
    for (const std::size_t l : lens) {
      if (l > 0) f[at] = 1;
      at += l;
    }
    return f;
  }

  /// A plain forward scan becomes a segmented scan over the job boundaries.
  template <template <class> class OpT>
  void bind_boundary_scan(exec::Pipeline<I64>& p, std::size_t n,
                          const Lens& lens, std::vector<Flags>& flag_bufs) {
    flag_bufs.push_back(boundaries(lens, n));
    p = std::move(p) | exec::seg_scan<OpT>(FlagsView(flag_bufs.back()));
  }

  /// A segmented forward scan keeps its own flags, OR'd with the boundaries.
  template <template <class> class OpT>
  void bind_merged_seg_scan(exec::Pipeline<I64>& p, const StageRecipe& s,
                            std::size_t n, const Lens& lens,
                            std::vector<Flags>& flag_bufs) {
    const Vec& f = matched_operand(s.operand, n, lens);
    Flags fl(n);
    for (std::size_t i = 0; i < n; ++i) fl[i] = f[i] != 0;
    std::size_t at = 0;
    for (const std::size_t l : lens) {
      if (l > 0) fl[at] = 1;
      at += l;
    }
    flag_bufs.push_back(std::move(fl));
    p = std::move(p) | exec::seg_scan<OpT>(FlagsView(flag_bufs.back()));
  }

  void bind_stage(exec::Pipeline<I64>& p, const StageRecipe& s, std::size_t n,
                  const Lens& lens, std::vector<Flags>& flag_bufs) {
    switch (s.op) {
      case SOp::kAdd: bind_binary(p, s, n, lens, [](I64 a, I64 b) { return wrapping_add(a, b); }); return;
      case SOp::kSub: bind_binary(p, s, n, lens, [](I64 a, I64 b) { return wrapping_sub(a, b); }); return;
      case SOp::kMul: bind_binary(p, s, n, lens, [](I64 a, I64 b) { return wrapping_mul(a, b); }); return;
      case SOp::kDiv:
        bind_binary(p, s, n, lens, [](I64 a, I64 b) {
          if (b == 0) throw VmError("div by 0");  // bail: per-job rerun
          return b == -1 ? wrapping_sub(I64{0}, a) : a / b;
        });
        return;
      case SOp::kMod:
        bind_binary(p, s, n, lens, [](I64 a, I64 b) {
          if (b == 0) throw VmError("mod by 0");
          return b == -1 ? I64{0} : a % b;
        });
        return;
      case SOp::kMin: bind_binary(p, s, n, lens, [](I64 a, I64 b) { return a < b ? a : b; }); return;
      case SOp::kMax: bind_binary(p, s, n, lens, [](I64 a, I64 b) { return a > b ? a : b; }); return;
      case SOp::kBitAnd: bind_binary(p, s, n, lens, [](I64 a, I64 b) { return a & b; }); return;
      case SOp::kBitOr: bind_binary(p, s, n, lens, [](I64 a, I64 b) { return a | b; }); return;
      case SOp::kBitXor: bind_binary(p, s, n, lens, [](I64 a, I64 b) { return a ^ b; }); return;
      case SOp::kShl:
        bind_binary(p, s, n, lens, [](I64 a, I64 b) {
          return static_cast<I64>(static_cast<std::uint64_t>(a) << (b & 63));
        });
        return;
      case SOp::kShr:
        bind_binary(p, s, n, lens, [](I64 a, I64 b) {
          return static_cast<I64>(static_cast<std::uint64_t>(a) >> (b & 63));
        });
        return;
      case SOp::kLt: bind_binary(p, s, n, lens, [](I64 a, I64 b) -> I64 { return a < b; }); return;
      case SOp::kLe: bind_binary(p, s, n, lens, [](I64 a, I64 b) -> I64 { return a <= b; }); return;
      case SOp::kEq: bind_binary(p, s, n, lens, [](I64 a, I64 b) -> I64 { return a == b; }); return;
      case SOp::kNe: bind_binary(p, s, n, lens, [](I64 a, I64 b) -> I64 { return a != b; }); return;
      case SOp::kGe: bind_binary(p, s, n, lens, [](I64 a, I64 b) -> I64 { return a >= b; }); return;
      case SOp::kGt: bind_binary(p, s, n, lens, [](I64 a, I64 b) -> I64 { return a > b; }); return;

      case SOp::kNeg:
        p = std::move(p) | exec::map([](I64 d) { return wrapping_sub(I64{0}, d); });
        return;
      case SOp::kFlag01:
        p = std::move(p) | exec::map([](I64 d) -> I64 { return d != 0; });
        return;
      case SOp::kFlag10:
        p = std::move(p) | exec::map([](I64 d) -> I64 { return d == 0; });
        return;

      case SOp::kSelect: {
        const I64* xp = matched_operand(s.operand, n, lens).data();
        const I64* yp = matched_operand(s.operand2, n, lens).data();
        exec::Node<I64> node;
        node.kind = exec::StageKind::Zip;
        switch (s.select_role) {
          case 0:  // condition flows; x = then, y = else
            node.apply = [xp, yp](I64* d, std::size_t b, std::size_t c) {
              for (std::size_t j = 0; j < c; ++j) {
                d[j] = d[j] != 0 ? xp[b + j] : yp[b + j];
              }
            };
            break;
          case 1:  // then flows; x = condition, y = else
            node.apply = [xp, yp](I64* d, std::size_t b, std::size_t c) {
              for (std::size_t j = 0; j < c; ++j) {
                if (xp[b + j] == 0) d[j] = yp[b + j];
              }
            };
            break;
          default:  // else flows; x = condition, y = then
            node.apply = [xp, yp](I64* d, std::size_t b, std::size_t c) {
              for (std::size_t j = 0; j < c; ++j) {
                if (xp[b + j] != 0) d[j] = yp[b + j];
              }
            };
            break;
        }
        p.nodes.push_back(std::move(node));
        return;
      }

      case SOp::kPlusScan: bind_boundary_scan<Plus>(p, n, lens, flag_bufs); return;
      case SOp::kMaxScan: bind_boundary_scan<Max>(p, n, lens, flag_bufs); return;
      case SOp::kMinScan: bind_boundary_scan<Min>(p, n, lens, flag_bufs); return;
      case SOp::kOrScan: bind_boundary_scan<Or>(p, n, lens, flag_bufs); return;
      case SOp::kAndScan: bind_boundary_scan<And>(p, n, lens, flag_bufs); return;
      case SOp::kSegPlusScan: bind_merged_seg_scan<Plus>(p, s, n, lens, flag_bufs); return;
      case SOp::kSegMaxScan: bind_merged_seg_scan<Max>(p, s, n, lens, flag_bufs); return;
      case SOp::kSegMinScan: bind_merged_seg_scan<Min>(p, s, n, lens, flag_bufs); return;

      default:
        throw Bail{};  // coalescable() admits only the stages above
    }
  }

  const Region& r_;
  std::span<const RegMap* const> jobs_;
  exec::Executor& ex_;
  std::vector<Vec> slots_;
  std::vector<Lens> lens_;
  std::vector<std::uint8_t> done_;
  exec::Stats exec_stats_;
};

}  // namespace

bool coalescable(const CompiledProgram& plan) {
  if (plan.regions.size() != 1) return false;
  const Region& r = plan.regions.front();
  // The region must BE the program: an interpreted instruction outside it
  // could print or store, which the merged run has no machine to replay.
  // (Halt never joins a region, so a trailing run of Halts is the one
  // interpreted tail that is provably side-effect-free.)
  if (r.pc_begin != 0) return false;
  for (std::size_t pc = r.pc_end; pc < plan.program.size(); ++pc) {
    if (plan.program[pc].op != vm::Op::Halt) return false;
  }
  if (r.pops != 0) return false;  // no runtime stack to concatenate
  for (const ValueDef& d : r.values) {
    switch (d.kind) {
      case ValueDef::Kind::kRegIn:
        break;
      case ValueDef::Kind::kChain:
        for (const StageRecipe& s : d.stages) {
          if (!stage_ok(s.op)) return false;
        }
        break;
      default:
        // Literals and iotas have a fixed compile-time length — one copy,
        // not one per job — and directs/stack inputs need a machine.
        return false;
    }
  }
  return true;
}

bool execute_coalesced(
    const CompiledProgram& plan,
    std::span<const std::map<std::string, Vec>* const> jobs,
    exec::Executor& ex, std::vector<std::vector<Vec>>& outputs,
    exec::Stats* stats) {
  if (jobs.empty() || plan.regions.size() != 1) return false;
  const Region& r = plan.regions.front();
  obs::Span span("plan.coalesce");
  Merged m(r, jobs, ex);
  try {
    m.eval_all();
    outputs.assign(jobs.size(), {});
    for (const std::uint32_t id : r.prints) {
      const Vec& v = m.slot(id);
      const Lens& lens = m.lens(id);
      std::size_t at = 0;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        outputs[j].emplace_back(
            v.begin() + static_cast<std::ptrdiff_t>(at),
            v.begin() + static_cast<std::ptrdiff_t>(at + lens[j]));
        at += lens[j];
      }
    }
  } catch (...) {
    // Bail, VmError (div/mod by zero), allocation failure: the caller's
    // per-job fallback reproduces exact results and error messages.
    return false;
  }
  if (stats) *stats += m.exec_stats();
  return true;
}

}  // namespace scanprim::plan
