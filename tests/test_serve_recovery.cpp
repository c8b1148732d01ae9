// Fault isolation for the batching scan service (docs/FAULTS.md): injected
// faults in the mega-dispatch must be recovered by bisection so only the
// genuinely faulty job resolves kError while its batch-mates succeed with
// zero diffs against references; no fault may kill the batcher thread, hang
// shutdown()/the destructor, or poison the reused chained scratch; and the
// submit_with_retry client helper must turn transient kRejected backpressure
// into eventual success.
//
// The first test runs BEFORE any disarm_all() so a SCANPRIM_FAULT armed by
// the CI fault matrix is still live for it; every later test disarms the
// environment and arms its own points programmatically.
#include "src/serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/core/segmented.hpp"
#include "src/fault/fault.hpp"
#include "src/machine/machine.hpp"
#include "src/plan/plan.hpp"
#include "src/serve/retry.hpp"
#include "src/thread/thread_pool.hpp"
#include "src/vm/assembler.hpp"
#include "src/vm/interpreter.hpp"

namespace scanprim::serve {
namespace {

using namespace std::chrono_literals;

std::vector<Value> ref_scan(const ScanJob& j) {
  const std::size_t n = j.data.size();
  std::vector<Value> out(n);
  const bool seg = !j.flags.empty();
  Value acc = batch::op_identity(j.op);
  if (!j.backward) {
    for (std::size_t i = 0; i < n; ++i) {
      if (seg && j.flags[i]) acc = batch::op_identity(j.op);
      if (j.inclusive) {
        acc = batch::op_apply(j.op, acc, j.data[i]);
        out[i] = acc;
      } else {
        out[i] = acc;
        acc = batch::op_apply(j.op, acc, j.data[i]);
      }
    }
  } else {
    for (std::size_t i = n; i-- > 0;) {
      if (j.inclusive) {
        acc = batch::op_apply(j.op, acc, j.data[i]);
        out[i] = acc;
      } else {
        out[i] = acc;
        acc = batch::op_apply(j.op, acc, j.data[i]);
      }
      if (seg && j.flags[i]) acc = batch::op_identity(j.op);
    }
  }
  return out;
}

ScanJob random_scan_job(std::mt19937_64& g, std::size_t n) {
  ScanJob j;
  j.data.resize(n);
  for (auto& v : j.data) v = static_cast<Value>(g() % 100);
  j.op = static_cast<Op>(g() % batch::kOpCount);
  j.inclusive = (g() & 1) != 0;
  j.backward = (g() & 1) != 0;
  if ((g() & 1) != 0 && n > 0) {
    j.flags.assign(n, 0);
    for (auto& f : j.flags) f = g() % 5 == 0 ? 1 : 0;
  }
  return j;
}

// Coalesce everything submitted below into one batch: the window is long
// enough that single-threaded submission always beats the flush.
Service::Options one_batch_options() {
  Service::Options o;
  o.window_us = 100'000;
  return o;
}

// --- the CI fault matrix's entry point ---------------------------------------

// Must pass under ANY ambient SCANPRIM_FAULT arming (and with none): every
// future resolves to a coherent terminal state, every kOk result is
// bit-correct, the accounting balances, and shutdown drains cleanly. This is
// the test the CI matrix runs with serve.dispatch / batch.piece /
// chained.summarize / thread.worker faults armed from the environment.
TEST(ServeRecovery, AmbientEnvFaultsNeverViolateTheContract) {
  std::vector<ScanJob> jobs;
  std::vector<std::future<Result>> futs;
  {
    Service::Options o;
    o.window_us = 500;
    Service svc(o);
    std::mt19937_64 g(2026);
    for (int i = 0; i < 200; ++i) {
      jobs.push_back(random_scan_job(g, 1 + g() % 4000));
      futs.push_back(svc.submit(jobs.back()));
    }
    std::uint64_t ok = 0, errors = 0;
    for (std::size_t i = 0; i < futs.size(); ++i) {
      Result r = futs[i].get();  // resolves — no strands, no hangs
      if (r.status == Status::kOk) {
        ++ok;
        ASSERT_EQ(r.values, ref_scan(jobs[i])) << "job " << i;
      } else {
        ASSERT_EQ(r.status, Status::kError);
        EXPECT_FALSE(r.error.empty());
        ++errors;
      }
    }
    const Metrics m = svc.metrics();
    EXPECT_EQ(m.accepted, 200u);
    EXPECT_EQ(m.completed, ok);
    EXPECT_EQ(m.errors, errors);
    EXPECT_EQ(m.accepted, m.completed + m.timeouts + m.cancelled + m.errors);
    svc.shutdown();  // must not hang whatever faults fired
  }
}

// --- bisection recovery ------------------------------------------------------

// The acceptance scenario: one fault injected into a mega-dispatch of N jobs
// resolves exactly the faulty job kError — with the exception message — and
// every innocent batch-mate kOk with zero diffs against its reference.
//
// Arming: "serve.dispatch" with a huge count makes every group dispatch
// (the full batch and every bisection half) throw, forcing recovery all the
// way down to the per-job terminal serial re-runs, which deliberately skip
// that point. Those re-runs happen in job order and are the only place
// "batch.serial_job" is reached (the group dispatches throw before their
// seg_scan_jobs calls), so arming its 4th hit fails exactly the 4th job.
TEST(ServeRecovery, InjectedFaultIsolatesExactlyTheFaultyJob) {
  fault::disarm_all();
  constexpr std::size_t kJobs = 8;
  constexpr std::size_t kFaulty = 3;  // 0-based; batch.serial_job hit 4
  Service svc(one_batch_options());
  fault::arm("serve.dispatch", 1, 1'000'000'000);
  fault::arm("batch.serial_job", kFaulty + 1, 1);

  std::mt19937_64 g(41);
  std::vector<ScanJob> jobs;
  std::vector<std::future<Result>> futs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.push_back(random_scan_job(g, 64 + g() % 2000));
    futs.push_back(svc.submit(jobs.back()));
  }
  for (std::size_t i = 0; i < kJobs; ++i) {
    Result r = futs[i].get();
    if (i == kFaulty) {
      EXPECT_EQ(r.status, Status::kError) << "job " << i;
      EXPECT_NE(r.error.find("batch.serial_job"), std::string::npos)
          << r.error;
    } else {
      ASSERT_EQ(r.status, Status::kOk) << "job " << i;
      ASSERT_EQ(r.values, ref_scan(jobs[i])) << "job " << i;
    }
  }
  const Metrics m = svc.metrics();
  EXPECT_EQ(m.errors, 1u);
  EXPECT_EQ(m.completed, kJobs - 1);
  EXPECT_GE(m.recovery_batches, 1u);
  // log2(8) levels of halving plus 8 terminal re-runs.
  EXPECT_GE(m.bisection_reruns, kJobs);
  fault::disarm_all();
  svc.shutdown();
}

// A transient dispatch fault (fires once, then clears) must cost nobody:
// recovery re-runs the halves and every job still resolves kOk.
TEST(ServeRecovery, TransientDispatchFaultEveryJobStillSucceeds) {
  fault::disarm_all();
  Service svc(one_batch_options());
  fault::arm("serve.dispatch", 1, 1);

  std::mt19937_64 g(43);
  std::vector<ScanJob> jobs;
  std::vector<std::future<Result>> futs;
  for (int i = 0; i < 10; ++i) {
    jobs.push_back(random_scan_job(g, 1 + g() % 3000));
    futs.push_back(svc.submit(jobs.back()));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    Result r = futs[i].get();
    ASSERT_EQ(r.status, Status::kOk) << "job " << i;
    ASSERT_EQ(r.values, ref_scan(jobs[i])) << "job " << i;
  }
  const Metrics m = svc.metrics();
  EXPECT_EQ(m.errors, 0u);
  EXPECT_EQ(m.recovery_batches, 1u);
  EXPECT_GE(m.bisection_reruns, 2u);  // at least the two halves
  fault::disarm_all();
}

// A fault that fires MID-scan, after the dispatch has already partially
// overwritten the in-place scan buffers, is the reason the snapshot exists:
// the throwing dispatch must hand every input back pristine before recovery
// re-runs it, or the re-runs would scan already-scanned data. Forced-parallel
// mode keeps the batch on the chained path where "batch.piece" fires between
// piece kernels. Forward and backward jobs alternate, so both directions
// share the one dispatch and its tiles; the late hits land after most tiles
// have been rescanned.
TEST(ServeRecovery, MidScanFaultRecoversFromTheSnapshot) {
  if (thread::num_workers() == 1) {
    GTEST_SKIP() << "forced-parallel dispatch needs a multi-worker pool";
  }
  fault::disarm_all();
  Service::Options o = one_batch_options();
  o.parallel = batch::JobsMode::kForceParallel;
  Service svc(o);
  std::mt19937_64 g(47);
  const auto mixed_jobs = [&] {
    std::vector<ScanJob> jobs;
    for (int i = 0; i < 6; ++i) {
      jobs.push_back(random_scan_job(g, 20'000));  // many tiles -> many pieces
      jobs.back().backward = i % 2 == 1;
    }
    return jobs;
  };
  // 6 x 20'000 elements span 30 tiles, each summarised and rescanned piece
  // by piece: the batch dispatch passes "batch.piece" at least 60 times.
  std::uint64_t recoveries = 0;
  for (const std::uint64_t nth : {3u, 20u, 41u, 59u}) {
    SCOPED_TRACE("batch.piece nth=" + std::to_string(nth));
    fault::arm("batch.piece", nth, 1);
    std::vector<ScanJob> jobs = mixed_jobs();
    std::vector<std::future<Result>> futs;
    for (const ScanJob& j : jobs) futs.push_back(svc.submit(j));
    for (std::size_t i = 0; i < futs.size(); ++i) {
      Result r = futs[i].get();
      ASSERT_EQ(r.status, Status::kOk) << "job " << i;
      ASSERT_EQ(r.values, ref_scan(jobs[i])) << "job " << i;
    }
    EXPECT_EQ(svc.metrics().errors, 0u);
    EXPECT_EQ(svc.metrics().recovery_batches, ++recoveries);
    fault::disarm_all();
  }

  // The reused chained scratch went through aborted runs; later batches on
  // the same service must still be bit-correct.
  std::vector<ScanJob> again = mixed_jobs();
  std::vector<std::future<Result>> again_futs;
  for (const ScanJob& j : again) again_futs.push_back(svc.submit(j));
  for (std::size_t i = 0; i < again_futs.size(); ++i) {
    Result r = again_futs[i].get();
    ASSERT_EQ(r.status, Status::kOk);
    ASSERT_EQ(r.values, ref_scan(again[i])) << "post-poison job " << i;
  }
}

// Pack and enumerate jobs ride the recovery path too: their staged 0/1 keep
// values are re-derived from the untouched flags on every re-attempt.
TEST(ServeRecovery, PackAndEnumerateSurviveRecovery) {
  fault::disarm_all();
  Service svc(one_batch_options());
  fault::arm("serve.dispatch", 1, 1'000'000'000);

  std::mt19937_64 g(53);
  PackJob p;
  p.data.resize(3000);
  p.keep.resize(3000);
  for (auto& v : p.data) v = static_cast<Value>(g() % 1000);
  for (auto& k : p.keep) k = g() % 3 == 0 ? 1 : 0;
  std::vector<Value> pack_expect;
  for (std::size_t i = 0; i < p.data.size(); ++i) {
    if (p.keep[i]) pack_expect.push_back(p.data[i]);
  }
  EnumerateJob e;
  e.keep.resize(2500);
  std::size_t kept = 0;
  for (auto& k : e.keep) {
    k = g() % 2;
    kept += k;
  }
  ScanJob s = random_scan_job(g, 1500);

  auto fp = svc.submit(std::move(p));
  auto fe = svc.submit(std::move(e));
  auto fs = svc.submit(s);
  const Result rp = fp.get(), re = fe.get(), rs = fs.get();
  ASSERT_EQ(rp.status, Status::kOk);
  EXPECT_EQ(rp.values, pack_expect);
  ASSERT_EQ(re.status, Status::kOk);
  EXPECT_EQ(re.kept, kept);
  ASSERT_EQ(rs.status, Status::kOk);
  EXPECT_EQ(rs.values, ref_scan(s));
  EXPECT_GE(svc.metrics().recovery_batches, 1u);
  fault::disarm_all();
}

// With recovery disabled there is no snapshot to restore from, so a failed
// mega-dispatch fails the whole batch — but the service itself survives and
// keeps serving once the fault clears.
TEST(ServeRecovery, RecoveryOffFailsTheWholeBatchButNotTheService) {
  fault::disarm_all();
  Service::Options o = one_batch_options();
  o.recovery = false;
  Service svc(o);
  fault::arm("serve.dispatch", 1, 1);

  std::mt19937_64 g(59);
  std::vector<std::future<Result>> futs;
  for (int i = 0; i < 4; ++i) {
    futs.push_back(svc.submit(random_scan_job(g, 256)));
  }
  for (auto& f : futs) {
    Result r = f.get();
    EXPECT_EQ(r.status, Status::kError);
    EXPECT_NE(r.error.find("serve.dispatch"), std::string::npos) << r.error;
  }
  const Metrics m = svc.metrics();
  EXPECT_EQ(m.errors, 4u);
  EXPECT_EQ(m.recovery_batches, 0u);
  EXPECT_EQ(m.bisection_reruns, 0u);

  // The fault was one-shot: the next batch is healthy.
  ScanJob j = random_scan_job(g, 512);
  Result r = svc.submit(j).get();
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.values, ref_scan(j));
  fault::disarm_all();
}

// --- the batcher's exception boundary ----------------------------------------

// A throw from OUTSIDE the dispatch machinery — here the very top of
// execute_batch, before any job has been staged — escapes to the batcher
// loop's catch-all. The whole batch resolves kError (nobody strands) and
// the loop keeps serving.
TEST(ServeRecovery, BatchBoundaryFaultResolvesEveryoneAndTheLoopSurvives) {
  fault::disarm_all();
  Service svc(one_batch_options());
  fault::arm("serve.batch", 1, 1);

  std::mt19937_64 g(61);
  std::vector<std::future<Result>> futs;
  for (int i = 0; i < 5; ++i) {
    futs.push_back(svc.submit(random_scan_job(g, 128)));
  }
  for (auto& f : futs) {
    Result r = f.get();
    EXPECT_EQ(r.status, Status::kError);
    EXPECT_NE(r.error.find("serve.batch"), std::string::npos) << r.error;
  }
  EXPECT_EQ(svc.metrics().errors, 5u);

  ScanJob j = random_scan_job(g, 777);
  Result r = svc.submit(j).get();  // the batcher thread is still alive
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.values, ref_scan(j));
  fault::disarm_all();
}

// Injected faults must never hang shutdown() or the destructor: a service
// torn down while every dispatch is throwing still drains every accepted
// future to a terminal state.
TEST(ServeRecovery, FaultsNeverHangShutdownOrDestructor) {
  fault::disarm_all();
  fault::arm("serve.dispatch", 1, 1'000'000'000);
  std::mt19937_64 g(67);
  std::vector<std::future<Result>> futs;
  {
    Service::Options o;
    o.window_us = 200;
    Service svc(o);
    for (int i = 0; i < 64; ++i) {
      futs.push_back(svc.submit(random_scan_job(g, 1 + g() % 1000)));
    }
  }  // destructor: shutdown + drain under permanent dispatch faults
  for (auto& f : futs) {
    const Result r = f.get();
    EXPECT_TRUE(r.status == Status::kOk || r.status == Status::kError)
        << status_name(r.status);
  }
  fault::disarm_all();
}

// --- fulfilment-time deadline / cancellation (satellite) ---------------------

// A cancel token set DURING batch execution (via a fault handler, so the
// moment is exact: after the queued-stage check, before fulfilment) must
// resolve kCancelled, not a stale kOk.
TEST(ServeRecovery, CancelDuringExecutionHonouredAtFulfilment) {
  fault::disarm_all();
  Service::Options o;
  o.window_us = 1;
  Service svc(o);
  auto token = make_cancel_token();
  fault::arm_handler("serve.batch",
                     [token] { token->store(true); }, 1, 1'000'000'000);
  SubmitOptions so;
  so.cancel = token;
  std::mt19937_64 g(71);
  Result r = svc.submit(random_scan_job(g, 128), so).get();
  EXPECT_EQ(r.status, Status::kCancelled);
  EXPECT_EQ(svc.metrics().cancelled, 1u);
  fault::disarm_all();
}

// A deadline that expires while the batch executes resolves kTimeout at
// fulfilment. The handler stalls execution well past the deadline.
TEST(ServeRecovery, DeadlineDuringExecutionHonouredAtFulfilment) {
  fault::disarm_all();
  Service::Options o;
  o.window_us = 1;
  Service svc(o);
  fault::arm_handler("serve.batch",
                     [] { std::this_thread::sleep_for(150ms); }, 1,
                     1'000'000'000);
  SubmitOptions so;
  so.deadline = 40ms;
  std::mt19937_64 g(73);
  Result r = svc.submit(random_scan_job(g, 128), so).get();
  EXPECT_EQ(r.status, Status::kTimeout);
  EXPECT_EQ(svc.metrics().timeouts, 1u);
  fault::disarm_all();
}

// --- submit_with_retry -------------------------------------------------------

TEST(ServeRecovery, SubmitWithRetryOutlastsTransientBackpressure) {
  fault::disarm_all();
  Service::Options o;
  o.queue_capacity = 1;
  o.window_us = 20'000;  // the parked job frees its slot after ~20 ms
  Service svc(o);
  std::mt19937_64 g(79);
  ScanJob parked = random_scan_job(g, 64);
  auto parked_fut = svc.submit(parked);

  // Direct submission is refused while the slot is taken...
  const Result probe = svc.submit(random_scan_job(g, 64)).get();
  ASSERT_EQ(probe.status, Status::kRejected);

  // ...but the retry helper rides out the backpressure.
  ScanJob j = random_scan_job(g, 64);
  RetryOptions ro;
  ro.max_attempts = 200;
  ro.initial_backoff = 1ms;
  ro.multiplier = 1.5;
  ro.max_backoff = 10ms;
  ro.seed = 42;
  const Result r = submit_with_retry(svc, j, {}, ro);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.values, ref_scan(j));
  EXPECT_EQ(parked_fut.get().status, Status::kOk);
  EXPECT_GE(svc.metrics().rejected, 1u);
}

TEST(ServeRecovery, SubmitWithRetryGivesUpAfterMaxAttempts) {
  fault::disarm_all();
  Service::Options o;
  o.queue_capacity = 1;
  o.window_us = 10'000'000;  // the parked job never yields its slot
  Service svc(o);
  std::mt19937_64 g(83);
  auto parked_fut = svc.submit(random_scan_job(g, 64));

  RetryOptions ro;
  ro.max_attempts = 3;
  ro.initial_backoff = 500us;
  ro.seed = 7;
  const Result r = submit_with_retry(svc, random_scan_job(g, 64), {}, ro);
  EXPECT_EQ(r.status, Status::kRejected);
  EXPECT_GE(svc.metrics().rejected, 3u);
  svc.shutdown();  // drains the parked job
  EXPECT_EQ(parked_fut.get().status, Status::kOk);
}

// The retry helper is deadline-aware (satellite of the sharding PR): a
// caller deadline bounds the WHOLE retry schedule, not each attempt. With a
// 50 ms deadline and a backoff ladder that would otherwise burn ~300 ms
// across 5 attempts, the helper must give up as soon as the next wake-up
// would land past the deadline.
TEST(ServeRecovery, SubmitWithRetryHonoursTheOverallDeadline) {
  fault::disarm_all();
  Service::Options o;
  o.queue_capacity = 1;
  o.window_us = 10'000'000;  // the parked job never yields its slot
  Service svc(o);
  std::mt19937_64 g(89);
  auto parked_fut = svc.submit(random_scan_job(g, 64));

  RetryOptions ro;
  ro.max_attempts = 5;
  ro.initial_backoff = 30ms;
  ro.multiplier = 2.0;
  ro.jitter = 0.0;
  ro.seed = 3;
  SubmitOptions so;
  so.deadline = 50ms;
  const auto t0 = std::chrono::steady_clock::now();
  const Result r = submit_with_retry(svc, random_scan_job(g, 64), so, ro);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.status, Status::kRejected);
  // 30 + 60 + 120 + 240 ms of sleeps without the deadline; with it the
  // helper stops before any wake-up past +50 ms.
  EXPECT_LT(elapsed, 150ms);
  svc.shutdown();
  EXPECT_EQ(parked_fut.get().status, Status::kOk);
}

// --- named plans under injected faults (satellite) ---------------------------

// Plan jobs execute per job on the batcher thread through the service's
// executor, so they cross a fault surface the scan mega-batch does not: the
// fused-group runner ("exec.group"). The plan engine runs each region
// transactionally (docs/PLAN.md) — a throw from the compiled path rolls the
// region back and replays it interpreted — so an exec.group fault must
// *degrade* a plan job to interpretation, never fail it: every request
// resolves kOk, bit-identical to pure interpretation, while the armed
// point's hit counter proves the compiled path really took the fault.

vm::Program plan_program() {
  return vm::assemble("load a\ndup\n+scan\nadd\nprint\nhalt");
}

std::vector<Value> interpret_plan(const std::vector<Value>& a) {
  machine::Machine m;
  vm::Interpreter interp(m);
  interp.set_register("a", a);
  const auto saved = vm::Interpreter::run_hook();
  vm::Interpreter::set_run_hook(nullptr);  // pure interpretation
  interp.run(plan_program());
  vm::Interpreter::set_run_hook(saved);
  return interp.output().back();
}

TEST(ServeRecovery, PlanJobsSurviveExecGroupFaults) {
  fault::disarm_all();
  Service svc;
  svc.register_plan("scan_add", plan_program());
  // Every 3rd fused-group run throws, three times.
  fault::arm("exec.group", 3, 3);

  std::mt19937_64 g(97);
  std::vector<std::vector<Value>> inputs;
  // Submit serially — one job per batching window — so each job is its own
  // compiled dispatch. (Concurrent same-plan jobs would coalesce into ONE
  // merged execution and spend far fewer exec.group runs; the merged path's
  // fault recovery is covered by the PlanServe coalescing tests.)
  for (int i = 0; i < 12; ++i) {
    std::vector<Value> a(64 + i * 17);
    for (auto& v : a) v = static_cast<Value>(g() % 2000) - 1000;
    inputs.push_back(a);
    PlanJob job;
    job.plan = "scan_add";
    job.registers["a"] = std::move(a);
    Result r = svc.submit(std::move(job)).get();
    ASSERT_EQ(r.status, Status::kOk) << "plan job " << i << ": " << r.error;
    EXPECT_EQ(r.values, interpret_plan(inputs[i])) << "plan job " << i;
  }
  if (plan::enabled()) {
    // The compiled path really took (and recovered from) the armed faults.
    EXPECT_GE(fault::hits("exec.group"), 3u);
  }
  fault::disarm_all();

  // The fault budget is spent: the same plan serves cleanly again.
  PlanJob job;
  job.plan = "scan_add";
  job.registers["a"] = inputs[0];
  Result r = svc.submit(std::move(job)).get();
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(r.values, interpret_plan(inputs[0]));
  svc.shutdown();
}

TEST(ServeRecovery, PlanJobsSurviveDispatchFaultsAlongsideScans) {
  fault::disarm_all();
  Service::Options o;
  o.window_us = 5'000;
  Service svc(o);
  svc.register_plan("scan_add", plan_program());
  // One transient dispatch fault while plan jobs and scan jobs interleave:
  // the scan batch recovers by bisection, the plan jobs are untouched by
  // the scan path, and nothing strands.
  fault::arm("serve.dispatch", 1, 1);

  std::mt19937_64 g(101);
  std::vector<ScanJob> scans;
  std::vector<std::future<Result>> scan_futs;
  std::vector<std::vector<Value>> plan_inputs;
  std::vector<std::future<Result>> plan_futs;
  for (int i = 0; i < 8; ++i) {
    scans.push_back(random_scan_job(g, 1 + g() % 1000));
    scan_futs.push_back(svc.submit(scans.back()));
    std::vector<Value> a(32 + i * 9);
    for (auto& v : a) v = static_cast<Value>(g() % 100);
    plan_inputs.push_back(a);
    PlanJob pj;
    pj.plan = "scan_add";
    pj.registers["a"] = std::move(a);
    plan_futs.push_back(svc.submit(std::move(pj)));
  }
  for (std::size_t i = 0; i < scan_futs.size(); ++i) {
    Result r = scan_futs[i].get();
    ASSERT_EQ(r.status, Status::kOk) << "scan " << i << ": " << r.error;
    EXPECT_EQ(r.values, ref_scan(scans[i]));
  }
  for (std::size_t i = 0; i < plan_futs.size(); ++i) {
    Result r = plan_futs[i].get();
    ASSERT_EQ(r.status, Status::kOk) << "plan " << i << ": " << r.error;
    EXPECT_EQ(r.values, interpret_plan(plan_inputs[i]));
  }
  fault::disarm_all();
  svc.shutdown();
}

}  // namespace
}  // namespace scanprim::serve
