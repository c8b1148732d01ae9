// The batching scan service (docs/SERVE.md).
//
// Motivation: the chained engine amortises beautifully over long vectors,
// but a request-per-dispatch front-end wastes it — a 4096-element scan costs
// a full pool fork-join, and concurrent callers serialize on the pool. The
// paper's own lesson applies at the serving layer: many small independent
// scans ARE one segmented scan (§2.3). So the service coalesces every
// request admitted within a batching window into one logical segmented
// mega-scan over the requests' own buffers (an iovec-style job list,
// batch::seg_scan_jobs) — each request one or more segments, forward and
// backward requests alike — executed as a single chained-engine dispatch
// per batch (or an adaptive sequential pass when the pool would time-share
// cores), with results moved, not copied, back to the callers' futures. The
// recovery snapshot is taken inside that dispatch, tile by tile.
//
// Concurrency shape:
//   submitters --> lock-free MPSC intrusive stack --> batcher thread
//   (lock-light: one CAS per submit; the batcher pops the whole stack with
//   one exchange). The batcher owns batch formation, the mega-dispatch,
//   scatter, and future fulfilment. Admission control is a bounded count of
//   outstanding requests: at capacity, submissions resolve immediately to
//   Status::kRejected (callers see backpressure instead of unbounded queue
//   growth). Per-request deadlines and cancel tokens are honoured up to the
//   moment the job's batch executes. shutdown() stops admissions, then
//   drains everything already accepted before joining the batcher.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/core/segmented.hpp"
#include "src/exec/executor.hpp"
#include "src/exec/graph.hpp"
#include "src/mem/mem.hpp"
#include "src/obs/histogram.hpp"
#include "src/serve/job.hpp"
#include "src/serve/metrics.hpp"
#include "src/vm/isa.hpp"

namespace scanprim::plan {
struct CompiledProgram;
}  // namespace scanprim::plan

namespace scanprim::serve {

class Service {
 public:
  struct Options {
    /// Max outstanding accepted requests (admitted but not yet resolved).
    /// Submissions beyond this resolve to Status::kRejected.
    std::size_t queue_capacity = 1024;
    /// Coalescing window: a batch flushes when its oldest job has waited
    /// this long (0 = flush as soon as the batcher sees work).
    std::uint64_t window_us = 200;
    /// A batch also flushes early once its mega-vector payload reaches this
    /// many bytes, bounding batch memory and tail latency under load.
    std::size_t byte_budget = std::size_t{8} << 20;
    /// How the batch scan executes: kAuto lets batch::seg_scan_jobs choose
    /// (chained dispatch on real parallel hardware, sequential pass on a
    /// single-worker or oversubscribed pool); the forced modes pin it.
    batch::JobsMode parallel = batch::JobsMode::kAuto;

    /// Fault isolation (docs/FAULTS.md). When true the mega-dispatch
    /// snapshots each tile of the batch as it summarises it, and a throwing
    /// dispatch copies the snapshotted tiles back before it rethrows, so
    /// every input is as submitted. The batch is then recovered by
    /// bisection — re-run the halves, terminating in per-job serial
    /// execution — so only the genuinely faulty job(s) resolve
    /// Status::kError while their batch-mates still succeed. Costs one copy
    /// of the batch payload per batch, made while each tile is in cache.
    /// When false the snapshot (and recovery) is skipped and a throwing
    /// mega-dispatch fails the whole batch with kError.
    bool recovery = true;

    /// Reads SCANPRIM_SERVE_QUEUE_CAP / SCANPRIM_SERVE_WINDOW_US /
    /// SCANPRIM_SERVE_BYTE_BUDGET / SCANPRIM_SERVE_PARALLEL (auto|force|
    /// serial) / SCANPRIM_SERVE_RECOVERY (on|off) over the defaults above.
    static Options from_env();
  };

  Service() : Service(Options::from_env()) {}
  explicit Service(Options opts);
  ~Service();  ///< graceful: drains accepted work, then joins the batcher

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Submission. The future always resolves: with the job's output (kOk), a
  // refusal (kRejected/kShutdown), an abandonment (kTimeout/kCancelled), or
  // an execution failure (kError, with the exception message in
  // Result::error) — never exceptionally, and never not at all: no throw
  // anywhere in batch execution can strand a future or kill the batcher.
  // Pipeline jobs must keep any spans recorded into the pipeline alive until
  // the future resolves (the usual exec::Pipeline lifetime rule).
  std::future<Result> submit(ScanJob job, SubmitOptions opts = {});
  std::future<Result> submit(PackJob job, SubmitOptions opts = {});
  std::future<Result> submit(EnumerateJob job, SubmitOptions opts = {});
  std::future<Result> submit(exec::Pipeline<Value> job,
                             SubmitOptions opts = {});
  std::future<Result> submit(PlanJob job, SubmitOptions opts = {});

  /// Named precompiled plans (docs/PLAN.md). Compiles `program` through the
  /// process plan cache up front and stores it under `name`, replacing any
  /// previous registration. Returns true when a compiled plan exists; false
  /// means the program declined compilation (or SCANPRIM_PLAN=off) and its
  /// jobs run interpreted — still correct, just not pre-lowered. Callable
  /// from any thread, any time.
  bool register_plan(const std::string& name, vm::Program program);
  bool has_plan(const std::string& name) const;

  /// Stops admitting (later submissions resolve to kShutdown), drains every
  /// accepted request — executing, timing out, or cancelling each — then
  /// joins the batcher. Idempotent.
  void shutdown();

  bool accepting() const {
    return accepting_.load(std::memory_order_acquire);
  }
  const Options& options() const { return opts_; }
  Metrics metrics() const;

  /// The live batching window. Starts at Options::window_us; the network
  /// front end's QoS controller (docs/NET.md) moves it at run time — shrink
  /// when the latency SLO is breached, regrow multiplicatively when clear.
  /// Clamped to [1 us, 10 s]. Takes effect at the batcher's next window.
  void set_window_us(std::uint64_t us);
  std::uint64_t window_us() const {
    return window_us_.load(std::memory_order_relaxed);
  }

 private:
  struct JobNode;
  using Clock = std::chrono::steady_clock;

  std::future<Result> enqueue(JobNode* node, const SubmitOptions& opts);
  void batcher_loop();
  void execute_batch(std::vector<JobNode*>& jobs);
  void run_plan_job(JobNode* node);
  std::size_t coalesce_plan_jobs(const std::vector<JobNode*>& jobs);
  void deliver(JobNode* node, Result&& r);  ///< callback or promise, then free
  void resolve(JobNode* node, Status status);
  void resolve_error(JobNode*& node, std::string message);
  void record_latency(std::uint64_t ns, Lane lane);

  // Batch execution + bisection recovery (batcher thread only).
  void stage_group(std::span<JobNode* const> group);
  void build_slices(std::span<JobNode* const> group);
  std::span<Value> snapshot();
  bool try_dispatch(std::span<JobNode* const> group, std::string* error);
  void recover_group(std::span<JobNode* const> group);

  Options opts_;

  // Submission side.
  std::atomic<JobNode*> head_{nullptr};  ///< Treiber stack (MPSC: CAS push,
                                         ///< batcher exchange-pops it whole)
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<bool> accepting_{true};
  std::atomic<std::size_t> in_flight_submits_{0};
  std::atomic<std::size_t> pending_bytes_{0};  ///< payload queued + pending

  // Batcher side.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  bool stop_ = false;    ///< guarded by wake_mutex_
  bool urgent_ = false;  ///< guarded by wake_mutex_: cut the window short
  std::thread batcher_;
  exec::Executor executor_;  ///< runs pipeline jobs (arena reuse across them)
  detail::ChainedScratch<batch::BatchCarry> scratch_;
  // Staging and snapshot storage comes from the batcher thread's
  // size-classed arena (src/mem, docs/MEM.md): per-batch growth recycles
  // the free lists the executor and scratch share on that thread, and the
  // arena's trim policy bounds what an occasional giant batch leaves behind.
  mem::Vector<Value> stage_;   ///< reused 0/1 staging for pack/enumerate jobs
  mem::Vector<Value> backup_;  ///< reused recovery snapshot (seg_scan_jobs)
  std::vector<JobNode*> scan_jobs_;  ///< reused: the batch's non-pipeline jobs
  std::vector<batch::JobSlice> slices_;  ///< reused per-batch job list
  std::uint64_t batch_seq_ = 0;  ///< batcher-only
  std::mutex shutdown_mutex_;            ///< makes shutdown() re-entrant

  // Named plans (register_plan / PlanJob). The entry pairs the program with
  // its compiled plan so the batcher executes without a cache lookup; a null
  // plan means "run interpreted".
  struct PlanEntry {
    vm::Program program;
    std::shared_ptr<const plan::CompiledProgram> prog;
  };
  mutable std::mutex plans_mutex_;
  std::map<std::string, PlanEntry> plans_;

  // Metrics. Counters are relaxed atomics; the latency histogram records
  // lock-free from the batcher; the accumulated pipeline stats are written
  // by the batcher under stats_mutex_. At construction the service registers
  // an obs collector so the same counters and the histogram appear in
  // obs::render_text(), labelled {service="<seq>"}; shutdown() unregisters
  // it (unregistering synchronises with any in-flight render).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> recovery_batches_{0};
  std::atomic<std::uint64_t> bisection_reruns_{0};
  std::atomic<std::uint64_t> plan_jobs_{0};
  std::atomic<std::uint64_t> plan_coalesced_{0};
  std::atomic<std::uint64_t> latency_lane_jobs_{0};
  std::atomic<std::uint64_t> urgent_cuts_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_jobs_{0};
  std::atomic<std::uint64_t> batched_elements_{0};
  std::atomic<std::uint64_t> pool_dispatches_{0};

  std::atomic<std::uint64_t> window_us_{0};  ///< live window (set_window_us)

  obs::Histogram latency_hist_;  ///< every completed request's latency, ns
  obs::Histogram lane_hist_[2];  ///< the same latencies split by Lane
  std::uint64_t collector_id_ = 0;
  mutable std::mutex stats_mutex_;
  exec::Stats pipeline_stats_{};
};

}  // namespace scanprim::serve
