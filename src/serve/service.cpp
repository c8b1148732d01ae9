#include "src/serve/service.hpp"

#include <cassert>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "src/core/env.hpp"
#include "src/core/runtime.hpp"
#include "src/fault/fault.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/registry.hpp"
#include "src/plan/coalesce.hpp"
#include "src/plan/plan.hpp"
#include "src/thread/thread_pool.hpp"

namespace scanprim::serve {

namespace {

enum class JobKind : std::uint8_t { kScan, kPack, kEnumerate, kPipeline,
                                    kPlan };

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Distinguishes services in obs::render_text(): each instance's collector
/// emits its series with {service="<seq>"}.
std::atomic<std::uint64_t> g_service_seq{0};

}  // namespace

/// One queued request. Allocated at submit, owned by the intrusive queue
/// until the batcher resolves (and deletes) it. Refused submissions never
/// enter the queue: the submitter resolves and deletes the node itself.
struct Service::JobNode {
  JobNode* next = nullptr;
  JobKind kind = JobKind::kScan;
  Lane lane = Lane::kBulk;
  bool plan_done = false;  ///< kPlan: already served by a coalesced dispatch

  // Scan / pack / enumerate payload. For pack and enumerate, `flags` holds
  // the keep flags and (for pack) `data` the values to compact.
  std::vector<Value> data;
  std::vector<std::uint8_t> flags;
  Op op = Op::kPlus;
  bool inclusive = false;
  bool backward = false;

  exec::Pipeline<Value> pipeline;  // kPipeline only

  // kPlan only: the named program's interpreter inputs and print outputs.
  std::string plan_name;
  std::map<std::string, std::vector<Value>> vm_regs;
  std::vector<std::vector<Value>> vm_out;
  std::size_t max_instructions = std::size_t{1} << 22;

  // Delivery: exactly one of these is live. With a callback no promise is
  // ever allocated (submit() returns an invalid future); otherwise the
  // promise resolves as before.
  std::promise<Result> promise;
  std::function<void(Result&&)> callback;
  CancelToken cancel;
  Clock::time_point submitted_at{};
  Clock::time_point deadline = Clock::time_point::max();

  std::size_t offset = 0;  ///< kPack/kEnumerate: slice start in stage_
  bool failed = false;     ///< execution threw; resolve kError
  std::string error;       ///< what() of the exception that failed it

  /// Payload bytes this job contributes to a batch (budget accounting).
  std::size_t cost_bytes() const {
    switch (kind) {
      case JobKind::kScan:
      case JobKind::kPack:
        return data.size() * sizeof(Value) + flags.size();
      case JobKind::kEnumerate:
        return flags.size() * (sizeof(Value) + 1);
      case JobKind::kPipeline:
        return pipeline.nodes.empty()
                   ? 0
                   : pipeline.source_length() * sizeof(Value);
      case JobKind::kPlan: {
        std::size_t bytes = 0;
        for (const auto& [name, v] : vm_regs) {
          bytes += v.size() * sizeof(Value);
        }
        return bytes;
      }
    }
    return 0;
  }

};

Service::Options Service::Options::from_env() {
  Options o;
  o.queue_capacity = env::size_or("SCANPRIM_SERVE_QUEUE_CAP",
                                  o.queue_capacity, 1, std::size_t{1} << 24);
  o.window_us = env::size_or("SCANPRIM_SERVE_WINDOW_US", o.window_us, 1,
                             10'000'000);
  o.byte_budget = env::size_or("SCANPRIM_SERVE_BYTE_BUDGET", o.byte_budget,
                               4096, std::size_t{1} << 32);
  o.parallel = static_cast<batch::JobsMode>(env::choice_or(
      "SCANPRIM_SERVE_PARALLEL",
      {{"auto", static_cast<int>(batch::JobsMode::kAuto)},
       {"force", static_cast<int>(batch::JobsMode::kForceParallel)},
       {"serial", static_cast<int>(batch::JobsMode::kSerial)}},
      static_cast<int>(o.parallel)));
  o.recovery = env::flag_or("SCANPRIM_SERVE_RECOVERY", o.recovery);
  return o;
}

void Service::set_window_us(std::uint64_t us) {
  if (us < 1) us = 1;
  if (us > 10'000'000) us = 10'000'000;
  window_us_.store(us, std::memory_order_relaxed);
}

Service::Service(Options opts) : opts_(opts) {
  window_us_.store(opts_.window_us, std::memory_order_relaxed);
  // Expose this instance's counters and the latency histogram through the
  // process-wide registry, labelled per service so concurrent instances
  // (tests spin up many) stay distinguishable. The collector reads the same
  // relaxed atomics metrics() reads; shutdown() unregisters it before the
  // instance can be destroyed.
  const std::string label =
      "{service=\"" +
      std::to_string(g_service_seq.fetch_add(1, std::memory_order_relaxed)) +
      "\"}";
  collector_id_ = obs::register_collector([this, label](std::string& out) {
    const auto c = [&](std::string_view name, std::uint64_t v) {
      obs::append_counter(out, std::string(name) + label, v);
    };
    c("scanprim_serve_submitted_total",
      submitted_.load(std::memory_order_relaxed));
    c("scanprim_serve_accepted_total",
      accepted_.load(std::memory_order_relaxed));
    c("scanprim_serve_rejected_total",
      rejected_.load(std::memory_order_relaxed));
    c("scanprim_serve_completed_total",
      completed_.load(std::memory_order_relaxed));
    c("scanprim_serve_timeouts_total",
      timeouts_.load(std::memory_order_relaxed));
    c("scanprim_serve_cancelled_total",
      cancelled_.load(std::memory_order_relaxed));
    c("scanprim_serve_errors_total", errors_.load(std::memory_order_relaxed));
    c("scanprim_serve_recovery_batches_total",
      recovery_batches_.load(std::memory_order_relaxed));
    c("scanprim_serve_bisection_reruns_total",
      bisection_reruns_.load(std::memory_order_relaxed));
    c("scanprim_serve_plan_jobs_total",
      plan_jobs_.load(std::memory_order_relaxed));
    c("scanprim_serve_plan_coalesced_total",
      plan_coalesced_.load(std::memory_order_relaxed));
    c("scanprim_serve_latency_lane_jobs_total",
      latency_lane_jobs_.load(std::memory_order_relaxed));
    c("scanprim_serve_urgent_cuts_total",
      urgent_cuts_.load(std::memory_order_relaxed));
    c("scanprim_serve_window_us",
      window_us_.load(std::memory_order_relaxed));
    c("scanprim_serve_batches_total", batches_.load(std::memory_order_relaxed));
    c("scanprim_serve_batched_jobs_total",
      batched_jobs_.load(std::memory_order_relaxed));
    c("scanprim_serve_batched_elements_total",
      batched_elements_.load(std::memory_order_relaxed));
    c("scanprim_serve_pool_dispatches_total",
      pool_dispatches_.load(std::memory_order_relaxed));
    obs::append_histogram(out, "scanprim_serve_latency_ns" + label,
                          latency_hist_);
    for (int l = 0; l < 2; ++l) {
      std::string series = "scanprim_serve_lane_latency_ns{lane=\"";
      series += lane_name(static_cast<Lane>(l));
      series += "\",";
      series += label.substr(1);  // merge into the {service=...} label set
      obs::append_histogram(out, series, lane_hist_[l]);
    }
  });
  batcher_ = std::thread([this] { batcher_loop(); });
}

Service::~Service() { shutdown(); }

// --- submission --------------------------------------------------------------

std::future<Result> Service::submit(ScanJob job, SubmitOptions opts) {
  assert(job.flags.empty() || job.flags.size() == job.data.size());
  auto* n = new JobNode;
  n->kind = JobKind::kScan;
  n->data = std::move(job.data);
  n->flags = std::move(job.flags);
  n->op = job.op;
  n->inclusive = job.inclusive;
  n->backward = job.backward;
  return enqueue(n, opts);
}

std::future<Result> Service::submit(PackJob job, SubmitOptions opts) {
  assert(job.keep.size() == job.data.size());
  auto* n = new JobNode;
  n->kind = JobKind::kPack;
  n->data = std::move(job.data);
  n->flags = std::move(job.keep);
  return enqueue(n, opts);
}

std::future<Result> Service::submit(EnumerateJob job, SubmitOptions opts) {
  auto* n = new JobNode;
  n->kind = JobKind::kEnumerate;
  n->flags = std::move(job.keep);
  return enqueue(n, opts);
}

std::future<Result> Service::submit(exec::Pipeline<Value> job,
                                    SubmitOptions opts) {
  assert(!job.nodes.empty());
  auto* n = new JobNode;
  n->kind = JobKind::kPipeline;
  n->pipeline = std::move(job);
  return enqueue(n, opts);
}

std::future<Result> Service::submit(PlanJob job, SubmitOptions opts) {
  auto* n = new JobNode;
  n->kind = JobKind::kPlan;
  n->plan_name = std::move(job.plan);
  n->vm_regs = std::move(job.registers);
  n->max_instructions = job.max_instructions;
  return enqueue(n, opts);
}

bool Service::register_plan(const std::string& name, vm::Program program) {
  // Compile through the process cache: registration pays the (one) compile,
  // every dispatch reuses the stored plan without even a cache lookup.
  std::shared_ptr<const plan::CompiledProgram> prog;
  if (plan::enabled()) prog = plan::Cache::instance().get(program);
  const bool compiled = prog != nullptr;
  std::lock_guard<std::mutex> lk(plans_mutex_);
  auto& entry = plans_[name];
  entry.program = std::move(program);
  entry.prog = std::move(prog);
  return compiled;
}

bool Service::has_plan(const std::string& name) const {
  std::lock_guard<std::mutex> lk(plans_mutex_);
  return plans_.count(name) != 0;
}

std::future<Result> Service::enqueue(JobNode* n, const SubmitOptions& opts) {
  // Callback submissions never allocate a promise: the returned future is
  // invalid and the callback is the (single) delivery channel.
  std::future<Result> fut;
  n->callback = opts.on_complete;
  if (!n->callback) fut = n->promise.get_future();
  n->submitted_at = Clock::now();
  if (opts.deadline.count() > 0) n->deadline = n->submitted_at + opts.deadline;
  n->cancel = opts.cancel;
  n->lane = opts.lane;
  submitted_.fetch_add(1, std::memory_order_relaxed);

  const auto refuse = [&](Status st) {
    Result r;
    r.status = st;
    deliver(n, std::move(r));
    return std::move(fut);
  };

  // The in-flight window makes shutdown's drain sound: shutdown() flips
  // `accepting_` and then waits for this count to reach zero, so every push
  // that passed the admission check below is in the queue before the batcher
  // is told to stop — no request can be accepted yet never resolved.
  in_flight_submits_.fetch_add(1, std::memory_order_seq_cst);
  if (!accepting_.load(std::memory_order_seq_cst)) {
    in_flight_submits_.fetch_sub(1, std::memory_order_seq_cst);
    return refuse(Status::kShutdown);
  }
  if (outstanding_.fetch_add(1, std::memory_order_relaxed) >=
      opts_.queue_capacity) {
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    in_flight_submits_.fetch_sub(1, std::memory_order_seq_cst);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return refuse(Status::kRejected);
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (n->lane == Lane::kLatency) {
    latency_lane_jobs_.fetch_add(1, std::memory_order_relaxed);
  }

  // Everything the wakeup decision needs is read before the push: once the
  // node is on the stack the batcher may pop and delete it.
  const std::size_t cost = n->cost_bytes();
  const bool has_deadline = n->deadline != Clock::time_point::max();
  const bool latency_lane = n->lane == Lane::kLatency;

  JobNode* h = head_.load(std::memory_order_relaxed);
  do {
    n->next = h;
  } while (!head_.compare_exchange_weak(h, n, std::memory_order_release,
                                        std::memory_order_relaxed));
  const bool was_empty = h == nullptr;
  const std::size_t bytes_before =
      pending_bytes_.fetch_add(cost, std::memory_order_relaxed);
  in_flight_submits_.fetch_sub(1, std::memory_order_seq_cst);
  // Trace the admission on the submitter's own track (value = payload bytes)
  // so a request's life shows as enqueue instant -> batch span -> fulfil.
  obs::instant("serve.enqueue", cost);

  // Wake the batcher only when this push changes what it should do: the
  // stack went empty->nonempty (it may be in its indefinite wait), the job
  // carries a deadline (the window wait must be recomputed), the job is in
  // the latency lane (QoS: it cuts the window immediately), or the queued
  // payload just crossed the byte budget (flush early). Steady-state bulk
  // pushes inside an open window stay silent — the batcher collects them
  // when the window closes instead of being context-switched awake per
  // request.
  const bool urgent = has_deadline || latency_lane ||
                      (bytes_before < opts_.byte_budget &&
                       bytes_before + cost >= opts_.byte_budget);
  if (urgent) urgent_cuts_.fetch_add(1, std::memory_order_relaxed);
  if (was_empty || urgent) {
    // Taking the mutex before notifying pairs with the batcher's predicate
    // check under the same mutex so the wakeup cannot be lost.
    {
      std::lock_guard<std::mutex> lk(wake_mutex_);
      if (urgent) urgent_ = true;
    }
    wake_cv_.notify_one();
  }
  return fut;
}

// --- shutdown ----------------------------------------------------------------

void Service::shutdown() {
  if (accepting_.exchange(false, std::memory_order_seq_cst)) {
    // Wait out submissions that passed the admission check but have not yet
    // pushed: after this loop the queue holds every accepted request.
    while (in_flight_submits_.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
  }
  {
    std::lock_guard<std::mutex> lk(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  std::lock_guard<std::mutex> jl(shutdown_mutex_);
  if (batcher_.joinable()) batcher_.join();
  // Unregister the obs collector before this instance can be destroyed:
  // unregistering synchronises with any in-flight render_text(), so after
  // this no callback can touch `this`. Guarded by shutdown_mutex_ (ids
  // start at 1; 0 means already unregistered).
  if (collector_id_ != 0) {
    obs::unregister_collector(collector_id_);
    collector_id_ = 0;
  }
}

// --- batcher -----------------------------------------------------------------

void Service::deliver(JobNode* n, Result&& r) {
  // The single exit for every job: callback if one was given, the promise
  // otherwise, then the node is freed. A throwing callback must not kill
  // the batcher (or strand its batch-mates), so it is swallowed here — the
  // job was delivered; what the consumer did with it is its own business.
  if (n->callback) {
    try {
      n->callback(std::move(r));
    } catch (...) {
    }
  } else {
    n->promise.set_value(std::move(r));
  }
  delete n;
}

void Service::resolve(JobNode* n, Status st) {
  Result r;
  r.status = st;
  r.latency_ns = ns_between(n->submitted_at, Clock::now());
  if (st == Status::kTimeout) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
  } else if (st == Status::kCancelled) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  }
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
  deliver(n, std::move(r));
}

void Service::resolve_error(JobNode*& n, std::string message) {
  Result r;
  r.status = Status::kError;
  r.error = std::move(message);
  r.latency_ns = ns_between(n->submitted_at, Clock::now());
  errors_.fetch_add(1, std::memory_order_relaxed);
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
  deliver(n, std::move(r));
  n = nullptr;
}

void Service::record_latency(std::uint64_t ns, Lane lane) {
  // Every completed request, lock-free: the log-bucketed histogram replaces
  // the old sampled reservoir, so metrics() percentiles are exact-count rank
  // selections over the full population, not a window. The per-lane split
  // feeds the QoS controller (docs/NET.md): the latency lane's p99 against
  // its SLO drives the adaptive window.
  latency_hist_.record(ns);
  lane_hist_[static_cast<std::size_t>(lane)].record(ns);
}

void Service::batcher_loop() {
  // Two pending queues, one per QoS lane, each in submission order. Latency
  // jobs cut the window: the moment one is pending the batcher flushes,
  // taking every queued latency job first and then whatever bulk work still
  // fits under the byte budget. Bulk-only traffic accumulates for the full
  // (live, set_window_us-adjustable) window exactly as before.
  std::vector<JobNode*> pending_lat;
  std::vector<JobNode*> pending_bulk;
  std::vector<JobNode*> batch;
  std::vector<JobNode*> popped;

  const auto pop_all = [&] {
    JobNode* n = head_.exchange(nullptr, std::memory_order_acquire);
    for (; n != nullptr; n = n->next) popped.push_back(n);
    // The stack pops newest-first; append oldest-first, routed by lane.
    // Reserve up front (the only throwing step) and clear `popped` only
    // after every append, so an allocation failure here never strands or
    // duplicates a node — the survivors are re-appended next iteration.
    pending_lat.reserve(pending_lat.size() + popped.size());
    pending_bulk.reserve(pending_bulk.size() + popped.size());
    for (auto it = popped.rbegin(); it != popped.rend(); ++it) {
      ((*it)->lane == Lane::kLatency ? pending_lat : pending_bulk)
          .push_back(*it);
    }
    popped.clear();
  };

  // The crash-proof boundary: one iteration of the loop body runs inside a
  // catch-all, so no exception — an injected fault escaping execute_batch,
  // a bad_alloc forming the batch — can ever terminate this thread. A dead
  // batcher is the worst failure mode the service has: every accepted
  // future strands and shutdown() joins forever. On an escaped exception,
  // anything still unresolved in the current batch resolves kError
  // (execute_batch nulls entries as it fulfils them) and the loop carries
  // on serving.
  enum class Step : std::uint8_t { kContinue, kStop };
  const auto step = [&]() -> Step {
    pop_all();

    // Abandon what expired or was cancelled while queued.
    const auto now = Clock::now();
    const auto sweep = [&](std::vector<JobNode*>& pending) {
      std::size_t w = 0;
      for (JobNode* n : pending) {
        if (n->cancel && n->cancel->load(std::memory_order_relaxed)) {
          pending_bytes_.fetch_sub(n->cost_bytes(), std::memory_order_relaxed);
          resolve(n, Status::kCancelled);
        } else if (n->deadline <= now) {
          pending_bytes_.fetch_sub(n->cost_bytes(), std::memory_order_relaxed);
          resolve(n, Status::kTimeout);
        } else {
          pending[w++] = n;
        }
      }
      pending.resize(w);
    };
    sweep(pending_lat);
    sweep(pending_bulk);

    bool stopping;
    {
      std::lock_guard<std::mutex> lk(wake_mutex_);
      stopping = stop_;
    }

    if (pending_lat.empty() && pending_bulk.empty()) {
      if (stopping && head_.load(std::memory_order_acquire) == nullptr) {
        return Step::kStop;
      }
      std::unique_lock<std::mutex> lk(wake_mutex_);
      wake_cv_.wait(lk, [&] {
        return stop_ || head_.load(std::memory_order_acquire) != nullptr;
      });
      return Step::kContinue;
    }

    // The window runs from the oldest pending job's admission. Wake earlier
    // if a queued job's deadline lands first (it must be timed out promptly,
    // not discovered when the window closes), or if the payload already
    // fills the byte budget. Any pending latency-lane job cuts the window
    // right now — that lane's whole point is to not wait out bulk windows.
    std::size_t bytes = 0;
    auto oldest = Clock::time_point::max();
    auto first_deadline = Clock::time_point::max();
    for (const std::vector<JobNode*>* q : {&pending_lat, &pending_bulk}) {
      for (const JobNode* n : *q) {
        bytes += n->cost_bytes();
        if (n->submitted_at < oldest) oldest = n->submitted_at;
        if (n->deadline < first_deadline) first_deadline = n->deadline;
      }
    }
    auto wake_at = oldest + std::chrono::microseconds(
                                window_us_.load(std::memory_order_relaxed));
    if (first_deadline < wake_at) wake_at = first_deadline;
    if (!stopping && pending_lat.empty() && bytes < opts_.byte_budget &&
        now < wake_at) {
      // Sleep out the window. Ordinary bulk pushes do not interrupt it
      // (their payload is collected when it closes); only urgent pushes — a
      // latency-lane job, a deadline to honour or a byte budget crossed —
      // and shutdown do.
      std::unique_lock<std::mutex> lk(wake_mutex_);
      wake_cv_.wait_until(lk, wake_at, [&] { return stop_ || urgent_; });
      urgent_ = false;
      return Step::kContinue;
    }

    // Form one batch, bounded by the byte budget (always at least one job,
    // so oversized requests still run): every queued latency job first,
    // then bulk jobs from the front of their queue.
    batch.clear();
    std::size_t batch_bytes = 0;
    const auto take_from = [&](std::vector<JobNode*>& pending) {
      std::size_t take = 0;
      while (take < pending.size()) {
        const std::size_t c = pending[take]->cost_bytes();
        if (!batch.empty() && batch_bytes + c > opts_.byte_budget) break;
        batch_bytes += c;
        batch.push_back(pending[take]);
        ++take;
      }
      pending.erase(pending.begin(), pending.begin() + take);
    };
    take_from(pending_lat);
    take_from(pending_bulk);
    pending_bytes_.fetch_sub(batch_bytes, std::memory_order_relaxed);
    // The window-cut decision: this many jobs leave the queue as one batch.
    obs::instant("serve.window_cut", batch.size());
    execute_batch(batch);
    return Step::kContinue;
  };

  for (;;) {
    Step s = Step::kContinue;
    try {
      s = step();
    } catch (const std::exception& e) {
      for (JobNode*& n : batch) {
        if (n != nullptr) {
          resolve_error(n, std::string("batch execution failed: ") + e.what());
        }
      }
      batch.clear();
    } catch (...) {
      for (JobNode*& n : batch) {
        if (n != nullptr) {
          resolve_error(n, "batch execution failed: unknown exception");
        }
      }
      batch.clear();
    }
    if (s == Step::kStop) break;
  }
}

// Derive the 0/1 keep values pack and enumerate jobs scan: under an
// exclusive +-scan each element learns its packed destination (enumerate,
// Figure 5). Scan jobs run in place in the submitter's buffer.
void Service::stage_group(std::span<JobNode* const> group) {
  for (const JobNode* n : group) {
    if (n->kind != JobKind::kPack && n->kind != JobKind::kEnumerate) continue;
    const std::size_t len = n->flags.size();
    Value* d = stage_.data() + n->offset;
    const std::uint8_t* f = n->flags.data();
    for (std::size_t i = 0; i < len; ++i) d[i] = f[i] ? 1 : 0;
  }
}

// Register every job in the group as one slice of the logical mega-scan,
// each in its own direction. Each slice starts a segment, so no carry
// crosses a request boundary.
void Service::build_slices(std::span<JobNode* const> group) {
  slices_.clear();
  for (JobNode* n : group) {
    batch::JobSlice s;  // defaults: kPlus, exclusive, forward, one segment
    if (n->kind == JobKind::kScan) {
      s.data = n->data.data();
      s.flags = n->flags.empty() ? nullptr : n->flags.data();
      s.n = n->data.size();
      s.op = n->op;
      s.inclusive = n->inclusive;
      s.backward = n->backward;
    } else {
      s.data = stage_.data() + n->offset;
      s.n = n->flags.size();
    }
    slices_.push_back(s);
  }
}

// The recovery snapshot execute_batch sized for this batch, or none when
// recovery is off. With it, a throwing seg_scan_jobs hands every input back
// as it found it, so a failed group can be re-dispatched as it stands.
std::span<Value> Service::snapshot() {
  return opts_.recovery ? std::span<Value>(backup_.data(), backup_.size())
                        : std::span<Value>();
}

bool Service::try_dispatch(std::span<JobNode* const> group,
                           std::string* error) {
  obs::Span span("serve.dispatch");
  build_slices(group);
  try {
    SCANPRIM_FAULT_POINT("serve.dispatch");
    batch::seg_scan_jobs(slices_, false, &scratch_, opts_.parallel,
                         snapshot());
    return true;
  } catch (const std::exception& e) {
    *error = e.what();
  } catch (...) {
    *error = "unknown exception";
  }
  return false;
}

// Bisection recovery for a group whose dispatch threw (and so left its
// inputs untouched): re-dispatch each half and recurse into any half that
// throws again. Terminates at single jobs, which re-run serially with no
// shared scratch and — deliberately — without passing the "serve.dispatch"
// fault point, so even a permanently-armed dispatch fault lets every
// innocent job complete; only a job whose own execution throws resolves
// kError.
void Service::recover_group(std::span<JobNode* const> group) {
  if (group.empty()) return;
  obs::Span span("serve.recover");
  if (group.size() == 1) {
    JobNode* n = group.front();
    build_slices(group);
    bisection_reruns_.fetch_add(1, std::memory_order_relaxed);
    try {
      batch::seg_scan_jobs(slices_, false, nullptr, batch::JobsMode::kSerial,
                           snapshot());
    } catch (const std::exception& e) {
      n->failed = true;
      n->error = e.what();
    } catch (...) {
      n->failed = true;
      n->error = "unknown exception";
    }
    return;
  }
  const std::size_t mid = group.size() / 2;
  const std::span<JobNode* const> halves[2] = {group.first(mid),
                                               group.subspan(mid)};
  for (const auto& half : halves) {
    bisection_reruns_.fetch_add(1, std::memory_order_relaxed);
    std::string err;
    if (!try_dispatch(half, &err)) recover_group(half);
  }
}

void Service::execute_batch(std::vector<JobNode*>& jobs) {
  obs::Span batch_span("serve.batch");
  SCANPRIM_FAULT_POINT("serve.batch");

  // Partition the batch and lay out the shared staging buffer.
  scan_jobs_.clear();
  std::size_t stage_n = 0, elements = 0;
  for (JobNode* n : jobs) {
    switch (n->kind) {
      case JobKind::kScan:
        elements += n->data.size();
        scan_jobs_.push_back(n);
        break;
      case JobKind::kPack:
      case JobKind::kEnumerate:
        n->offset = stage_n;
        stage_n += n->flags.size();
        elements += n->flags.size();
        scan_jobs_.push_back(n);
        break;
      case JobKind::kPipeline:
      case JobKind::kPlan:
        break;
    }
  }
  stage_.resize(stage_n);
  // The snapshot is taken inside the dispatch, tile by tile; only its
  // storage is sized here, where an allocation failure fails the batch at
  // the loop boundary before any job has been touched. It only grows, so a
  // steady stream of batches neither reallocates nor zero-fills it.
  if (opts_.recovery && backup_.size() < elements) backup_.resize(elements);
  stage_group(scan_jobs_);

  // One chained-engine dispatch over every scan, pack and enumerate job,
  // whatever its direction (or the adaptive sequential pass, per
  // opts_.parallel), plus the pipeline jobs through the (arena-reusing)
  // executor. The pool dispatch delta over this region is the batch's whole
  // dispatch bill.
  const std::uint64_t d0 = thread::pool().dispatch_count();
  std::string error;
  if (!try_dispatch(scan_jobs_, &error)) {
    if (opts_.recovery) {
      recovery_batches_.fetch_add(1, std::memory_order_relaxed);
      recover_group(scan_jobs_);
    } else {
      // Recovery disabled: the inputs are already partially overwritten and
      // there is no snapshot to restore from, so the whole batch fails.
      for (JobNode* n : scan_jobs_) {
        n->failed = true;
        n->error = error;
      }
    }
  }
  // Same-plan PlanJobs in this batch coalesce into one merged segmented
  // dispatch when the plan qualifies (docs/PLAN.md "Coalescing"); the rest
  // run per job below.
  coalesce_plan_jobs(jobs);
  for (JobNode* n : jobs) {
    if (n->kind != JobKind::kPipeline && n->kind != JobKind::kPlan) continue;
    if (n->plan_done) continue;
    try {
      if (n->kind == JobKind::kPipeline) {
        n->data = executor_.run(n->pipeline);
        std::lock_guard<std::mutex> lk(stats_mutex_);
        pipeline_stats_ += executor_.stats();
      } else {
        run_plan_job(n);
      }
    } catch (const std::exception& e) {
      n->failed = true;
      n->error = e.what();
    } catch (...) {
      n->failed = true;
      n->error = "unknown exception";
    }
  }
  const std::uint64_t d1 = thread::pool().dispatch_count();
  pool_dispatches_.fetch_add(d1 - d0, std::memory_order_relaxed);

  ++batch_seq_;
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_jobs_.fetch_add(jobs.size(), std::memory_order_relaxed);
  batched_elements_.fetch_add(elements, std::memory_order_relaxed);

  // Fulfil, nulling each entry as it resolves (the batcher's exception
  // boundary error-resolves whatever is still non-null if this throws).
  // Failures win over abandonment; then cancellation and deadlines are
  // re-checked at fulfilment time, so a token set or a deadline passed while
  // the batch executed still yields kCancelled/kTimeout, not a stale kOk.
  // Scan results are already in the job's own buffer and move out;
  // pack/enumerate read their scanned destinations from the staging buffer.
  obs::Span fulfil_span("serve.fulfil");
  const auto fulfil_now = Clock::now();
  for (JobNode*& n : jobs) {
    if (n == nullptr) continue;
    if (n->failed) {
      Result r;
      r.status = Status::kError;
      r.error = std::move(n->error);
      r.batch_seq = batch_seq_;
      r.batch_jobs = jobs.size();
      r.latency_ns = ns_between(n->submitted_at, fulfil_now);
      errors_.fetch_add(1, std::memory_order_relaxed);
      outstanding_.fetch_sub(1, std::memory_order_relaxed);
      deliver(n, std::move(r));
      n = nullptr;
      continue;
    }
    if (n->cancel && n->cancel->load(std::memory_order_relaxed)) {
      resolve(n, Status::kCancelled);
      n = nullptr;
      continue;
    }
    if (n->deadline <= fulfil_now) {
      resolve(n, Status::kTimeout);
      n = nullptr;
      continue;
    }
    Result r;
    r.status = Status::kOk;
    r.batch_seq = batch_seq_;
    r.batch_jobs = jobs.size();
    switch (n->kind) {
      case JobKind::kScan:
      case JobKind::kPipeline:
        r.values = std::move(n->data);
        break;
      case JobKind::kEnumerate: {
        const std::size_t len = n->flags.size();
        const Value* d = stage_.data() + n->offset;
        r.values.assign(d, d + len);
        r.kept = len == 0 ? 0
                          : static_cast<std::size_t>(d[len - 1]) +
                                (n->flags[len - 1] ? 1 : 0);
        break;
      }
      case JobKind::kPack: {
        const std::size_t len = n->flags.size();
        const Value* d = stage_.data() + n->offset;
        r.kept = len == 0 ? 0
                          : static_cast<std::size_t>(d[len - 1]) +
                                (n->flags[len - 1] ? 1 : 0);
        r.values.resize(r.kept);
        for (std::size_t i = 0; i < len; ++i) {
          if (n->flags[i]) r.values[static_cast<std::size_t>(d[i])] = n->data[i];
        }
        break;
      }
      case JobKind::kPlan:
        r.outputs = std::move(n->vm_out);
        if (!r.outputs.empty()) r.values = r.outputs.back();
        break;
    }
    r.latency_ns = ns_between(n->submitted_at, Clock::now());
    completed_.fetch_add(1, std::memory_order_relaxed);
    record_latency(r.latency_ns, n->lane);
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    deliver(n, std::move(r));
    n = nullptr;
  }
}

// Groups this batch's kPlan jobs by plan name and serves each group of two
// or more through ONE merged segmented dispatch when the plan qualifies
// (plan::coalescable — a single straight-line region of register-fed chains)
// and every member's instruction budget covers the program. The merged run
// concatenates the jobs' registers and swaps each chain's scans for
// segmented scans over the job boundaries, replaying the plan's pre-fused
// groups — so a group of k jobs costs one chained dispatch per chain
// instead of k (exec::Stats::plan_reuses moves once per chain, not once per
// job-chain). Any bind failure falls back to the per-job path in
// execute_batch, which reproduces exact per-job results and errors.
std::size_t Service::coalesce_plan_jobs(const std::vector<JobNode*>& jobs) {
  std::map<std::string, std::vector<JobNode*>> groups;
  for (JobNode* n : jobs) {
    if (n != nullptr && n->kind == JobKind::kPlan) {
      groups[n->plan_name].push_back(n);
    }
  }
  std::size_t served = 0;
  for (auto& [name, group] : groups) {
    if (group.size() < 2) continue;
    PlanEntry entry;
    {
      std::lock_guard<std::mutex> lk(plans_mutex_);
      const auto it = plans_.find(name);
      if (it == plans_.end()) continue;  // per-job path reports the error
      entry = it->second;
    }
    if (entry.prog == nullptr || !plan::coalescable(*entry.prog)) continue;
    bool budget_ok = true;
    for (const JobNode* n : group) {
      if (n->max_instructions < entry.prog->total_instructions) {
        budget_ok = false;
        break;
      }
    }
    if (!budget_ok) continue;
    std::vector<const std::map<std::string, std::vector<Value>>*> regs;
    regs.reserve(group.size());
    for (JobNode* n : group) regs.push_back(&n->vm_regs);
    std::vector<std::vector<std::vector<Value>>> outs;
    exec::Stats st;
    obs::Span span("serve.plan_coalesce");
    if (!plan::execute_coalesced(*entry.prog, regs, executor_, outs, &st)) {
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(stats_mutex_);
      pipeline_stats_ += st;
    }
    for (std::size_t j = 0; j < group.size(); ++j) {
      group[j]->vm_out = std::move(outs[j]);
      group[j]->plan_done = true;
    }
    plan_jobs_.fetch_add(group.size(), std::memory_order_relaxed);
    plan_coalesced_.fetch_add(group.size(), std::memory_order_relaxed);
    served += group.size();
  }
  return served;
}

// Executes one named-plan job on the batcher thread. The interpreter is
// per-job (plans carry their own registers and outputs); the executor is the
// service's, so plan pipelines recycle the same arenas pipeline jobs use.
// Throws on unknown names and VM errors — the caller maps that to kError.
void Service::run_plan_job(JobNode* n) {
  obs::Span span("serve.plan");
  PlanEntry entry;
  {
    std::lock_guard<std::mutex> lk(plans_mutex_);
    const auto it = plans_.find(n->plan_name);
    if (it == plans_.end()) {
      throw std::runtime_error("unknown plan \"" + n->plan_name + "\"");
    }
    entry = it->second;
  }
  machine::Machine m;
  vm::Interpreter interp(m);
  for (auto& [name, v] : n->vm_regs) interp.set_register(name, std::move(v));
  if (entry.prog != nullptr) {
    exec::Stats st;
    plan::execute(interp, entry.program, *entry.prog, n->max_instructions,
                  executor_, &st);
    std::lock_guard<std::mutex> lk(stats_mutex_);
    pipeline_stats_ += st;
  } else {
    // No compiled plan (declined, or SCANPRIM_PLAN=off): plain
    // interpretation, same outputs.
    interp.run(entry.program, n->max_instructions);
  }
  n->vm_out = interp.output();
  plan_jobs_.fetch_add(1, std::memory_order_relaxed);
}

// --- metrics -----------------------------------------------------------------

Metrics Service::metrics() const {
  Metrics m;
  m.submitted = submitted_.load(std::memory_order_relaxed);
  m.accepted = accepted_.load(std::memory_order_relaxed);
  m.rejected = rejected_.load(std::memory_order_relaxed);
  m.completed = completed_.load(std::memory_order_relaxed);
  m.timeouts = timeouts_.load(std::memory_order_relaxed);
  m.cancelled = cancelled_.load(std::memory_order_relaxed);
  m.errors = errors_.load(std::memory_order_relaxed);
  m.recovery_batches = recovery_batches_.load(std::memory_order_relaxed);
  m.bisection_reruns = bisection_reruns_.load(std::memory_order_relaxed);
  m.plan_jobs = plan_jobs_.load(std::memory_order_relaxed);
  m.plan_coalesced = plan_coalesced_.load(std::memory_order_relaxed);
  m.latency_lane_jobs = latency_lane_jobs_.load(std::memory_order_relaxed);
  m.urgent_cuts = urgent_cuts_.load(std::memory_order_relaxed);
  m.window_us = window_us_.load(std::memory_order_relaxed);
  for (int l = 0; l < 2; ++l) {
    m.lane_count[l] = lane_hist_[l].count();
    if (m.lane_count[l] > 0) {
      m.lane_p99_ns[l] = lane_hist_[l].value_at_quantile(0.99);
    }
  }
  m.batches = batches_.load(std::memory_order_relaxed);
  m.batched_jobs = batched_jobs_.load(std::memory_order_relaxed);
  m.batched_elements = batched_elements_.load(std::memory_order_relaxed);
  m.pool_dispatches = pool_dispatches_.load(std::memory_order_relaxed);
  if (m.batches > 0) {
    m.mean_occupancy =
        static_cast<double>(m.batched_jobs) / static_cast<double>(m.batches);
    m.mean_batch_elements = static_cast<double>(m.batched_elements) /
                            static_cast<double>(m.batches);
  }
  {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    m.pipeline_stats = pipeline_stats_;
  }
  // Exact-count rank selections over every completed request (the histogram
  // quantises values to ~3% bucket resolution; the ranks themselves are
  // exact — no sampling window).
  m.latency_count = latency_hist_.count();
  if (m.latency_count > 0) {
    m.p50_ns = latency_hist_.value_at_quantile(0.50);
    m.p95_ns = latency_hist_.value_at_quantile(0.95);
    m.p99_ns = latency_hist_.value_at_quantile(0.99);
    m.max_ns = latency_hist_.max();
    m.mean_ns = static_cast<std::uint64_t>(latency_hist_.mean());
  }
  return m;
}

}  // namespace scanprim::serve
