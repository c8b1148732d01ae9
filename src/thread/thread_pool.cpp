#include "src/thread/thread_pool.hpp"

#include <chrono>
#include <cstdlib>
#include <string>

#include "src/core/env.hpp"
#include "src/core/runtime.hpp"
#include "src/fault/fault.hpp"
#include "src/mem/mem.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/registry.hpp"

namespace scanprim::thread {
namespace {

thread_local bool tls_inside_worker = false;

std::uint64_t busy_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t configured_workers() {
  // size_or hands an unset or malformed variable the fallback unclamped,
  // so the hardware default is clamped here.
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t fallback =
      hw == 0 ? 1 : (hw > kMaxWorkers ? kMaxWorkers : hw);
  return env::size_or("SCANPRIM_THREADS", fallback, 1, kMaxWorkers);
}

/// Set only by reinit_pool_after_fork (shard worker children); pool()
/// prefers it over the static parent pool, whose worker threads do not
/// survive fork.
std::atomic<ThreadPool*> g_pool_override{nullptr};

}  // namespace

ThreadPool::ThreadPool(std::size_t workers)
    : workers_(workers == 0 ? 1 : workers) {
  counters_.resize(workers_);
  for (std::size_t w = 0; w < workers_; ++w) {
    const std::string label = "{worker=\"" + std::to_string(w) + "\"}";
    counters_[w].busy_ns =
        &obs::counter("scanprim_pool_busy_ns_total" + label);
    counters_[w].tasks = &obs::counter("scanprim_pool_tasks_total" + label);
    counters_[w].wakeups =
        &obs::counter("scanprim_pool_wakeups_total" + label);
  }
  threads_.reserve(workers_ - 1);
  for (std::size_t w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::execute(std::size_t index) {
  obs::Span span("pool.task");
  const std::uint64_t t0 = busy_now_ns();
  try {
    SCANPRIM_FAULT_POINT("thread.worker");
    (*job_)(index);
  } catch (...) {
    std::lock_guard lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  counters_[index].busy_ns->add(busy_now_ns() - t0);
  counters_[index].tasks->inc();
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_inside_worker = true;
  // SCANPRIM_PIN=1 (docs/MEM.md): pin each spawned worker to a fixed CPU,
  // round-robin, so first-touch NUMA placement is stable — a worker's pages
  // stay on the node of the core that faulted them in. Worker 0 is the
  // dispatching caller (the batcher, a request thread, main); its affinity
  // is not ours to change.
  if (mem::pin_workers()) mem::pin_thread_to_cpu(index);
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      start_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
    }
    counters_[index].wakeups->inc();
    execute(index);
    {
      std::lock_guard lock(mutex_);
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::run(const std::function<void(std::size_t)>& fn) {
  if (workers_ == 1 || tls_inside_worker) {
    // Single worker, or a nested call from inside a parallel region: run
    // every index serially on this thread. Error semantics match the
    // parallel path exactly — every index runs, then the first error (in
    // index order, which here is also arrival order) is rethrown — so
    // algorithms cannot come to depend on a first-throw-stops-the-rest
    // behaviour that only exists on the serial path. Busy time and task
    // counts are attributed to worker 0, the slot the calling thread
    // occupies.
    obs::Span span("pool.dispatch");
    const std::uint64_t t0 = busy_now_ns();
    std::exception_ptr first_error;
    for (std::size_t w = 0; w < workers_; ++w) {
      try {
        SCANPRIM_FAULT_POINT("thread.worker");
        fn(w);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
      counters_[0].tasks->inc();
    }
    counters_[0].busy_ns->add(busy_now_ns() - t0);
    if (first_error) std::rethrow_exception(first_error);
    return;
  }
  // One external dispatch at a time: a second thread calling run() while a
  // fan-out is in flight would clobber job_/generation_. Workers never reach
  // here (the tls check above sends them down the serial path), so holding
  // run_mutex_ across the whole fork-join cannot deadlock. The span starts
  // before the lock so dispatch serialisation shows up as span time.
  obs::Span span("pool.dispatch");
  std::lock_guard run_lock(run_mutex_);
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(mutex_);
    job_ = &fn;
    first_error_ = nullptr;
    remaining_ = workers_ - 1;
    ++generation_;
  }
  start_cv_.notify_all();
  // The caller acts as worker 0. Mark it as inside the pool for the
  // duration so that a nested run() from the job itself degrades to the
  // serial path instead of clobbering the in-flight dispatch.
  tls_inside_worker = true;
  execute(0);
  tls_inside_worker = false;
  {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
    job_ = nullptr;
    if (first_error_) {
      auto err = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(err);
    }
  }
}

ThreadPool& pool() {
  if (ThreadPool* p = g_pool_override.load(std::memory_order_acquire)) {
    return *p;
  }
  static ThreadPool instance(configured_workers());
  return instance;
}

void reinit_pool_after_fork(std::size_t workers) {
  auto* fresh =
      new ThreadPool(workers == 0 ? configured_workers() : workers);
  // The previous override (there is none on the first call in a child) and
  // the inherited static pool are both leaked: their worker threads died
  // with the parent address space, so their destructors would join forever.
  g_pool_override.store(fresh, std::memory_order_release);
}

std::size_t num_workers() { return pool().size(); }

bool oversubscribed() {
  // Not cached: reinit_pool_after_fork can change the answer within a
  // process lifetime, and two loads per query are cheap.
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 && num_workers() > hw;
}

}  // namespace scanprim::thread
