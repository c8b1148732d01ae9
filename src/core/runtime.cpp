#include "src/core/runtime.hpp"

#include <atomic>

#include "src/core/env.hpp"
#include "src/thread/thread_pool.hpp"

namespace scanprim {

namespace {

std::atomic<bool>& bounds_state() {
  static std::atomic<bool> enabled{env::flag_or("SCANPRIM_CHECK_BOUNDS", true)};
  return enabled;
}

}  // namespace

const char* version() { return "1.1.0"; }

std::size_t runtime_workers() { return thread::num_workers(); }

bool bounds_checking() {
  return bounds_state().load(std::memory_order_relaxed);
}

void set_bounds_checking(bool enabled) {
  bounds_state().store(enabled, std::memory_order_relaxed);
}

}  // namespace scanprim
