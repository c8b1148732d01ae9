// Library metadata and runtime configuration queries.
#pragma once

#include <cstddef>

namespace scanprim {

/// Library version string.
const char* version();

/// Number of worker threads the vector operations use (SCANPRIM_THREADS
/// overrides the hardware default).
std::size_t runtime_workers();

/// Largest worker count SCANPRIM_THREADS may request; bigger (but otherwise
/// valid) values clamp here instead of spawning an absurd number of threads.
inline constexpr std::size_t kMaxWorkers = 512;

/// Whether permute/gather validate their index vectors (and throw
/// std::out_of_range) instead of relying on assert-only checks that vanish
/// under NDEBUG. Initialised from SCANPRIM_CHECK_BOUNDS on first use;
/// checking is on unless the variable opts out with "0", "off" or "false".
bool bounds_checking();

/// Override bounds checking (used by tests; callers who have proven their
/// index vectors can opt out for the branch-free inner loop).
void set_bounds_checking(bool enabled);

}  // namespace scanprim
