#include "src/core/simd/simd.hpp"

#include <atomic>

#include "src/core/env.hpp"

namespace scanprim::simd {

namespace {

Tier clamp_to_supported(Tier tier) {
  const Tier best = best_supported_tier();
  return static_cast<int>(tier) > static_cast<int>(best) ? best : tier;
}

std::atomic<Tier>& tier_state() {
  // -1 encodes "auto": pick the best tier the CPU offers. Unknown tokens
  // warn once (through env::) and behave as auto, matching the documented
  // default; recognised tiers above the hardware still clamp silently.
  static std::atomic<Tier> tier{[] {
    const int choice = env::choice_or(
        "SCANPRIM_SIMD",
        {{"auto", -1},
         {"scalar", static_cast<int>(Tier::kScalar)},
         {"off", static_cast<int>(Tier::kScalar)},
         {"none", static_cast<int>(Tier::kScalar)},
         {"avx2", static_cast<int>(Tier::kAvx2)},
         {"avx512", static_cast<int>(Tier::kAvx512)}},
        -1);
    return choice < 0 ? best_supported_tier()
                      : clamp_to_supported(static_cast<Tier>(choice));
  }()};
  return tier;
}

}  // namespace

Tier best_supported_tier() {
#if SCANPRIM_SIMD_X86
  static const Tier best = [] {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl")) {
      return Tier::kAvx512;
    }
    if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
    return Tier::kScalar;
  }();
  return best;
#else
  return Tier::kScalar;
#endif
}

Tier active_tier() { return tier_state().load(std::memory_order_relaxed); }

void set_simd_tier(Tier tier) {
  tier_state().store(clamp_to_supported(tier), std::memory_order_relaxed);
}

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kAvx512:
      return "avx512";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kScalar:
      break;
  }
  return "scalar";
}

}  // namespace scanprim::simd
