// One shared parser for every SCANPRIM_* environment knob.
//
// Before this header existed, each subsystem hand-rolled its own getenv +
// normalize + parse (thread, mem, serve, simd, plan, obs all had a copy),
// and a malformed value — "SCANPRIM_THREADS=eight", "SCANPRIM_MEM_TRIM=-1"
// — silently became the default (or silently clamped), which is exactly the
// wrong behaviour for an operator debugging a misconfigured deployment. The
// helpers here are the single entry point for reading configuration from
// the environment:
//
//   - unset variables take the fallback silently (the common case);
//   - malformed values WARN ONCE per variable on stderr, quoting the
//     offending text, then take the fallback;
//   - numeric values outside [min, max] warn once and clamp (the value was
//     understood; honouring as much of it as possible beats ignoring it).
//
// There are no other parsers: every knob's token table lives once, at its
// size_or / flag_or / choice_or call site.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>

namespace scanprim::env {

/// One recognised token for choice_or(): `token` (already lower-case)
/// selects `value`.
struct Choice {
  std::string_view token;
  int value;
};

/// Lower-cased copy of getenv(var) with surrounding whitespace stripped.
/// Empty when the variable is unset (or genuinely empty).
std::string token_of(const char* var);

/// Positive decimal size. Unset -> `fallback`. Malformed (non-numeric,
/// trailing garbage, zero/negative, overflow) -> warn once, `fallback`.
/// Valid but outside [min, max] -> warn once, clamp. The fallback itself is
/// returned as given, not clamped: callers use out-of-range fallbacks (0)
/// to mean "not configured".
std::size_t size_or(const char* var, std::size_t fallback, std::size_t min,
                    std::size_t max);

/// Boolean knob: "0"/"off"/"false" -> false, "1"/"on"/"true" -> true (any
/// case, surrounding whitespace ignored). Unset -> `fallback`; anything
/// else -> warn once, `fallback`.
bool flag_or(const char* var, bool fallback);

/// Enumerated knob: the variable's normalized token is looked up in
/// `choices`. Unset (or empty) -> `fallback` silently; a token not in the
/// list -> warn once, `fallback`.
int choice_or(const char* var, std::initializer_list<Choice> choices,
              int fallback);

/// Emit the warn-once diagnostic for `var` yourself — for knobs whose
/// grammar is too irregular for the helpers above (SCANPRIM_FAULT's
/// point:nth:count list). `got` is the offending text, `expected` a short
/// description of the grammar. Returns true when this call actually warned
/// (first report for `var`), false when the variable had already warned.
bool warn_malformed(const char* var, std::string_view got,
                    std::string_view expected);

/// Number of distinct variables that have warned so far (test hook).
std::size_t warning_count();

/// Forget which variables have warned (test hook: lets a test assert the
/// once-only contract from a clean slate).
void reset_warnings();

}  // namespace scanprim::env
