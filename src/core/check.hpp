// Release-safe invariant checking.
//
// The simulator's correctness claims (every F1-F9 figure) depend on
// invariants that `assert()` would silently compile out of the default
// RelWithDebInfo build. WMN_CHECK stays live in ALL build types; the
// cost is a predictable branch per check, which is noise next to the
// table lookups on the same paths.
//
// Two policies, switchable at runtime (see CheckPolicy):
//   * kAbort (default)    — print the violation and abort(). What CI,
//                           tests, and sanitizer runs want.
//   * kLogAndCount        — print (rate-limited), bump a global
//                           counter, continue. What a long experiment
//                           campaign wants: one bad replication taints
//                           its stats instead of killing the sweep.
//                           The counter is surfaced per-run through
//                           exp::RunMetrics::check_violations.
//
// WMN_UNREACHABLE ignores the policy and always terminates: by
// definition there is no sane state to continue from.
//
// When to use WMN_CHECK vs. returning an error: WMN_CHECK guards
// *programming errors* — states the code promises can never occur
// (caller contracts, state-machine legality, conservation laws).
// Conditions an operator or config file can produce (bad CLI values,
// unreachable destinations, full queues) are normal control flow and
// must stay error returns. See docs/TOOLING.md.
//
// Header-only on purpose: wmn_sim (the lowest layer) uses it, so it
// cannot live in any compiled library without inverting the layering.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace wmn::core {

enum class CheckPolicy : std::uint8_t {
  kAbort,        // report then abort()
  kLogAndCount,  // report (rate-limited), count, continue
};

namespace check_detail {

inline std::atomic<CheckPolicy>& policy_slot() {
  static std::atomic<CheckPolicy> policy{CheckPolicy::kAbort};
  return policy;
}

inline std::atomic<std::uint64_t>& violation_slot() {
  static std::atomic<std::uint64_t> violations{0};
  return violations;
}

// Cap on log-and-count stderr output; violations past the cap are
// still counted. Keeps a hot-loop invariant break from drowning a
// sweep's real output.
inline constexpr std::uint64_t kMaxLoggedViolations = 64;

}  // namespace check_detail

inline void set_check_policy(CheckPolicy p) {
  check_detail::policy_slot().store(p, std::memory_order_relaxed);
}

[[nodiscard]] inline CheckPolicy check_policy() {
  return check_detail::policy_slot().load(std::memory_order_relaxed);
}

// Total violations observed under kLogAndCount since process start (or
// the last reset). Monotone; scenarios snapshot-and-diff it.
[[nodiscard]] inline std::uint64_t check_violations() {
  return check_detail::violation_slot().load(std::memory_order_relaxed);
}

inline void reset_check_violations() {
  check_detail::violation_slot().store(0, std::memory_order_relaxed);
}

namespace check_detail {

inline void report(const char* kind, const char* expr, const char* msg,
                   const char* file, int line) {
  std::fprintf(stderr, "[wmn] %s: %s (%s) at %s:%d\n", kind, msg, expr, file,
               line);
}

inline void on_failure(const char* expr, const char* msg, const char* file,
                       int line) {
  if (policy_slot().load(std::memory_order_relaxed) == CheckPolicy::kAbort) {
    report("CHECK failed", expr, msg, file, line);
    std::fflush(stderr);
    // This IS the sanctioned failure path wmn-no-raw-assert points
    // everyone else at; the one place abort() may appear raw.
    std::abort();  // NOLINT(wmn-no-raw-assert)
  }
  const std::uint64_t n =
      violation_slot().fetch_add(1, std::memory_order_relaxed);
  if (n < kMaxLoggedViolations) {
    report("CHECK violated (continuing)", expr, msg, file, line);
  }
}

[[noreturn]] inline void on_unreachable(const char* msg, const char* file,
                                        int line) {
  report("UNREACHABLE reached", "-", msg, file, line);
  std::fflush(stderr);
  std::abort();  // NOLINT(wmn-no-raw-assert): WMN_UNREACHABLE's own exit
}

}  // namespace check_detail
}  // namespace wmn::core

// Core invariant check: live in every build type.
#define WMN_CHECK(cond, msg)                                              \
  do {                                                                    \
    if (!(cond)) [[unlikely]] {                                           \
      ::wmn::core::check_detail::on_failure(#cond, (msg), __FILE__,       \
                                            __LINE__);                    \
    }                                                                     \
  } while (false)

// Comparison flavors; arguments are evaluated exactly once.
#define WMN_CHECK_OP_(a, op, b, msg)                                      \
  do {                                                                    \
    const auto& wmn_chk_a_ = (a);                                         \
    const auto& wmn_chk_b_ = (b);                                         \
    if (!(wmn_chk_a_ op wmn_chk_b_)) [[unlikely]] {                       \
      ::wmn::core::check_detail::on_failure(#a " " #op " " #b, (msg),     \
                                            __FILE__, __LINE__);          \
    }                                                                     \
  } while (false)

#define WMN_CHECK_EQ(a, b, msg) WMN_CHECK_OP_(a, ==, b, msg)
#define WMN_CHECK_NE(a, b, msg) WMN_CHECK_OP_(a, !=, b, msg)
#define WMN_CHECK_GE(a, b, msg) WMN_CHECK_OP_(a, >=, b, msg)
#define WMN_CHECK_GT(a, b, msg) WMN_CHECK_OP_(a, >, b, msg)
#define WMN_CHECK_LE(a, b, msg) WMN_CHECK_OP_(a, <=, b, msg)
#define WMN_CHECK_LT(a, b, msg) WMN_CHECK_OP_(a, <, b, msg)

#define WMN_CHECK_NOTNULL(ptr, msg) \
  WMN_CHECK((ptr) != nullptr, msg)

// Marks control flow the surrounding logic proves impossible.
// Terminates under every policy: continuing from "impossible" state
// would corrupt results silently.
#define WMN_UNREACHABLE(msg) \
  ::wmn::core::check_detail::on_unreachable((msg), __FILE__, __LINE__)
