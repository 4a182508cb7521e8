// Structured failure taxonomy for sweep replications.
//
// A replication slot that does not produce clean metrics fails with
// exactly one FailureKind, machine-checkable by the harness and CI —
// never a free-text-only error string. The sweep never retries a slot:
// same config + same seed = same trace. A std::bad_alloc (host memory,
// not the run) is reported as the kException it is.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace wmn::exp {

enum class FailureKind : std::uint8_t {
  kNone = 0,                  // slot completed clean
  kException,                 // replication body threw
  kCheckTaint,                // finished, but WMN_CHECK violations counted
  kEventBudgetExhausted,      // deterministic event budget tripped
};

inline constexpr std::size_t kFailureKindCount = 4;

[[nodiscard]] constexpr const char* failure_kind_name(FailureKind k) {
  switch (k) {
    case FailureKind::kNone: return "none";
    case FailureKind::kException: return "exception";
    case FailureKind::kCheckTaint: return "check_taint";
    case FailureKind::kEventBudgetExhausted: return "event_budget_exhausted";
  }
  return "unknown";
}

// Per-kind slot counts, indexed by FailureKind's underlying value.
using FailureCounts = std::array<std::size_t, kFailureKindCount>;

// Thrown by Scenario::run() when the simulator aborted instead of
// completing: the run's metrics do not exist (a truncated trace is not
// a measurement), only the structured reason does.
class RunAborted : public std::runtime_error {
 public:
  RunAborted(FailureKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] FailureKind kind() const { return kind_; }

 private:
  FailureKind kind_;
};

}  // namespace wmn::exp
