// Fixture: suppressions that each silence a real finding, and NOLINTs
// that name no wmn-* check, are not stale.
#include <chrono>
#include <cstdlib>
#include <unordered_map>

struct Justified {
  std::unordered_map<int, long> load_;

  long total() const {
    long sum = 0;
    // Commutative integer sum; no order escapes this loop.
    // NOLINTNEXTLINE(wmn-unordered-iteration)
    for (const auto& [id, load] : load_) {
      sum += load;
    }
    return sum;
  }
};

double host_seconds() {
  // Host-performance timing only; a glob that matched is used.
  // NOLINTNEXTLINE(wmn-*,concurrency-mt-unsafe)
  auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t0.time_since_epoch()).count();
}

[[noreturn]] void die() {
  std::abort();  // NOLINT(wmn-no-raw-assert)
}

struct Implicit {
  Implicit(int v) : v_(v) {}  // NOLINT(google-explicit-constructor)
  int v_;
};

int anything() {
  return 0;  // NOLINT
}
