// Fixture: every host-entropy source must be flagged, and so is raw
// threading outside the sanctioned layer (this fixture is not under
// src/exp/).
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>

unsigned host_entropy() {
  std::random_device rd;  // EXPECT: wmn-nondeterminism
  unsigned r = static_cast<unsigned>(rand());  // EXPECT: wmn-nondeterminism
  r += static_cast<unsigned>(time(nullptr));  // EXPECT: wmn-nondeterminism
  if (getenv("WMN_HOME") != nullptr) {  // EXPECT: wmn-nondeterminism
    r += 1;
  }
  auto t0 = std::chrono::steady_clock::now();  // EXPECT: wmn-nondeterminism
  (void)t0;
  return r + rd();
}

std::unordered_map<int*, int> by_address;  // EXPECT: wmn-nondeterminism

struct AdHocWorker {
  std::thread worker_;  // EXPECT: wmn-nondeterminism
  std::mutex state_lock_;  // EXPECT: wmn-nondeterminism
};

void spawn_detached() {
  std::thread t([] {});  // EXPECT: wmn-nondeterminism
  t.join();
}
