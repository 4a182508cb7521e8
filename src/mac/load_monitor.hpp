// Windowed MAC/PHY load measurement — the cross-layer half of CLNLR.
//
// Every `window` the monitor samples the PHY's cumulative busy time and
// the MAC's transmission/retry counters, converts the deltas to ratios,
// and folds them into exponentially weighted moving averages. The EWMAs
// are what the routing layer reads: smooth enough to be stable, fresh
// enough to track congestion onset within a couple of windows.
#pragma once

#include <cstdint>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace wmn::phy {
class WifiPhy;
}

namespace wmn::mac {

struct LoadMonitorConfig {
  sim::Time window = sim::Time::millis(250.0);
  double ewma_alpha = 0.5;  // weight of the newest window
};

class LoadMonitor {
 public:
  LoadMonitor(sim::Simulator& simulator, const LoadMonitorConfig& cfg,
              phy::WifiPhy& phy);
  ~LoadMonitor();

  LoadMonitor(const LoadMonitor&) = delete;
  LoadMonitor& operator=(const LoadMonitor&) = delete;

  // Fraction of the recent past the medium was busy (CCA busy or own
  // TX), in [0, 1].
  [[nodiscard]] double busy_ratio() const { return busy_ewma_; }

  // Fraction of recent transmissions that were retries, in [0, 1].
  [[nodiscard]] double retry_ratio() const { return retry_ewma_; }

  // The MAC reports each transmission attempt (is_retry for
  // retransmissions) so the monitor can window them.
  void count_tx(bool is_retry);

 private:
  void sample();

  sim::Simulator& sim_;
  LoadMonitorConfig cfg_;
  phy::WifiPhy& phy_;

  sim::Time last_sample_time_{};
  sim::Time last_busy_total_{};
  std::uint64_t window_tx_ = 0;
  std::uint64_t window_retries_ = 0;

  double busy_ewma_ = 0.0;
  double retry_ewma_ = 0.0;
  sim::EventId timer_{};
};

}  // namespace wmn::mac
